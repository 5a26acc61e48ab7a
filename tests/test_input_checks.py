"""Malformed arguments raise typed errors.

Every public entry point converts its arguments through the checkers in
``spokesense.errors``: a float array of a given shape, a finite real > 0
(or >= 0), an integer count and an integer seed.  Ragged lists, text
cells, ``None`` or text where a number belongs, non-integral or float
counts and seeds, seeds outside [0, 2^64), short label vectors, other
training sets and non-bool flags must all raise a ``ValidationError`` subclass, never a bare
``ValueError``, ``TypeError``, ``IndexError`` or ``AttributeError`` from
numpy or from Python, and never succeed only to fail later.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from spokesense.eigen import Covariance3, eigenvalues_sym3
from spokesense.errors import EmptyInputError, LayoutMismatchError, ValidationError
from spokesense.features import (
    FeatureConfig,
    autocorrelation_peak,
    kurtosis,
    rms,
    shannon_entropy,
)
from spokesense.rng import Prng, derive_seed
from spokesense.signals import (
    BandSpec,
    TimeSeries,
    Window,
    bandpass,
    dft_magnitude,
    fft_radix2,
    ifft_radix2,
    next_pow2,
    segment_windows,
)
from spokesense.similarity import build_library, cholesky_spd, euclidean_distance, rank_unknown
from spokesense.svm import (
    Kernel,
    apply_standardizer,
    decision_function,
    evaluate_trials,
    fit_standardizer,
    fit_svm_model,
    kernel_matrix,
    kkt_report,
    predict_batch,
    train_binary_svm,
)
from spokesense.synth import GenSpec, Tonal, builtin_profile, generate_dataset

RAGGED = [[1.0], [1.0, 2.0]]
BAND = BandSpec(10.0, 60.0)
X2 = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 3.0], [3.0, 4.0]])
Y2 = np.array([1.0, 1.0, -1.0, -1.0])
LABELS = ["a", "a", "b", "b"]


@lru_cache(maxsize=None)
def series():
    return TimeSeries(720.0, np.random.RandomState(3).randn(3, 2160))


@lru_cache(maxsize=None)
def machine():
    return train_binary_svm(X2, Y2, kernel=Kernel("rbf", 0.5))


@lru_cache(maxsize=None)
def model():
    return fit_svm_model(X2, LABELS)


@lru_cache(maxsize=None)
def library():
    rng = np.random.RandomState(61)
    return build_library({"a": rng.randn(4, 2), "b": rng.randn(4, 2)})


def flat():
    return builtin_profile("flat")


PROBES = {
    # signals
    "time_series_ragged": lambda: TimeSeries(720.0, [[1.0, 2.0], [1.0], [1.0, 2.0]]),
    "time_series_text_rate": lambda: TimeSeries("x", np.zeros((3, 4))),
    "window_float_length": lambda: Window(0, 2160.5),
    "band_text_edge": lambda: BandSpec("x", 50.0),
    "band_none_edge": lambda: BandSpec(1.0, None),
    "next_pow2_float": lambda: next_pow2(3.5),
    "fft_ragged": lambda: fft_radix2(RAGGED),
    "fft_two_dimensional": lambda: fft_radix2(np.ones((2, 4))),
    "ifft_text_cells": lambda: ifft_radix2(["x", "y"]),
    "dft_text_cell": lambda: dft_magnitude([1.0, "x"], 720.0),
    "dft_none_rate": lambda: dft_magnitude([1.0, 2.0], None),
    "bandpass_ragged": lambda: bandpass(RAGGED, 720.0, BAND),
    "segment_text_seconds": lambda: segment_windows(series(), "x", 0.5),
    # features
    "config_float_bins": lambda: FeatureConfig(entropy_bins=16.0),
    "config_text_bins": lambda: FeatureConfig(entropy_bins="x"),
    "config_none_bands": lambda: FeatureConfig(bands=None),
    "config_int_bands": lambda: FeatureConfig(bands=(1, 2, 3)),
    "config_text_extras": lambda: FeatureConfig(include_position_extras="no"),
    "config_text_window_seconds": lambda: FeatureConfig(window_seconds="x"),
    "config_overlap_one": lambda: FeatureConfig(overlap=1.0),
    "rms_ragged": lambda: rms(RAGGED),
    "entropy_float_bins": lambda: shannon_entropy(np.arange(8.0), bins=3.5),
    "autocorr_text_cells": lambda: autocorrelation_peak(["x"] * 8),
    # eigen
    "eigen_ragged": lambda: eigenvalues_sym3([[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]),
    # svm
    "fit_ragged": lambda: fit_svm_model(RAGGED, ["a", "b"]),
    "fit_none_labels": lambda: fit_svm_model(X2, None),
    "standardize_ragged": lambda: apply_standardizer(fit_standardizer(X2), RAGGED),
    "kernel_ragged": lambda: kernel_matrix(Kernel("linear"), RAGGED, [[1.0]]),
    "kernel_text_gamma": lambda: Kernel("rbf", "x"),
    "train_none_c": lambda: train_binary_svm(X2, Y2, c=None),
    "train_float_max_iter": lambda: train_binary_svm(X2, Y2, max_iter=2.5),
    "train_short_labels": lambda: train_binary_svm(X2, Y2[:1]),
    "kkt_short_labels": lambda: kkt_report(machine(), X2, Y2[:1]),
    "kkt_short_training_set": lambda: kkt_report(machine(), X2[:2], Y2[:2]),
    "kkt_other_training_set": lambda: kkt_report(machine(), X2 + 10.0, Y2),
    "kkt_flipped_labels": lambda: kkt_report(machine(), X2, -Y2),
    "decision_ragged": lambda: decision_function(machine(), RAGGED),
    "predict_text_cells": lambda: predict_batch(model(), [["x", "y"]]),
    "evaluate_float_trials": lambda: evaluate_trials(X2, LABELS, n_trials=2.5),
    "evaluate_text_fraction": lambda: evaluate_trials(X2, LABELS, test_fraction="x"),
    "evaluate_text_seed": lambda: evaluate_trials(X2, LABELS, seed="x"),
    "evaluate_float_seed": lambda: evaluate_trials(X2, LABELS, seed=3.7),
    # similarity
    "euclidean_text_cell": lambda: euclidean_distance([1.0, "x"], [0.0, 0.0]),
    "cholesky_ragged": lambda: cholesky_spd(RAGGED),
    "library_text_epsilon": lambda: build_library({"a": X2, "b": X2}, epsilon_scale="x"),
    "rank_ragged": lambda: rank_unknown(RAGGED, library()),
    # synth
    "tonal_none_gains": lambda: Tonal(100.0, 0.1, None),
    "profile_text_rate": lambda: dataclasses.replace(flat(), impulse_rate_hz="x"),
    "genspec_none_duration": lambda: GenSpec(flat(), None, 1440.0, 0),
    "genspec_none_seed": lambda: GenSpec(flat(), 1.0, 1440.0, None),
    "genspec_huge_seed": lambda: GenSpec(flat(), 1.0, 1440.0, 1 << 64),
    "dataset_float_windows": lambda: generate_dataset([flat()], 3.0),
    "dataset_float_seed": lambda: generate_dataset([flat()], 3, seed=3.7),
    # rng
    "u64_block_float": lambda: Prng(1).u64_block(4.0),
    "prng_float_seed": lambda: Prng(3.7),
    "prng_negative_seed": lambda: Prng(-1),
    "below_float_bound": lambda: Prng(1).below(2.5),
    "below_inf_bound": lambda: Prng(1).below(float("inf")),
    "permutation_negative": lambda: Prng(1).permutation(-1),
    "permutation_float": lambda: Prng(1).permutation(2.5),
    "permutation_none": lambda: Prng(1).permutation(None),
    "shuffle_int": lambda: Prng(1).shuffle(5),
    "shuffle_set": lambda: Prng(1).shuffle({3, 1, 2}),
    "shuffle_tuple": lambda: Prng(1).shuffle((1, 2, 3)),
    "shuffle_str": lambda: Prng(1).shuffle("abc"),
    "shuffle_sparse_dict": lambda: Prng(1).shuffle({0: 1, 1: 2, 5: 3}),
    "derive_none_seed": lambda: derive_seed(None, "a"),
    "derive_negative_salt": lambda: derive_seed(0, -1),
}


@pytest.mark.parametrize("call", PROBES.values(), ids=PROBES.keys())
def test_malformed_argument_raises_validation_error(call):
    with pytest.raises(ValidationError):
        call()


def test_probe_table_size():
    assert len(PROBES) == 68


@pytest.mark.parametrize(
    "call",
    [
        lambda: rms([]),
        lambda: fit_standardizer(np.empty((0, 3))),
        lambda: TimeSeries(10.0, np.zeros((3, 0))),
        lambda: rank_unknown(np.zeros((0, 2)), library()),
    ],
    ids=["samples", "matrix_rows", "record", "unknown_rows"],
)
def test_empty_input_raises_empty_input_error(call):
    with pytest.raises(EmptyInputError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: kurtosis([1.0, 2.0, 3.0]),
        lambda: dft_magnitude([1.0], 720.0),
        lambda: autocorrelation_peak(np.arange(7.0)),
    ],
    ids=["kurtosis", "spectrum", "autocorrelation"],
)
def test_too_short_input_raises_empty_input_error(call):
    with pytest.raises(EmptyInputError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: TimeSeries(10.0, np.zeros((2, 4))),
        lambda: Covariance3(np.eye(2)),
        lambda: Tonal(100.0, 0.1, (1.0, 1.0)),
        lambda: train_binary_svm(X2, Y2[:3]),
    ],
    ids=["channels", "covariance", "tonal_gains", "labels"],
)
def test_fixed_dimension_mismatch_raises_layout_mismatch(call):
    with pytest.raises(LayoutMismatchError):
        call()


def test_empty_query_batch_gives_empty_result():
    assert predict_batch(model(), np.empty((0, 2))) == []
    values = decision_function(machine(), np.empty((0, 2)))
    assert isinstance(values, np.ndarray) and values.shape == (0,)


def test_converted_arguments_are_stored():
    # Numbers given as numpy scalars or ints are kept as the converted
    # Python value, so later arithmetic never sees the raw argument.
    assert TimeSeries(np.float64(720.0), np.zeros((3, 4))).sample_rate_hz == 720.0
    band = BandSpec(np.float64(1.0), 50)
    assert type(band.low_hz) is float and type(band.high_hz) is float
    assert FeatureConfig(bands=(band, BAND, BAND)).layout_id().startswith("ffv2;bands=1.0:50.0,")
    assert type(Window(np.int64(3), np.int64(8)).start_index) is int
    gamma = Kernel("rbf", np.float32(0.5)).gamma
    assert type(gamma) is float and gamma == 0.5
