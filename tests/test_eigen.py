"""Symmetric 3x3 eigensolver and covariance signature tests.

Oracles: the characteristic polynomial det(M - lambda*I) evaluated at each
returned eigenvalue, plus the trace/determinant elementary-symmetric
identities.
"""

import numpy as np
import pytest

from spokesense import eigen
from spokesense.eigen import (
    Covariance3,
    EigenSignature,
    covariance3,
    eigen_report_rows,
    eigenvalues_sym3,
)
from spokesense.errors import ValidationError
from spokesense.signals import TimeSeries, Window, segment_windows
from spokesense.synth import GenSpec, builtin_profiles, generate


def det3(m: np.ndarray) -> float:
    """Cofactor-expansion determinant; independent of the solver under test."""
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def random_psd(rng: np.random.RandomState, scale: float = 1.0) -> np.ndarray:
    g = rng.randn(3, 3) * scale
    return g @ g.T


def test_identity():
    sig = eigenvalues_sym3(np.eye(3))
    assert sig.as_tuple() == (1.0, 1.0, 1.0)


def test_diagonal_exact():
    sig = eigenvalues_sym3(np.diag([3.0, 1.0, 2.0]))
    assert sig.as_tuple() == (3.0, 2.0, 1.0)


def test_characteristic_polynomial_oracle():
    rng = np.random.RandomState(1)
    for _ in range(200):
        m = random_psd(rng, scale=float(rng.uniform(0.1, 10)))
        scale = max(1.0, float(np.abs(m).max()))
        sig = eigenvalues_sym3(m)
        for lam in sig.as_tuple():
            assert abs(det3(m - lam * np.eye(3))) <= 1e-6 * scale**3


def test_trace_and_det_identities_1000_matrices():
    rng = np.random.RandomState(2)
    for _ in range(1000):
        m = random_psd(rng, scale=float(rng.uniform(0.01, 100)))
        sig = eigenvalues_sym3(m)
        lam = sig.as_tuple()
        trace = float(np.trace(m))
        det = det3(m)
        scale = max(1.0, abs(trace))
        assert abs(sum(lam) - trace) <= 1e-9 * scale
        assert abs(lam[0] * lam[1] * lam[2] - det) <= 1e-6 * max(1.0, abs(det))
        assert lam[0] >= lam[1] >= lam[2]


def test_rotation_invariance():
    rng = np.random.RandomState(3)
    for _ in range(50):
        m = random_psd(rng)
        q, _ = np.linalg.qr(rng.randn(3, 3))
        rotated = q.T @ m @ q
        rotated = (rotated + rotated.T) / 2.0
        a = eigenvalues_sym3(m).as_tuple()
        b = eigenvalues_sym3(rotated).as_tuple()
        scale = max(1.0, float(np.abs(m).max()))
        assert np.abs(np.array(a) - np.array(b)).max() <= 1e-8 * scale


def test_repeated_eigenvalue_cases():
    # repeated eigenvalues are where naive closed-form root finders lose accuracy
    m = np.diag([2.0, 2.0, 5.0]) + 0.0
    sig = eigenvalues_sym3(m)
    assert sig.as_tuple() == (5.0, 2.0, 2.0)
    # non-diagonal matrix with a double eigenvalue: householder-rotated diag
    v = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    h = np.eye(3) - 2.0 * np.outer(v, v)
    m2 = h @ np.diag([4.0, 4.0, 1.0]) @ h.T
    m2 = (m2 + m2.T) / 2.0
    lam = eigenvalues_sym3(m2).as_tuple()
    assert abs(lam[0] - 4.0) <= 1e-9
    assert abs(lam[1] - 4.0) <= 1e-9
    assert abs(lam[2] - 1.0) <= 1e-9


@pytest.mark.parametrize(
    "m",
    [
        [[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [1.0, 0.0, 1.0]],
        # rotating (0, 1) leaves a (0, 2) entry near 1e-305, whose tan(2*angle) underflows
        [[1.0, 1.0, 1e-305], [1.0, 2.0, 0.0], [1e-305, 0.0, 3.0]],
    ],
    ids=["zero_entry_skipped", "underflowing_rotation_zeroed"],
)
def test_sparse_and_extreme_matrices_match_eigvalsh(m):
    m = np.array(m)
    lam = np.array(eigenvalues_sym3(m).as_tuple())
    oracle = np.linalg.eigvalsh(m)[::-1]
    assert np.all(np.abs(lam - oracle) <= 1e-8 * np.maximum(1.0, np.abs(oracle)))


def test_asymmetric_rejected():
    bad = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValidationError):
        eigenvalues_sym3(bad)


def test_nonfinite_rejected():
    bad = np.eye(3)
    bad[1, 1] = np.nan
    with pytest.raises(ValidationError):
        eigenvalues_sym3(bad)


# ------------------------------------------------------------ covariance3


def make_series(channels: np.ndarray, rate: float = 720.0) -> TimeSeries:
    return TimeSeries(sample_rate_hz=rate, channels=channels)


def test_identical_channels_rank_one():
    rng = np.random.RandomState(4)
    row = rng.randn(2048)
    series = make_series(np.vstack([row, row, row]))
    cov = covariance3(series, Window(0, 2048))
    sig = eigenvalues_sym3(cov)
    assert abs(sig.lambda2) <= 1e-9 * max(1.0, sig.lambda1)
    assert abs(sig.lambda3) <= 1e-9 * max(1.0, sig.lambda1)


def test_zero_channels_zero_matrix():
    series = make_series(np.zeros((3, 64)))
    cov = covariance3(series, Window(0, 64))
    assert np.abs(cov.entries).max() == 0.0


def test_independent_channels_near_identity():
    rng = np.random.RandomState(5)
    series = make_series(rng.randn(3, 100000), rate=1000.0)
    cov = covariance3(series, Window(0, 100000))
    m = cov.entries
    for i in range(3):
        assert abs(m[i, i] - 1.0) <= 0.02
        for j in range(3):
            if i != j:
                assert abs(m[i, j]) <= 0.02


def test_covariance_matches_direct_oracle():
    rng = np.random.RandomState(6)
    x = rng.randn(3, 500)
    series = make_series(x)
    cov = covariance3(series, Window(0, 500))
    centered = x - x.mean(axis=1, keepdims=True)
    oracle = centered @ centered.T / 500
    assert np.abs(cov.entries - oracle).max() <= 1e-12 * max(1.0, np.abs(oracle).max())


def test_covariance_bit_identical_to_per_channel_centering():
    # The channels are centered as one block; the earlier path centered each
    # channel on its own and stacked them.  Both must give the same bits.
    checked = 0
    for k, profile in enumerate(builtin_profiles()):
        series = generate(GenSpec(profile, duration_s=6.0, sample_rate_hz=1440.0, seed=50 + k))
        windows = segment_windows(series, 1.5, 0.5) + [Window(7, 1001), Window(3, 4)]
        for window in windows:
            rows = []
            for c in range(3):
                segment = series.channels[c, window.start_index:window.stop_index]
                rows.append(segment - segment.mean())
            stacked = np.vstack(rows)
            old = (stacked @ stacked.T) / window.length
            assert covariance3(series, window).entries.tobytes() == old.tobytes()
            checked += 1
    assert checked == 6 * 9


def test_covariance_window_bounds():
    series = make_series(np.zeros((3, 100)))
    with pytest.raises(ValidationError):
        covariance3(series, Window(50, 60))


def test_covariance3_type_validation():
    with pytest.raises(ValidationError):
        Covariance3(entries=np.zeros((2, 2)))
    asym = np.array([[1.0, 5.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValidationError):
        Covariance3(entries=asym)
    not_psd = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValidationError):
        Covariance3(entries=not_psd)


def test_covariance_signature_solves_once(monkeypatch):
    calls = []
    original = eigen._sym3_eigenvalues

    def counting(a):
        calls.append(1)
        return original(a)

    monkeypatch.setattr(eigen, "_sym3_eigenvalues", counting)
    rng = np.random.RandomState(9)
    cov = covariance3(make_series(rng.randn(3, 1080)), Window(0, 1080))
    sig = eigenvalues_sym3(cov)
    assert len(calls) == 1
    assert sig == eigenvalues_sym3(cov.entries)


def test_eigen_report_rows():
    rng = np.random.RandomState(8)
    series = TimeSeries(
        sample_rate_hz=720.0, channels=rng.randn(3, 3240), label="probe"
    )
    windows = segment_windows(series, 1.5, 0.5)
    rows = eigen_report_rows(series, windows)
    assert len(rows) == len(windows)
    for idx, (i, sig, label) in enumerate(rows):
        assert i == idx
        assert isinstance(sig, EigenSignature)
        assert sig.lambda1 >= sig.lambda2 >= sig.lambda3
        assert label == "probe"
