"""Statistical feature tests: hand values, Monte-Carlo oracles, invariances."""

import math
import tracemalloc

import numpy as np
import pytest

from spokesense import features
from spokesense.errors import (
    DegenerateInputError,
    EmptyInputError,
    LayoutMismatchError,
    ValidationError,
)
from spokesense.features import (
    DEFAULT_BANDS,
    FeatureConfig,
    amplitude_smoothness,
    autocorrelation_peak,
    extract_feature_matrix,
    extract_features,
    kurtosis,
    rms,
    shannon_entropy,
    signal_energy,
    skewness,
    std_dev,
)
from spokesense.signals import TimeSeries, Window, bandpass, remove_mean, segment_windows
from spokesense.synth import GenSpec, builtin_profile, builtin_profiles, generate


# ------------------------------------------------------------- base stats


def test_rms_examples():
    assert rms([3.0, 3.0, 3.0, 3.0]) == 3.0
    assert rms([1.0, -1.0, 1.0, -1.0]) == 1.0


def test_rms_random_oracle():
    rng = np.random.RandomState(1)
    for _ in range(20):
        x = rng.randn(int(rng.randint(1, 500))) * 5
        oracle = np.sqrt(np.sum(x * x) / x.shape[0])
        assert abs(rms(x) - oracle) <= 1e-12 * max(1.0, oracle)


def test_std_examples():
    assert std_dev([5.0, 5.0, 5.0]) == 0.0
    assert std_dev([0.0, 2.0]) == 1.0


def test_std_two_pass_oracle():
    rng = np.random.RandomState(2)
    for _ in range(20):
        x = rng.randn(int(rng.randint(2, 500))) * 3 + 7
        mean = np.sum(x) / x.shape[0]
        oracle = np.sqrt(np.sum((x - mean) ** 2) / x.shape[0])
        assert abs(std_dev(x) - oracle) <= 1e-12 * max(1.0, oracle)


def test_kurtosis_two_point_symmetric():
    x = np.tile([1.0, -1.0], 50)
    assert abs(kurtosis(x) - (-2.0)) <= 1e-12


def test_kurtosis_gaussian_monte_carlo():
    # Excess kurtosis of a standard normal is 0; n = 2e5 keeps the
    # estimator's noise well inside +-0.2.
    rng = np.random.RandomState(3)
    x = rng.randn(200000)
    assert abs(kurtosis(x)) <= 0.2


def test_kurtosis_spike_sensitivity():
    rng = np.random.RandomState(4)
    dither = rng.randn(1000) * 1e-3
    spiked = dither.copy()
    spiked[500] += 50.0
    assert kurtosis(spiked) > kurtosis(dither)
    assert kurtosis(spiked) > 100.0


def test_kurtosis_direct_recomputation():
    rng = np.random.RandomState(5)
    x = rng.randn(500)
    centered = x - x.mean()
    m2 = np.mean(centered**2)
    m4 = np.mean(centered**4)
    assert abs(kurtosis(x) - (m4 / m2**2 - 3.0)) <= 1e-12


def test_skewness_symmetric_is_zero():
    rng = np.random.RandomState(6)
    half = rng.randn(300)
    x = np.concatenate([half, -half])  # exactly mirrored about 0
    assert abs(skewness(x)) <= 1e-12


def test_skewness_sign_and_oddness():
    x = np.array([0.0, 0.0, 0.0, 10.0])
    assert skewness(x) > 0.0
    rng = np.random.RandomState(7)
    y = rng.randn(100) ** 3
    assert abs(skewness(-y) + skewness(y)) <= 1e-12


def test_degenerate_moments_raise():
    with pytest.raises(DegenerateInputError):
        kurtosis([1.0, 1.0, 1.0, 1.0])
    with pytest.raises(DegenerateInputError):
        skewness([2.0, 2.0, 2.0])


def test_energy_examples():
    assert signal_energy([1.0, 2.0, 2.0]) == 9.0
    assert signal_energy(np.zeros(10)) == 0.0


def test_energy_quadratic_scaling():
    rng = np.random.RandomState(8)
    x = rng.randn(200)
    for a in (0.5, 2.0, -3.0):
        assert abs(signal_energy(a * x) - a * a * signal_energy(x)) <= 1e-9 * signal_energy(x)


# --------------------------------------------------------------- entropy


def test_entropy_constant_is_zero():
    assert shannon_entropy(np.full(100, 4.2), bins=16) == 0.0


def test_entropy_uniform_one_per_cell():
    for k in (2, 4, 8, 16):
        # with range [0, k-1) split into k cells, values i + tiny land one
        # per cell; repeat each value n times
        x = np.repeat(np.arange(k, dtype=np.float64), 10)
        h = shannon_entropy(x, bins=k)
        assert abs(h - np.log2(k)) <= 1e-12


def test_entropy_histogram_oracle():
    rng = np.random.RandomState(9)
    for _ in range(20):
        x = rng.randn(int(rng.randint(10, 400)))
        bins = int(rng.randint(2, 40))
        counts, _ = np.histogram(x, bins=bins, range=(x.min(), x.max()))
        p = counts[counts > 0] / x.shape[0]
        oracle = -np.sum(p * np.log2(p))
        assert abs(shannon_entropy(x, bins=bins) - oracle) <= 1e-12


def histogram_entropy(x, bins):
    """Entropy from np.histogram's counts, the path shannon_entropy replaced."""
    if x.min() == x.max():
        return 0.0
    counts, _ = np.histogram(x, bins=bins, range=(float(x.min()), float(x.max())))
    probs = counts[counts > 0] / x.shape[0]
    return float(-np.sum(probs * np.log2(probs)))


def test_entropy_bit_identical_to_histogram_path():
    # Small-integer and rounded values put many samples exactly on bin edges.
    rng = np.random.RandomState(19)
    for trial in range(20_000):
        n = int(rng.randint(1, 120))
        style = trial % 4
        if style == 0:
            x = rng.randn(n)
        elif style == 1:
            x = rng.randint(-4, 5, size=n).astype(np.float64)
        else:
            scale = 10.0 ** (300 if style == 2 else -300)
            x = np.round(rng.randn(n), int(rng.randint(0, 3))) * scale
        bins = (2, 3, 16, 17)[trial // 4 % 4]
        got = np.float64(shannon_entropy(x, bins=bins))
        want = np.float64(histogram_entropy(x, bins))
        assert got.view(np.uint64) == want.view(np.uint64), (trial, bins)


def test_entropy_bounds_always():
    rng = np.random.RandomState(10)
    for _ in range(50):
        n = int(rng.randint(1, 300))
        bins = int(rng.randint(2, 33))
        style = rng.randint(3)
        if style == 0:
            x = rng.randn(n)
        elif style == 1:
            x = np.full(n, float(rng.randn()))
        else:
            x = rng.exponential(size=n) * 100
        h = shannon_entropy(x, bins=bins)
        assert 0.0 <= h <= np.log2(bins) + 1e-12


def test_entropy_rejects_bad_bins():
    with pytest.raises(ValidationError):
        shannon_entropy([1.0, 2.0], bins=1)


def test_entropy_rejects_spans_beyond_the_double_range():
    # max - min overflows to inf here; numpy must never see it (the suite
    # raises its RuntimeWarnings as errors).
    with pytest.raises(ValidationError, match="span"):
        shannon_entropy([-1e308, 1e308, 0.0])
    assert shannon_entropy([-1e307, 1e307, 0.0], bins=2) == pytest.approx(np.log2(3) - 2 / 3)


# --------------------------------------------------------- autocorrelation


def test_autocorr_sine_period():
    period = 64
    n = 4096
    t = np.arange(n)
    x = np.sin(2 * np.pi * t / period)
    peak = autocorrelation_peak(x)
    assert peak.found
    assert abs(peak.lag - period) <= 1
    assert peak.value >= 0.95
    # analytic value of the biased estimator at the period lag
    assert abs(peak.value - (1.0 - period / n)) <= 0.01


def test_autocorr_white_noise_low_value():
    rng = np.random.RandomState(11)
    x = rng.randn(4096)
    peak = autocorrelation_peak(x)
    assert peak.value <= 0.1


def test_autocorr_r0_is_one_and_oracle():
    # direct-sum oracle for the biased normalized autocorrelation
    rng = np.random.RandomState(12)
    x = rng.randn(64)
    centered = x - x.mean()
    denom = np.sum(centered * centered)
    direct = np.array(
        [np.sum(centered[: 64 - lag] * centered[lag:]) / denom for lag in range(64)]
    )
    assert abs(direct[0] - 1.0) <= 1e-12
    peak = autocorrelation_peak(x)
    if peak.found:
        assert abs(direct[peak.lag] - peak.value) <= 1e-9
        # a local maximum of the oracle sequence at the reported lag
        assert direct[peak.lag] > direct[peak.lag - 1]
        assert direct[peak.lag] >= direct[peak.lag + 1]


def test_autocorr_no_peak_sentinel():
    # strictly decaying autocorrelation: an AR-free exponential envelope
    x = np.exp(-np.arange(16) / 2.0)
    peak = autocorrelation_peak(x)
    if not peak.found:
        assert (peak.lag, peak.value) == (0, 1.0)


def test_autocorr_degenerate():
    with pytest.raises(DegenerateInputError):
        autocorrelation_peak(np.ones(32))


# -------------------------------------------------------------- smoothness


def test_smoothness_constant_sine_high():
    t = np.arange(2048)
    x = np.sin(2 * np.pi * t / 32)
    assert amplitude_smoothness(x) >= 0.99


def test_smoothness_step_lower_than_constant():
    t = np.arange(2048)
    x = np.sin(2 * np.pi * t / 32)
    stepped = x.copy()
    stepped[1024:] *= 10.0
    assert amplitude_smoothness(stepped) < amplitude_smoothness(x)


def test_smoothness_zero_signal_is_one():
    assert amplitude_smoothness(np.zeros(100)) == 1.0


def test_smoothness_bounds():
    rng = np.random.RandomState(13)
    for _ in range(20):
        x = rng.randn(int(rng.randint(4, 500))) * rng.uniform(0.01, 100)
        s = amplitude_smoothness(x)
        assert 0.0 < s <= 1.0


# --------------------------------------------------------- extract_features


def tone_series(rate=1440.0, n=4320, seed=0) -> TimeSeries:
    rng = np.random.RandomState(seed)
    t = np.arange(n) / rate
    ch1 = np.sin(2 * np.pi * 20 * t) + 0.1 * rng.randn(n)
    ch2 = np.sin(2 * np.pi * 200 * t) + 0.1 * rng.randn(n)
    ch3 = np.sin(2 * np.pi * 500 * t) + 0.1 * rng.randn(n)
    return TimeSeries(sample_rate_hz=rate, channels=np.vstack([ch1, ch2, ch3]))


def test_layout_lengths():
    series = tone_series()
    window = Window(0, 2160)
    plain = extract_features(series, window, FeatureConfig())
    extras = extract_features(
        series, window, FeatureConfig(include_position_extras=True)
    )
    assert plain.values.shape == (18,)
    assert extras.values.shape == (22,)
    assert len(FeatureConfig().feature_names()) == 18
    assert len(FeatureConfig(include_position_extras=True).feature_names()) == 22
    assert np.isfinite(plain.values).all()
    assert np.isfinite(extras.values).all()


def test_extract_deterministic():
    series = tone_series()
    window = Window(0, 2160)
    config = FeatureConfig(include_position_extras=True)
    a = extract_features(series, window, config)
    b = extract_features(series, window, config)
    assert np.array_equal(a.values, b.values)


def test_feature_names_layout():
    names = FeatureConfig().feature_names()
    assert names[0] == "ch1_low_rms"
    assert names[5] == "ch1_low_entropy"
    assert names[6] == "ch2_mid_rms"
    assert names[17] == "ch3_high_entropy"
    extra_names = FeatureConfig(include_position_extras=True).feature_names()
    assert extra_names[18:] == (
        "autocorr_peak",
        "amplitude_smoothness",
        "highfreq_std",
        "spike_kurtosis",
    )


def test_gain_equivariance_suite():
    # rms/std/energy scale with gain; kurtosis, skewness, autocorr value are
    # gain-invariant; entropy is checked with power-of-two gains so bin
    # boundaries map exactly.
    series = tone_series(seed=5)
    window = Window(0, 2160)
    config = FeatureConfig(include_position_extras=True)
    base = extract_features(series, window, config).values
    for gain in (2.0, 8.0):
        scaled = TimeSeries(
            sample_rate_hz=series.sample_rate_hz, channels=series.channels * gain
        )
        out = extract_features(scaled, window, config).values
        for c in range(3):
            o = 6 * c
            assert abs(out[o + 0] - gain * base[o + 0]) <= 1e-9 * max(1.0, abs(base[o + 0]) * gain)
            assert abs(out[o + 1] - gain * base[o + 1]) <= 1e-9 * max(1.0, abs(base[o + 1]) * gain)
            assert abs(out[o + 2] - base[o + 2]) <= 1e-9 * max(1.0, abs(base[o + 2]))  # kurtosis
            assert abs(out[o + 3] - base[o + 3]) <= 1e-9 * max(1.0, abs(base[o + 3]))  # skewness
            assert abs(out[o + 4] - gain * gain * base[o + 4]) <= 1e-9 * abs(base[o + 4]) * gain * gain
            assert abs(out[o + 5] - base[o + 5]) <= 1e-9  # entropy, pow2 gain
        assert abs(out[18] - base[18]) <= 1e-9  # autocorr peak value
        assert abs(out[19] - base[19]) <= 1e-9  # smoothness is scale-free
        assert abs(out[20] - gain * base[20]) <= 1e-9 * abs(base[20]) * gain  # high std
        assert abs(out[21] - base[21]) <= 1e-9 * max(1.0, abs(base[21]))  # spike kurtosis


def test_flat_profile_band_rms_below_floor():
    profile = builtin_profile("flat")
    series = generate(GenSpec(profile=profile, duration_s=6.0, sample_rate_hz=1440.0, seed=21))
    config = FeatureConfig()
    from spokesense.signals import segment_windows

    windows = segment_windows(series, 1.5, 0.5)
    rms_cols = [0, 6, 12]
    collected = {c: [] for c in rms_cols}
    for w in windows:
        vec = extract_features(series, w, config).values
        for c in rms_cols:
            collected[c].append(vec[c])
    for c in rms_cols:
        vals = np.asarray(collected[c])
        assert vals.max() <= profile.noise_floor_rms + 3.0 * vals.std()


def test_sand_vs_rocky_band_ratio():
    # sand must look high-band dominant relative to the rocky profile
    config = FeatureConfig()
    ratios = {}
    for name in ("fine_sand", "small_stone"):
        series = generate(
            GenSpec(profile=builtin_profile(name), duration_s=3.0, sample_rate_hz=1440.0, seed=33)
        )
        vec = extract_features(series, Window(0, 2160), config).values
        ratios[name] = vec[12] / vec[0]  # ch3 high rms / ch1 low rms
    assert ratios["fine_sand"] > ratios["small_stone"]


def test_degenerate_window_flagged_not_raised():
    from spokesense.signals import BandSpec

    channels = np.zeros((3, 256))
    series = TimeSeries(sample_rate_hz=256.0, channels=channels)
    config = FeatureConfig(
        bands=(BandSpec(1.0, 30.0), BandSpec(30.0, 80.0), BandSpec(80.0, 120.0))
    )
    vec = extract_features(series, Window(0, 256), config)
    assert vec.degenerate
    kurt_cols = [2, 8, 14]
    skew_cols = [3, 9, 15]
    for c in kurt_cols + skew_cols:
        assert vec.values[c] == 0.0


def test_zero_mid_channel_extras_flagged():
    rng = np.random.RandomState(12)
    channels = rng.randn(3, 2160)
    channels[1] = 0.0
    series = TimeSeries(sample_rate_hz=1440.0, channels=channels)
    vec = extract_features(series, Window(0, 2160), FeatureConfig(include_position_extras=True))
    assert vec.degenerate
    assert vec.values[18] == 1.0  # autocorr_peak of the silent mid band
    assert vec.values[8] == 0.0 and vec.values[9] == 0.0


def test_three_sample_window_rejected():
    # kurtosis needs at least 4 samples
    from spokesense.signals import BandSpec

    series = TimeSeries(sample_rate_hz=256.0, channels=np.arange(9.0).reshape(3, 3))
    config = FeatureConfig(
        bands=(BandSpec(1.0, 30.0), BandSpec(30.0, 80.0), BandSpec(80.0, 120.0))
    )
    with pytest.raises(ValidationError):
        extract_features(series, Window(0, 3), config)


def test_short_window_with_extras_rejected_by_its_length():
    # the autocorrelation extra needs 8 samples; the error names the window,
    # not the internal autocorrelation input
    series = TimeSeries(sample_rate_hz=1440.0, channels=np.random.RandomState(14).randn(3, 6))
    assert extract_features(series, Window(0, 6), FeatureConfig()).values.shape == (18,)
    config = FeatureConfig(include_position_extras=True)
    with pytest.raises(ValidationError, match="window length for the extras must be >= 8, got 6"):
        extract_features(series, Window(0, 6), config)


def _parent_formula_features(series, window, config):
    """Oracle: the feature vector from one formula per statistic, as the
    statistics were once computed: np.std, and means of centered**3 and
    centered**4 for skewness and kurtosis."""

    def kurt_skew(x):
        centered = x - x.mean()
        m2 = np.mean(centered * centered)
        if m2 == 0.0:
            return 0.0, 0.0
        return (
            float(np.mean(centered**4)) / (m2 * m2) - 3.0,
            float(np.mean(centered**3)) / m2**1.5,
        )

    rate = series.sample_rate_hz
    values = []
    filtered = []
    for c in range(3):
        segment = series.channels[c, window.start_index:window.stop_index]
        x = remove_mean(bandpass(segment, rate, config.bands[c]))
        filtered.append(x)
        kurt, skew = kurt_skew(x)
        values += [
            float(np.sqrt(np.mean(x * x))),
            float(np.std(x)),
            kurt,
            skew,
            float(np.sum(x * x)),
            shannon_entropy(x, config.entropy_bins),
        ]
    raw_spoke = remove_mean(series.channels[2, window.start_index:window.stop_index])
    values += [
        autocorrelation_peak(filtered[1]).value,
        amplitude_smoothness(filtered[1]),
        float(np.std(filtered[2])),
        kurt_skew(raw_spoke)[0],
    ]
    return np.asarray(values)


def test_single_moment_pass_matches_parent_formulas():
    config = FeatureConfig(include_position_extras=True)
    moment_cols = [2, 3, 8, 9, 14, 15, 21]
    for k, profile in enumerate(builtin_profiles()):
        series = generate(
            GenSpec(profile=profile, duration_s=3.0, sample_rate_hz=1440.0, seed=40 + k)
        )
        for window in segment_windows(series, 1.5, 0.5):
            new = extract_features(series, window, config).values
            old = _parent_formula_features(series, window, config)
            for col in range(22):
                if col in moment_cols:
                    assert abs(new[col] - old[col]) <= 1e-12 * max(1.0, abs(old[col]))
                else:
                    assert new[col] == old[col], (profile.name, col)


def test_one_moment_pass_per_channel(monkeypatch, criterion_01_data):
    calls = []
    original = features._central_moments

    def counting(block):
        calls.append(block.shape[0])
        return original(block)

    monkeypatch.setattr(features, "_central_moments", counting)
    series = tone_series()
    extract_features(series, Window(0, 2160), FeatureConfig())
    assert len(calls) == 3
    calls.clear()
    # the extras add one pass, over the raw spoke channel for spike kurtosis
    extract_features(series, Window(0, 2160), FeatureConfig(include_position_extras=True))
    assert len(calls) == 4
    calls.clear()
    # an 80-window record takes one pass per channel for each block of 16 windows
    extract_feature_matrix(criterion_01_data.records[:1], FeatureConfig())
    assert calls == [16] * 15


def scalar_moments(arr):
    """One row's moments as they were computed one window at a time."""
    energy = float(np.sum(arr * arr))
    centered = arr - arr.mean()
    squared = centered * centered
    m2 = float(np.mean(squared))
    kurt = float(np.mean(squared * squared)) / (m2 * m2) - 3.0
    skew = float(np.mean(squared * centered)) / m2**1.5
    return [math.sqrt(energy / arr.shape[0]), math.sqrt(m2), kurt, skew, energy]


def test_moment_block_bit_identical_to_one_row_at_a_time():
    # Row-wise reductions sum each row as a 1-D reduction does; m2**1.5 is
    # taken as a Python float power, which numpy's vectorized power does
    # not match in the last bit for some inputs.
    rng = np.random.RandomState(33)
    block = rng.randn(200, 2160) * 10.0 ** rng.uniform(-6, 6, (200, 1)) + rng.randn(200, 1)
    moments = features._central_moments(block)
    assert not moments.degenerate.any()
    rows = np.column_stack(moments[:5])
    expected = np.array([scalar_moments(row) for row in block])
    assert np.array_equal(rows.view(np.uint64), expected.view(np.uint64))


def one_window_matrix(series, config):
    windows = segment_windows(series, config.window_seconds, config.overlap)
    return np.vstack([extract_features(series, w, config).values for w in windows])


@pytest.mark.parametrize("extras", [False, True])
def test_blocks_bit_identical_to_one_window_at_a_time(criterion_01_data, extras):
    # Criterion-1 records hold 80 windows each: five full blocks of 16.
    config = FeatureConfig(include_position_extras=extras)
    records = criterion_01_data.records[:2]
    blocks, _, _ = extract_feature_matrix(records, config)
    one_by_one = np.vstack([one_window_matrix(record, config) for record in records])
    assert np.array_equal(blocks.view(np.uint64), one_by_one.view(np.uint64))


def test_partial_last_block_bit_identical_to_one_window_at_a_time():
    # 41 windows: two blocks of 16 and a last one of 9.
    rng = np.random.RandomState(30)
    series = TimeSeries(sample_rate_hz=1440.0, channels=rng.randn(3, 2160 + 40 * 1080))
    config = FeatureConfig(include_position_extras=True)
    blocks, _, _ = extract_feature_matrix([series], config)
    assert blocks.shape == (41, 22)
    one_by_one = one_window_matrix(series, config)
    assert np.array_equal(blocks.view(np.uint64), one_by_one.view(np.uint64))


def test_zero_channel_flags_every_window_of_a_record():
    # 21 windows, blocks of 16 and 5; a silent mid channel has zero variance
    # in each, which the moment pass flags without a RuntimeWarning.
    rng = np.random.RandomState(31)
    channels = rng.randn(3, 2160 + 20 * 1080)
    channels[1] = 0.0
    series = TimeSeries(sample_rate_hz=1440.0, channels=channels)
    windows = segment_windows(series, 1.5, 0.5)
    values, degenerate = features._record_features(series, windows, FeatureConfig())
    assert values.shape == (21, 18) and degenerate.all()
    assert (values[:, [8, 9]] == 0.0).all()  # mid kurtosis and skewness


def test_extraction_memory_does_not_grow_with_record_length():
    # Windows are band-passed 16 at a time, so the working memory is one
    # block's, whatever the record's length.
    rng = np.random.RandomState(32)
    config = FeatureConfig()
    extract_feature_matrix([tone_series()], config)  # fill the transform's root tables
    peaks = []
    for seconds in (60, 120):
        series = TimeSeries(sample_rate_hz=1440.0, channels=rng.randn(3, 1440 * seconds))
        tracemalloc.start()
        try:
            extract_feature_matrix([series], config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 1 << 20, peaks


def test_rms_std_and_energy_are_one_statistic(criterion_01_data):
    # Each window is band-passed and mean-removed before the moment pass, so
    # per channel rms equals std and energy equals n * std**2, to rounding.
    matrix, names = criterion_01_data.matrix, criterion_01_data.names
    record = criterion_01_data.records[0]
    n = record.sample_rate_hz * FeatureConfig().window_seconds
    assert n == 2160
    for c in range(3):
        prefix = f"ch{c + 1}_{features.BAND_NAMES[c]}_"
        rms_, std, energy = (matrix[:, names.index(prefix + s)] for s in ("rms", "std", "energy"))
        assert (np.abs(rms_ - std) <= 1e-15 * rms_).all()
        assert (np.abs(energy - n * std**2) <= 1e-15 * energy).all()
    # So the 18 standardized columns span 15 dimensions: one per duplicate lost.
    standardized = (matrix - matrix.mean(axis=0)) / matrix.std(axis=0)
    assert np.linalg.matrix_rank(standardized) == 15


def test_band_above_nyquist_rejected():
    series = tone_series(rate=720.0)  # Nyquist 360 < default high band edge
    with pytest.raises(ValidationError):
        extract_features(series, Window(0, 1080), FeatureConfig())
    with pytest.raises(ValidationError):
        extract_feature_matrix([series], FeatureConfig())


def test_layout_id_round_trip():
    for config in (
        FeatureConfig(),
        FeatureConfig(entropy_bins=32, include_position_extras=True),
        FeatureConfig(window_seconds=1.0, overlap=0.0),
        FeatureConfig(window_seconds=0.2, overlap=0.75, include_position_extras=True),
        FeatureConfig(window_seconds=1 / 3, overlap=0.1),
    ):
        back = FeatureConfig.from_layout_id(config.layout_id())
        assert back == config
    with pytest.raises(LayoutMismatchError):
        FeatureConfig.from_layout_id("bogus;layout")
    # two bands, a band without ':', a reversed band
    for bands in ("1:50,100:400", "1:50,100,400:700", "1:50,400:100,400:700"):
        with pytest.raises(LayoutMismatchError):
            FeatureConfig.from_layout_id(f"ffv1;bands={bands};entropy_bins=16;extras=0")


def test_layout_id_shape():
    lid = FeatureConfig().layout_id()
    assert lid == (
        "ffv2;bands=1.0:50.0,100.0:400.0,400.0:700.0;entropy_bins=16;extras=0;"
        "window_s=1.5;overlap=0.5"
    )


def test_ffv1_layout_id_reads_as_default_geometry():
    # Files written before the geometry was recorded carry ffv1 ids; they
    # were extracted (and classified) with 1.5 s windows at 0.5 overlap.
    v1 = "ffv1;bands=1.0:50.0,100.0:400.0,400.0:700.0;entropy_bins=16;extras=0"
    config = FeatureConfig.from_layout_id(v1)
    assert (config.window_seconds, config.overlap) == (1.5, 0.5)
    assert config == FeatureConfig()
    assert FeatureConfig.from_layout_id(v1.replace("extras=0", "extras=1")).n_features == 22
    for bad in (
        v1 + ";window_s=1.5;overlap=0.5",  # ffv1 carries no geometry
        FeatureConfig().layout_id().replace(";window_s=1.5", ""),  # ffv2 needs it
        FeatureConfig().layout_id().replace("window_s=1.5", "window_s=x"),
        FeatureConfig().layout_id().replace("overlap=0.5", "overlap=1.0"),
        FeatureConfig().layout_id().replace("window_s=1.5", "window_s=0.0"),
    ):
        with pytest.raises(LayoutMismatchError):
            FeatureConfig.from_layout_id(bad)


def test_extract_feature_matrix_labels_and_shape():
    series = tone_series()
    labeled = TimeSeries(
        sample_rate_hz=series.sample_rate_hz, channels=series.channels, label="t1"
    )
    mat, labels, names = extract_feature_matrix([labeled], FeatureConfig())
    assert mat.shape == (3, 18)  # 4320 samples -> windows at 0, 1080, 2160
    assert labels == ["t1", "t1", "t1"]
    assert names == FeatureConfig().feature_names()


def test_extract_feature_matrix_empty():
    with pytest.raises(EmptyInputError):
        extract_feature_matrix([], FeatureConfig())


def test_feature_config_validation():
    with pytest.raises(ValidationError):
        FeatureConfig(entropy_bins=1)
    with pytest.raises(ValidationError):
        FeatureConfig(bands=(DEFAULT_BANDS[0], DEFAULT_BANDS[1]))


def test_extract_feature_matrix_windows_by_config_geometry():
    series = tone_series()  # 4320 samples at 1440 Hz
    config = FeatureConfig(window_seconds=0.5, overlap=0.0)
    mat, _, _ = extract_feature_matrix([series], config)
    windows = segment_windows(series, 0.5, 0.0)
    assert len(windows) == 6 and mat.shape == (6, 18)
    expected = np.vstack([extract_features(series, w, config).values for w in windows])
    np.testing.assert_array_equal(mat, expected)


def test_feature_config_accepts_numpy_bool_extras():
    assert FeatureConfig(include_position_extras=np.bool_(True)).n_features == 22
    stored = FeatureConfig(include_position_extras=np.bool_(False)).include_position_extras
    assert stored is False
