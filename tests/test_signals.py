"""Fourier transform, band-pass mask, and window segmentation tests.

The independent oracle throughout is the direct O(n^2) DFT written from
the definition; the fast path must agree with it to 1e-9 relative.  The
four-step transform is also checked against the self-sorting radix-2 loop
it replaced (``stockham_fft``), and the real-input transforms against the
full-length complex path they replaced, kept below as ``complex_*``.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from spokesense import features, signals
from spokesense.errors import EmptyInputError, ValidationError
from spokesense.features import (
    AutocorrPeak,
    FeatureConfig,
    autocorrelation_peak,
    extract_feature_matrix,
)
from spokesense.signals import (
    BandSpec,
    Spectrum,
    TimeSeries,
    Window,
    bandpass,
    check_window,
    dft_magnitude,
    fft_radix2,
    ifft_radix2,
    next_pow2,
    remove_mean,
    segment_windows,
    window_geometry,
    _irfft,
    _padded_rfft,
)


@functools.cache
def dft_basis(n: int) -> np.ndarray:
    """exp(-2 pi i j k / n), built once per length; read-only."""
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    basis.flags.writeable = False
    return basis


def direct_dft(x: np.ndarray) -> np.ndarray:
    """Brute-force DFT from the definition; the oracle for every fast path."""
    return dft_basis(x.shape[0]) @ x.astype(np.complex128)


def make_series(n: int, rate: float = 720.0, seed: int = 0, label=None) -> TimeSeries:
    rng = np.random.RandomState(seed)
    return TimeSeries(sample_rate_hz=rate, channels=rng.randn(3, n), label=label)


# -------------------------------------------------------------- fft core


def test_fft_matches_direct_dft_all_pow2_sizes():
    rng = np.random.RandomState(7)
    for n in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
        x = rng.randn(n)
        fast = fft_radix2(x)
        slow = direct_dft(x)
        scale = np.abs(slow).max()
        assert np.abs(fast - slow).max() <= 1e-9 * max(scale, 1.0)


def test_fft_matches_direct_dft_complex_input():
    rng = np.random.RandomState(8)
    x = rng.randn(64) + 1j * rng.randn(64)
    fast = fft_radix2(x)
    slow = direct_dft(x)
    assert np.abs(fast - slow).max() <= 1e-9 * np.abs(slow).max()


def test_fft_rejects_non_pow2_and_empty():
    with pytest.raises(ValidationError):
        fft_radix2(np.zeros(12))
    with pytest.raises(EmptyInputError):
        fft_radix2(np.zeros(0))


def test_ifft_inverts_fft():
    rng = np.random.RandomState(9)
    for n in (2, 16, 256):
        x = rng.randn(n) + 1j * rng.randn(n)
        back = ifft_radix2(fft_radix2(x))
        assert np.abs(back - x).max() <= 1e-9 * max(1.0, np.abs(x).max())


def test_fft_linearity():
    rng = np.random.RandomState(10)
    x, y = rng.randn(128), rng.randn(128)
    a, b = 2.5, -1.25
    lhs = fft_radix2(a * x + b * y)
    rhs = a * fft_radix2(x) + b * fft_radix2(y)
    assert np.abs(lhs - rhs).max() <= 1e-9 * np.abs(rhs).max()


def test_parseval_identity():
    rng = np.random.RandomState(11)
    for n in (8, 64, 512):
        x = rng.randn(n)
        spectrum = fft_radix2(x)
        time_energy = np.sum(x * x)
        freq_energy = np.sum(np.abs(spectrum) ** 2) / n
        assert abs(time_energy - freq_energy) <= 1e-9 * time_energy


def test_next_pow2():
    assert next_pow2(1) == 1
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(1024) == 1024
    assert next_pow2(1025) == 2048
    with pytest.raises(ValidationError):
        next_pow2(0)


# -------------------------------------------------------- dft_magnitude


def test_dft_magnitude_constant_signal():
    spec = dft_magnitude(np.full(8, 2.5), 8.0)
    assert abs(spec.magnitudes[0] - 8 * 2.5) <= 1e-9
    assert np.abs(spec.magnitudes[1:]).max() <= 1e-9


def test_dft_magnitude_single_tone_on_bin():
    n, fs = 256, 256.0
    k = 12
    t = np.arange(n)
    x = np.sin(2 * np.pi * k * t / n)
    spec = dft_magnitude(x, fs)
    assert abs(spec.magnitudes[k] - n / 2) <= 1e-9
    others = np.delete(spec.magnitudes, k)
    assert others.max() <= 1e-9


def test_dft_magnitude_matches_direct_oracle_criterion():
    # Acceptance criterion 3: 200 random signals, n in [8, 1024]; the fast
    # transform must equal the direct DFT of the zero-padded input.
    rng = np.random.RandomState(42)
    for trial in range(200):
        n = int(rng.randint(8, 1025))
        x = rng.randn(n)
        spec = dft_magnitude(x, 1000.0)
        padded = np.zeros(next_pow2(n))
        padded[:n] = x
        oracle = np.abs(direct_dft(padded))[: next_pow2(n) // 2 + 1]
        scale = max(1.0, oracle.max())
        assert np.abs(spec.magnitudes - oracle).max() <= 1e-9 * scale
        assert spec.bin_resolution_hz == 1000.0 / next_pow2(n)


def test_dft_magnitude_rejects_bad_input():
    with pytest.raises(ValidationError):
        dft_magnitude([1.0, np.nan], 10.0)
    with pytest.raises(ValidationError):
        dft_magnitude([1.0, 2.0], -5.0)
    with pytest.raises(ValidationError):
        dft_magnitude([1.0], 10.0)


def test_spectrum_frequencies():
    spec = Spectrum(bin_resolution_hz=2.0, magnitudes=np.zeros(4))
    assert np.array_equal(spec.frequencies_hz, [0.0, 2.0, 4.0, 6.0])


# -------------------------------------------------------------- bandpass


def test_bandpass_passes_in_band_tone():
    fs, n = 1440.0, 4096
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * 200.0 * t)
    y = bandpass(x, fs, BandSpec(100.0, 300.0))
    rms_in = np.sqrt(np.mean(x * x))
    rms_out = np.sqrt(np.mean(y * y))
    assert abs(rms_out - rms_in) <= 0.01 * rms_in


def test_bandpass_rejects_out_of_band_tone():
    fs, n = 1440.0, 4096
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * 20.0 * t)
    y = bandpass(x, fs, BandSpec(400.0, 700.0))
    assert np.sqrt(np.mean(y * y)) <= 0.01 * np.sqrt(np.mean(x * x))


def test_bandpass_zero_signal():
    y = bandpass(np.zeros(64), 720.0, BandSpec(1.0, 50.0))
    assert np.abs(y).max() == 0.0


def test_bandpass_removes_dc_unless_low_is_zero():
    x = np.full(128, 3.0)
    gone = bandpass(x, 128.0, BandSpec(1.0, 50.0))
    assert np.abs(gone).max() <= 1e-9
    kept = bandpass(x, 128.0, BandSpec(0.0, 50.0))
    assert np.abs(kept - 3.0).max() <= 1e-9


def test_bandpass_idempotent_at_pow2_lengths():
    rng = np.random.RandomState(12)
    for n in (64, 256, 1024):
        x = rng.randn(n)
        band = BandSpec(10.0, 60.0)
        once = bandpass(x, 200.0, band)
        twice = bandpass(once, 200.0, band)
        scale = max(1.0, np.abs(once).max())
        assert np.abs(twice - once).max() <= 1e-9 * scale


def test_bandpass_linear():
    rng = np.random.RandomState(13)
    x, y = rng.randn(512), rng.randn(512)
    a, b = 1.75, -0.5
    band = BandSpec(5.0, 40.0)
    lhs = bandpass(a * x + b * y, 128.0, band)
    rhs = a * bandpass(x, 128.0, band) + b * bandpass(y, 128.0, band)
    assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())


def test_bandpass_matches_direct_mask_oracle():
    # Oracle: mask the direct DFT and invert with the conjugate direct DFT.
    rng = np.random.RandomState(14)
    n, fs = 256, 512.0
    x = rng.randn(n)
    band = BandSpec(30.0, 100.0)
    spectrum = direct_dft(x)
    k = np.arange(n)
    freqs = np.minimum(k, n - k) * (fs / n)
    mask = (freqs >= band.low_hz) & (freqs <= band.high_hz)
    oracle = np.conj(direct_dft(np.conj(spectrum * mask))).real / n
    y = bandpass(x, fs, band)
    assert np.abs(y - oracle).max() <= 1e-9 * max(1.0, np.abs(oracle).max())


def test_bandpass_output_real_and_same_length():
    rng = np.random.RandomState(15)
    x = rng.randn(999)  # not a power of two
    y = bandpass(x, 720.0, BandSpec(1.0, 50.0))
    assert y.shape == x.shape
    assert y.dtype == np.float64


def test_bandpass_band_above_nyquist_rejected():
    with pytest.raises(ValidationError):
        bandpass(np.zeros(16), 720.0, BandSpec(100.0, 400.0))


def test_band_spec_validation():
    with pytest.raises(ValidationError):
        BandSpec(50.0, 50.0)
    with pytest.raises(ValidationError):
        BandSpec(-1.0, 50.0)
    with pytest.raises(ValidationError):
        BandSpec(np.inf, np.inf)


# ------------------------------------- real-input transforms vs complex path


def loop_fft(x):
    """The bit-reversed decimation-in-time loop (copied even half) that the
    self-sorting loop below replaced; bit reversal and twiddles rebuilt from
    their formulas."""
    out = np.asarray(x, dtype=np.complex128).copy()
    n = out.shape[0]
    levels = n.bit_length() - 1
    idx = np.arange(n)
    perm = np.zeros(n, dtype=np.int64)
    for b in range(levels):
        perm |= ((idx >> b) & 1) << (levels - 1 - b)
    out = out[perm]
    half = 1
    while half < n:
        tw = np.exp(-2j * np.pi * np.arange(half) / (2 * half))
        pairs = out.reshape(-1, 2 * half)
        even = pairs[:, :half].copy()
        odd = pairs[:, half:] * tw
        pairs[:, :half] = even + odd
        pairs[:, half:] = even - odd
        half *= 2
    return out


@functools.cache
def stockham_twiddles(n: int) -> tuple[np.ndarray, ...]:
    """Butterfly twiddles exp(-2 pi i k / 2m), k < m, of each stage m < n."""
    return tuple(
        np.exp(-2j * np.pi * np.arange(1 << b) / (2 << b)) for b in range(n.bit_length() - 1)
    )


def stockham_fft(x):
    """The self-sorting radix-2 loop the four-step transform replaced: column
    s of the (m, n/m) block is the m-point transform of x[s::n/m]; stage m
    merges columns s and s + n/2m into column s of a (2m, n/2m) block in the
    other buffer.  Bit-identical to ``loop_fft``."""
    arr = np.array(x, dtype=np.complex128)
    spare = np.empty_like(arr)
    for tw in stockham_twiddles(arr.shape[0]):
        m = tw.shape[0]
        block = arr.reshape(m, -1)
        half = block.shape[1] // 2
        out = spare.reshape(2 * m, half)
        odd = np.multiply(block[:, half:], tw[:, None], out=out[m:])
        np.add(block[:, :half], odd, out=out[:m])
        np.subtract(block[:, :half], odd, out=odd)
        arr, spare = spare, arr
    return arr


def zero_padded(x, n):
    padded = np.zeros(n)
    padded[: x.shape[0]] = x
    return padded


def complex_dft_magnitude(x, fs):
    n = next_pow2(x.shape[0])
    return np.abs(fft_radix2(zero_padded(x, n))[: n // 2 + 1])


def complex_bandpass(x, fs, band):
    n = next_pow2(x.shape[0])
    spectrum = fft_radix2(zero_padded(x, n))
    k = np.arange(n)
    freqs = np.minimum(k, n - k) * (fs / n)
    mask = (freqs >= band.low_hz) & (freqs <= band.high_hz)
    return ifft_radix2(spectrum * mask).real[: x.shape[0]]


def complex_autocorrelation_peak(x, min_lag=1):
    centered = x - x.mean()
    denom = float(np.sum(centered * centered))
    n = centered.shape[0]
    padded = zero_padded(centered, next_pow2(2 * n))
    power = np.abs(fft_radix2(padded)) ** 2
    corr = ifft_radix2(power).real[:n] / denom
    for lag in range(min_lag, n - 1):
        if corr[lag] > corr[lag - 1] and corr[lag] >= corr[lag + 1]:
            return AutocorrPeak(lag=lag, value=float(corr[lag]), found=True)
    return AutocorrPeak(lag=0, value=1.0, found=False)


REAL_LENGTHS = (2, 3, 5, 2160, 4096, 5000, 86400)


def test_fft_matches_stockham_oracle():
    # Complex, real and strided inputs from length 1 to 2^17; the oracle is
    # bit-identical to the bit-reversed loop, and the transform never
    # writes into its input.
    rng = np.random.RandomState(20)
    for levels in range(18):
        n = 1 << levels
        wide = rng.randn(2 * n) + 1j * rng.randn(2 * n)
        for x in (wide[:n].copy(), rng.randn(n), wide[::2]):
            before = x.copy()
            oracle = stockham_fft(x)
            assert np.array_equal(oracle.view(np.uint64), loop_fft(x).view(np.uint64))
            fast = fft_radix2(x)
            assert np.abs(fast - oracle).max() <= 1e-12 * np.abs(oracle).max(), (n, x.dtype)
            assert np.array_equal(x, before), (n, x.dtype)


def test_fft_working_memory_within_oracle():
    # One copy of the input and one output buffer, forward or inverse: the
    # traced peak of a call, root tables already cached, is no higher than
    # the radix-2 loop's.
    rng = np.random.RandomState(26)
    for levels in (16, 17):
        x = rng.randn(1 << levels) + 1j * rng.randn(1 << levels)
        peaks = {}
        for transform in (fft_radix2, ifft_radix2, stockham_fft):
            transform(x)
            tracemalloc.start()
            try:
                transform(x)
                peaks[transform.__name__] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["fft_radix2"] <= peaks["stockham_fft"], (levels, peaks)
        assert peaks["ifft_radix2"] <= peaks["stockham_fft"], (levels, peaks)


def test_features_match_stockham_path(monkeypatch, criterion_01_data):
    # Criterion-1 data extracted as shipped and with the radix-2 loop, row by
    # row, in place of the block transform.  Entropy is a step function of
    # its input: a filtered value within rounding of a bin edge can change
    # bins and move a cell by about 1e-3 bits, so moved entropy cells are
    # counted instead.
    new, names = criterion_01_data.matrix, criterion_01_data.names
    blocks = []

    def stockham_rows(z, inverse=False):
        blocks.append(z.shape)
        rows = np.conj(z) if inverse else z
        out = np.array([stockham_fft(row) for row in rows.reshape(-1, z.shape[-1])])
        return np.conj(out).reshape(z.shape) / z.shape[-1] if inverse else out.reshape(z.shape)

    monkeypatch.setattr(signals, "_fft_rows", stockham_rows)
    old, _, _ = extract_feature_matrix(criterion_01_data.records, FeatureConfig())
    # 5 records x 5 blocks of 16 windows x 3 channels, a forward and an
    # inverse transform each: every transform of the extraction ran patched.
    assert blocks == [(16, 2048)] * 150
    entropy = np.array(["entropy" in name for name in names])
    scale = np.abs(old[:, ~entropy]).max(axis=0)
    assert (np.abs(new[:, ~entropy] - old[:, ~entropy]).max(axis=0) <= 1e-13 * scale).all()
    moved = np.count_nonzero(new[:, entropy] != old[:, entropy])
    assert moved <= 0.01 * old[:, entropy].size, moved


def test_bandpass_rows_match_one_row_bandpass():
    rng = np.random.RandomState(27)
    block = rng.randn(20, 2160) * 10.0 ** rng.uniform(-3, 3, (20, 1)) + rng.randn(20, 1)
    for band in (BandSpec(1.0, 50.0), BandSpec(100.0, 400.0), BandSpec(0.0, 720.0)):
        rows = signals._bandpass_rows(block, 1440.0, band)
        one_by_one = np.array([bandpass(row, 1440.0, band) for row in block])
        assert rows.shape == block.shape
        assert np.array_equal(rows.view(np.uint64), one_by_one.view(np.uint64)), band


def test_rfft_round_trip():
    rng = np.random.RandomState(21)
    for levels in range(1, 18):
        x = rng.randn(1 << levels) * 10.0 ** rng.uniform(-3, 3)
        before = x.copy()
        spectrum = _padded_rfft(x, x.shape[0])  # pads x into a buffer of its own
        assert np.array_equal(x.view(np.uint64), before.view(np.uint64))
        assert spectrum.shape == (x.shape[0] // 2 + 1,)
        assert np.abs(_irfft(spectrum) - x).max() <= 1e-12 * np.abs(x).max()


def test_rfft_matches_complex_transform():
    rng = np.random.RandomState(22)
    for levels in range(1, 18):
        x = rng.randn(1 << levels)
        full = loop_fft(x)[: x.shape[0] // 2 + 1]
        assert np.abs(_padded_rfft(x, x.shape[0]) - full).max() <= 1e-12 * np.abs(full).max()


def test_dft_magnitude_matches_complex_path():
    # Magnitudes grow with the length (a DC offset piles up n |mean| in bin
    # 0), so the bound is relative to the largest magnitude, not to max|x|.
    rng = np.random.RandomState(23)
    for n in REAL_LENGTHS:
        for offset in (0.0, 5.0):
            x = rng.randn(n) + offset
            fast = dft_magnitude(x, 720.0).magnitudes
            slow = complex_dft_magnitude(x, 720.0)
            assert fast.shape == slow.shape
            assert np.abs(fast - slow).max() <= 1e-12 * slow.max(), (n, offset)


def test_bandpass_matches_complex_path_dc_and_nyquist_bands():
    rng = np.random.RandomState(24)
    fs = 720.0
    bands = (
        BandSpec(0.0, fs / 2),  # every bin, DC and Nyquist included
        BandSpec(0.0, 50.0),  # DC kept
        BandSpec(100.0, fs / 2),  # Nyquist kept
        BandSpec(1.0, 50.0),
        BandSpec(fs / 4, fs / 2 - 1e-9),  # stops just short of Nyquist
    )
    for n in REAL_LENGTHS:
        x = rng.randn(n) + rng.randn()
        for band in bands:
            fast = bandpass(x, fs, band)
            slow = complex_bandpass(x, fs, band)
            assert fast.shape == slow.shape
            assert np.abs(fast - slow).max() <= 1e-12 * np.abs(x).max(), (n, band)


def test_autocorrelation_matches_complex_path():
    rng = np.random.RandomState(25)
    t = np.arange(86400)
    for n in REAL_LENGTHS[3:] + (8, 9, 64):
        signals = (
            rng.randn(n),
            np.sin(2 * np.pi * t[:n] / 37.0) + 0.3 * rng.randn(n),
            np.exp(-t[:n] / 4.0),
        )
        for x in signals:
            fast = autocorrelation_peak(x)
            slow = complex_autocorrelation_peak(x)
            assert (fast.lag, fast.found) == (slow.lag, slow.found), n
            assert abs(fast.value - slow.value) <= 1e-12, n


def test_autocorr_peak_rows_match_complex_path(criterion_01_data):
    # Every criterion-1 window's mid band, band-passed and mean-removed as extraction
    # hands it to the extras, each record's windows as one block.
    config = FeatureConfig()
    rows = 0
    for record in criterion_01_data.records:
        windows = segment_windows(record, config.window_seconds, config.overlap)
        block = np.array([
            remove_mean(bandpass(record.channels[1, w.start_index:w.stop_index],
                                 record.sample_rate_hz, config.bands[1]))
            for w in windows
        ])
        lags, values, flat = features._autocorr_peak_rows(block)
        assert not flat.any()
        for row, lag, value in zip(block, lags, values):
            slow = complex_autocorrelation_peak(row)
            assert (lag, lag > 0) == (slow.lag, slow.found)
            assert abs(value - slow.value) <= 1e-12
        rows += len(block)
    assert rows == 400


def test_autocorr_peak_rows_mixed_block_match_one_row_calls():
    # A peak within the direct lags, two rows that take the transform (a first
    # peak at lag 64, and none at all) and a constant row, in one block.
    rng = np.random.RandomState(28)
    t = np.arange(2160)
    block = np.array([
        np.sin(2 * np.pi * t / 6.0) + 0.3 * rng.randn(2160),
        np.sin(2 * np.pi * t / 64.0),
        np.exp(-t / 40.0),
        np.full(2160, 3.0),
    ])
    lags, values, flat = features._autocorr_peak_rows(block)
    assert lags.tolist() == [6, 64, 0, 0]
    assert flat.tolist() == [False, False, False, True]
    assert values[3] == 1.0
    for k, row in enumerate(block):
        one_lags, one_values, one_flat = features._autocorr_peak_rows(block[k:k + 1])
        assert (one_lags[0], one_flat[0]) == (lags[k], flat[k]), k
        assert one_values.view(np.uint64)[0] == values.view(np.uint64)[k], k
        if not flat[k]:
            peak = autocorrelation_peak(row)
            assert peak == (lags[k], values[k], lags[k] > 0), k
            assert np.float64(peak.value).view(np.uint64) == values.view(np.uint64)[k], k


def test_extras_transform_only_band_passes(monkeypatch, criterion_01_data):
    # With the extras on, an extraction's only transforms are its band-passes: one
    # per channel and block of 16 windows, and none per window for the autocorrelation.
    calls = []
    padded_rfft = signals._padded_rfft

    def spy(arr, padded_n):
        calls.append((arr.shape, padded_n))
        return padded_rfft(arr, padded_n)

    for module in (signals, features):
        monkeypatch.setattr(module, "_padded_rfft", spy)
    config = FeatureConfig(include_position_extras=True)
    matrix, _, _ = extract_feature_matrix(criterion_01_data.records, config)
    assert matrix.shape == (400, 22)
    # 5 records x 5 blocks of 16 windows x 3 channels
    assert calls == [((16, 2160), 4096)] * 75


# ------------------------------------------------------------ remove_mean


def test_remove_mean_examples():
    assert np.array_equal(remove_mean([1.0, 1.0, 1.0]), [0.0, 0.0, 0.0])
    assert np.array_equal(remove_mean([0.0, 2.0]), [-1.0, 1.0])


def test_remove_mean_random():
    rng = np.random.RandomState(16)
    for _ in range(20):
        x = rng.randn(int(rng.randint(1, 300))) * 10
        out = remove_mean(x)
        assert abs(out.mean()) <= 1e-12 * max(1.0, np.abs(x).max())


# ------------------------------------------------------------ segmentation


def test_segment_windows_paper_example():
    # 9500 samples at 720 Hz, 1.5 s windows, no overlap -> 8 windows of 1080.
    series = make_series(9500, rate=720.0)
    windows = segment_windows(series, 1.5, 0.0)
    assert len(windows) == 8
    assert all(w.length == 1080 for w in windows)
    assert [w.start_index for w in windows] == [1080 * i for i in range(8)]


def test_segment_windows_exact_fit():
    series = make_series(2000, rate=1000.0)
    windows = segment_windows(series, 2.0, 0.0)
    assert len(windows) == 1
    assert windows[0] == Window(start_index=0, length=2000)


def test_segment_windows_half_overlap_starts():
    # 100 samples, 40-sample window, overlap 0.5 -> starts 0, 20, 40, 60.
    series = make_series(100, rate=1.0)
    windows = segment_windows(series, 40.0, 0.5)
    assert [w.start_index for w in windows] == [0, 20, 40, 60]
    assert all(w.length == 40 for w in windows)


def test_segment_windows_too_short():
    series = make_series(100, rate=720.0)
    with pytest.raises(EmptyInputError):
        segment_windows(series, 1.5, 0.0)


def test_segment_windows_within_bounds():
    rng = np.random.RandomState(17)
    for _ in range(30):
        n = int(rng.randint(50, 3000))
        series = make_series(n, rate=100.0, seed=int(rng.randint(1000)))
        seconds = float(rng.uniform(0.05, 5.0))
        overlap = float(rng.uniform(0.0, 0.95))
        try:
            windows = segment_windows(series, seconds, overlap)
        except (EmptyInputError, ValidationError):
            continue
        assert windows, "segment_windows returned no windows without raising"
        for w in windows:
            assert 0 <= w.start_index
            assert w.stop_index <= n
        strides = {
            b.start_index - a.start_index for a, b in zip(windows, windows[1:])
        }
        assert len(strides) <= 1  # equally strided


def test_window_geometry_stride_floor():
    length, stride = window_geometry(720.0, 1.5, 0.0)
    assert (length, stride) == (1080, 1080)
    length, stride = window_geometry(720.0, 1.5, 0.5)
    assert (length, stride) == (1080, 540)
    # floor, not round: 0.9 overlap of 1080 -> 108
    length, stride = window_geometry(720.0, 1.5, 0.9)
    assert (length, stride) == (1080, 108)
    # stride clamps to 1 for extreme overlap
    _, stride = window_geometry(10.0, 1.0, 0.99)
    assert stride == 1


def test_window_geometry_validation():
    with pytest.raises(ValidationError):
        window_geometry(720.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        window_geometry(720.0, 1.5, 1.0)
    with pytest.raises(ValidationError):
        window_geometry(1.0, 1.0, 0.0)  # one-sample window


# ------------------------------------------------------------- validation


def test_time_series_validation():
    with pytest.raises(ValidationError):
        TimeSeries(sample_rate_hz=0.0, channels=np.zeros((3, 4)))
    with pytest.raises(ValidationError):
        TimeSeries(sample_rate_hz=10.0, channels=np.zeros((2, 4)))
    with pytest.raises(EmptyInputError):
        TimeSeries(sample_rate_hz=10.0, channels=np.zeros((3, 0)))
    bad = np.zeros((3, 4))
    bad[1, 2] = np.nan
    with pytest.raises(ValidationError):
        TimeSeries(sample_rate_hz=10.0, channels=bad)


def test_window_validation():
    with pytest.raises(ValidationError):
        Window(start_index=-1, length=10)
    with pytest.raises(ValidationError):
        Window(start_index=0, length=1)
    series = make_series(100)
    with pytest.raises(ValidationError):
        check_window(series, Window(start_index=90, length=20))
