"""Sampled vibration records, windowing, Fourier analysis, and band filtering.

Records carry three synchronized sensor channels at a single sample rate.
Spectral operations zero-pad to the next power of two and use a four-step
transform (Bailey, "FFTs in external or hierarchical memory", J.
Supercomputing 1990) whose legs of at most 64 points are matrix products
with cached DFT matrices; bin resolutions reflect the padded length.  The
products run in the BLAS numpy links (OpenBLAS ``zgemm``), so results are
bit-reproducible on one machine, not across CPU models.  Real signals are
transformed at half length: the N real samples are read as N/2 complex
ones, transformed by one N/2-point FFT and split into bins 0..N/2
(Sorensen et al., IEEE TASSP 1987); the inverse merges the bins back and
makes one N/2-point inverse FFT.  Band-pass filtering is zero-phase: a
frequency-domain mask over bins 0..N/2 keeps the output real, and the
result is truncated back to the input length.  These steps work on each row
of a block: ``features`` band-passes 16 windows at a time, one batched
matmul per leg instead of 16 calls, with the bits of each row unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, ValidationError, _count, _finite_array, _positive

N_CHANNELS = 3
DEFAULT_WINDOW_SECONDS = 1.5
DEFAULT_OVERLAP = 0.5


@dataclass(eq=False)
class TimeSeries:
    """A labeled multi-channel vibration record sampled at a fixed rate."""

    sample_rate_hz: float
    channels: np.ndarray  # shape (3, n)
    label: str | None = None

    def __post_init__(self):
        self.sample_rate_hz = _positive(self.sample_rate_hz, "sample rate")
        self.channels = _finite_array(self.channels, "channels", (N_CHANNELS, None))

    @property
    def n_samples(self) -> int:
        return self.channels.shape[1]


@dataclass(frozen=True)
class Window:
    """Half-open sample range [start_index, start_index + length)."""

    start_index: int
    length: int

    def __post_init__(self):
        object.__setattr__(self, "start_index", _count(self.start_index, "window start", 0))
        object.__setattr__(self, "length", _count(self.length, "window length", 2))

    @property
    def stop_index(self) -> int:
        return self.start_index + self.length


def check_window(series: TimeSeries, window: Window) -> None:
    if window.stop_index > series.n_samples:
        raise ValidationError(
            f"window [{window.start_index}, {window.stop_index}) exceeds record "
            f"length {series.n_samples}"
        )


@dataclass(frozen=True)
class BandSpec:
    """Frequency band [low_hz, high_hz], inclusive at both edges."""

    low_hz: float
    high_hz: float

    def __post_init__(self):
        low = _positive(self.low_hz, "band low edge", zero_ok=True)
        high = _positive(self.high_hz, "band high edge")
        if not low < high:
            raise ValidationError(f"band low edge must be below high edge, got [{low}, {high}]")
        object.__setattr__(self, "low_hz", low)
        object.__setattr__(self, "high_hz", high)

    def check_nyquist(self, sample_rate_hz: float) -> None:
        if self.high_hz > sample_rate_hz / 2.0:
            raise ValidationError(
                f"band high edge {self.high_hz} Hz exceeds Nyquist "
                f"{sample_rate_hz / 2.0} Hz at {sample_rate_hz} Hz sampling"
            )


@dataclass(eq=False)
class Spectrum:
    """One-sided magnitude spectrum; bin k sits at k * bin_resolution_hz."""

    bin_resolution_hz: float
    magnitudes: np.ndarray

    @property
    def frequencies_hz(self) -> np.ndarray:
        return np.arange(self.magnitudes.shape[0]) * self.bin_resolution_hz


def next_pow2(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    return 1 << (_count(n, "next_pow2 input", 1) - 1).bit_length()


_LEAF_LEVELS = 6  # a leaf transform of at most 2^6 = 64 points is one matmul
_ROOTS_CACHE: dict[tuple[int, range, int], np.ndarray] = {}


def _roots(n: int, rows: range, cols: int) -> np.ndarray:
    """exp(-2 pi i (j k mod n) / n) for j in ``rows`` and k < ``cols``, cached.
    Reducing the exponent first keeps every angle below 2 pi, so the error
    of a root does not grow with j k."""
    key = (n, rows, cols)
    table = _ROOTS_CACHE.get(key)
    if table is None:
        exponents = np.outer(rows, np.arange(cols)) % n
        table = _ROOTS_CACHE[key] = np.exp(-2j * np.pi * exponents / n)
    return table


def _fft(x: np.ndarray, out: np.ndarray) -> None:
    """Transform the last axis of the C-contiguous (..., n) block ``x`` into
    ``out``, overwriting ``x``.  Four-step (Bailey 1990): read a row as an
    (n1, m) matrix, j = m j1 + j2 and k = k1 + n1 k2; transform the columns,
    multiply by W_n^(k1 j2), transform the rows (recursively, into ``x``) and
    read the result transposed.  Legs of at most 64 points are matmuls with
    a DFT matrix, and n1 splits the levels of n evenly over them."""
    n = x.shape[-1]
    if n <= 1 << _LEAF_LEVELS:
        np.matmul(x, _roots(n, range(n), n), out=out)
        return
    levels = n.bit_length() - 1
    legs = -(-levels // _LEAF_LEVELS)
    n1 = 1 << -(-levels // legs)
    m = n // n1
    cols = x.reshape(*x.shape[:-1], n1, m)
    rows = out.reshape(cols.shape)
    np.matmul(_roots(n1, range(n1), n1), cols, out=rows)
    rows *= _roots(n, range(n1), m)
    _fft(rows, cols)
    np.copyto(out.reshape(*x.shape[:-1], m, n1), cols.swapaxes(-1, -2))


def _transform_copy(x) -> np.ndarray:
    """A complex copy of ``x``, checked to be one-dimensional, non-empty and
    of power-of-two length: the one buffer a transform may overwrite."""
    try:
        arr = np.array(x, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"transform input is not a numeric array: {exc}") from None
    if arr.ndim != 1:
        raise ValidationError(f"transform input must be one-dimensional, got shape {arr.shape}")
    n = arr.shape[0]
    if n == 0:
        raise EmptyInputError("transform input is empty")
    if n & (n - 1):
        raise ValidationError(f"transform length must be a power of two, got {n}")
    return arr


def _fft_rows(z: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Transform of each row of the C-contiguous complex (..., n) block ``z``,
    or with ``inverse`` its inverse via conjugation; overwrites ``z``."""
    out = np.empty_like(z)
    _fft(np.conj(z, out=z) if inverse else z, out)
    if inverse:
        np.conj(out, out=out)
        out /= z.shape[-1]
    return out


def fft_radix2(x) -> np.ndarray:
    """Full complex spectrum of ``x`` (power-of-two length) by the four-step
    recursion of ``_fft`` on a copy of ``x`` and one output buffer."""
    return _fft_rows(_transform_copy(x))


def ifft_radix2(x) -> np.ndarray:
    """Inverse of fft_radix2 via conjugation, in the same two buffers."""
    return _fft_rows(_transform_copy(x), inverse=True)


def _split_twiddles(n: int) -> np.ndarray:
    """exp(-2 pi i k / n) for k < n/2: the split step of a real n-point transform."""
    return _roots(n, range(1, 2), n // 2)[0]


def _padded_rfft(arr: np.ndarray, padded_n: int) -> np.ndarray:
    """Bins 0..padded_n/2 of each row of ``arr`` zero-padded to ``padded_n``,
    a power of two >= 2, from one padded_n/2-point complex transform plus a
    split step.  ``arr`` is left as it was."""
    half = padded_n // 2
    padded = np.zeros((*arr.shape[:-1], padded_n), dtype=np.float64)
    padded[..., : arr.shape[-1]] = arr
    # z[m] = x[2m] + i x[2m+1] in place: the padded buffer is the transform's scratch, then mirror
    mirror = padded.view(np.complex128)
    z = _fft_rows(mirror)
    nyquist = z[..., 0].real - z[..., 0].imag
    # mirror[k] = conj(z[(half - k) % half])
    mirror[..., 0] = z[..., 0]
    mirror[..., 1:] = z[..., :0:-1]
    np.conj(mirror, out=mirror)
    # X[k] = (z[k] + mirror[k]) / 2 - (i/2) w^k (z[k] - mirror[k])
    spec = np.empty((*z.shape[:-1], half + 1), dtype=np.complex128)
    np.add(z, mirror, out=spec[..., :half])
    spec[..., :half] *= 0.5
    z -= mirror
    z *= _split_twiddles(padded_n)
    z *= -0.5j
    spec[..., :half] += z
    spec[..., half] = nyquist
    return spec


def _irfft(spec: np.ndarray) -> np.ndarray:
    """Real N-point inverse of bins 0..N/2 of each row (N a power of two
    >= 2), from a merge step plus one N/2-point complex inverse transform."""
    spec = np.asarray(spec, dtype=np.complex128)
    half = spec.shape[-1] - 1
    # tail[k] = conj(X[half - k]) for k < half
    tail = np.conj(spec[..., half:0:-1])
    # Z[k] = (X[k] + tail[k]) / 2 + (i/2) conj(w^k) (X[k] - tail[k])
    diff = spec[..., :half] - tail
    diff *= np.conj(_split_twiddles(2 * half))
    diff *= 0.5j
    tail += spec[..., :half]
    tail *= 0.5
    tail += diff
    del diff
    # z[m] = x[2m] + i x[2m+1]
    return _fft_rows(tail, inverse=True).view(np.float64)


def dft_magnitude(samples, sample_rate_hz: float) -> Spectrum:
    """One-sided magnitude spectrum of a zero-padded window.

    The input is zero-padded to the next power of two N; bins 0..N/2 are
    returned with resolution sample_rate_hz / N.
    """
    arr = _finite_array(samples, "samples", (None,), min_len=2)
    rate = _positive(sample_rate_hz, "sample rate")
    padded_n = next_pow2(arr.shape[0])
    magnitudes = np.abs(_padded_rfft(arr, padded_n))
    return Spectrum(bin_resolution_hz=rate / padded_n, magnitudes=magnitudes)


def _bandpass_rows(block: np.ndarray, rate: float, band: BandSpec) -> np.ndarray:
    """``bandpass`` of each row of the finite float64 (rows, n) block, as a
    new C-contiguous block."""
    band.check_nyquist(rate)
    n = block.shape[-1]
    padded_n = next_pow2(n)
    spectrum = _padded_rfft(block, padded_n)
    freqs = np.arange(padded_n // 2 + 1) * (rate / padded_n)
    spectrum *= (freqs >= band.low_hz) & (freqs <= band.high_hz)
    return _irfft(spectrum)[..., :n].copy()


def bandpass(samples, sample_rate_hz: float, band: BandSpec) -> np.ndarray:
    """Zero-phase band-pass via a frequency-domain mask.

    Keeps bins whose frequency f satisfies band.low_hz <= f <= band.high_hz
    (DC is removed unless low_hz == 0) and zeroes the rest; only bins
    0..N/2 are masked, so the output is real.  The input is zero-padded to
    a power of two N and the result truncated back to the input length.
    """
    arr = _finite_array(samples, "samples", (None,), min_len=2)
    return _bandpass_rows(arr[None], _positive(sample_rate_hz, "sample rate"), band)[0]


def remove_mean(samples) -> np.ndarray:
    arr = _finite_array(samples, "samples", (None,))
    return arr - arr.mean()


def _window_spec(window_seconds, overlap_fraction) -> tuple[float, float]:
    """Window length in seconds (> 0) and overlap fraction (in [0, 1)) as floats."""
    window_seconds = _positive(window_seconds, "window_seconds")
    overlap_fraction = _positive(overlap_fraction, "overlap fraction", zero_ok=True)
    if overlap_fraction >= 1.0:
        raise ValidationError(f"overlap fraction must lie in [0, 1), got {overlap_fraction}")
    return window_seconds, overlap_fraction


def window_geometry(
    sample_rate_hz: float, window_seconds: float, overlap_fraction: float
) -> tuple[int, int]:
    """Window length and stride, in samples, for the given segmentation."""
    window_seconds, overlap_fraction = _window_spec(window_seconds, overlap_fraction)
    rate = _positive(sample_rate_hz, "sample rate")
    span = _positive(window_seconds * rate, "window span")
    length = _count(int(round(span)), f"samples in {window_seconds} s at {rate} Hz", 2)
    # Floor with a tiny nudge so exact products (e.g. 1080 * 0.1) are not
    # pushed below the integer they represent by float rounding.
    stride = int(np.floor(length * (1.0 - overlap_fraction) + 1e-9))
    return length, max(1, stride)


def segment_windows(
    series: TimeSeries, window_seconds: float, overlap_fraction: float
) -> list[Window]:
    """Maximal run of equally strided windows covering the record from sample 0.

    Stride is floor(length * (1 - overlap)) clamped to at least 1; a final
    partial window is never emitted.
    """
    length, stride = window_geometry(series.sample_rate_hz, window_seconds, overlap_fraction)
    if length > series.n_samples:
        raise EmptyInputError(
            f"record of {series.n_samples} samples is shorter than one "
            f"{length}-sample window"
        )
    starts = range(0, series.n_samples - length + 1, stride)
    return [Window(start_index=s, length=length) for s in starts]
