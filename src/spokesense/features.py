"""Per-window vibration features.

Each sensor channel is tied to one analysis band (channel 1 -> low,
channel 2 -> mid, channel 3 -> high).  For every channel a record's windows
are band-passed with that band 16 at a time, as one block: the transforms'
matmuls run batched over its rows, working memory stays one block's whatever
the record's length, and every value is bit-identical to its window's taken
alone.  The windows are then mean-removed and six statistics are computed:
rms, std, kurtosis, skewness, energy, entropy.  The first five come from one
moment pass, the entropy from one sort, per block and channel; the public
functions of the same names wrap them as one-row blocks.  On a zero-variance
channel kurtosis and skewness read 0.0 and flag the vector degenerate (the
public ones raise).  The resulting 18-dimensional vector can be extended with
four extra descriptors aimed at periodicity and impulsiveness, whose window
sizes are fixed: the autocorrelation scan starts at lag 1 and the envelope is
a 32-sample moving rms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateInputError,
    EmptyInputError,
    LayoutMismatchError,
    ValidationError,
    _count,
    _finite_array,
)
from .signals import (
    DEFAULT_OVERLAP,
    DEFAULT_WINDOW_SECONDS,
    BandSpec,
    TimeSeries,
    Window,
    _bandpass_rows,
    _irfft,
    _padded_rfft,
    _window_spec,
    check_window,
    next_pow2,
    segment_windows,
)

STAT_NAMES = ("rms", "std", "kurtosis", "skewness", "energy", "entropy")
BAND_NAMES = ("low", "mid", "high")
EXTRA_NAMES = ("autocorr_peak", "amplitude_smoothness", "highfreq_std", "spike_kurtosis")

DEFAULT_BANDS = (BandSpec(1.0, 50.0), BandSpec(100.0, 400.0), BandSpec(400.0, 700.0))
DEFAULT_ENTROPY_BINS = 16

_LAYOUT_BODY = r"bands=([^;]+);entropy_bins=(\d+);extras=([01])"


def _parse_bands(text: str) -> tuple[BandSpec, BandSpec, BandSpec]:
    """Three bands written as lo1:hi1,lo2:hi2,lo3:hi3."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"expected 3 bands as lo1:hi1,lo2:hi2,lo3:hi3, got {text!r}")
    bands = []
    for part in parts:
        lo, sep, hi = part.partition(":")
        if not sep:
            raise ValidationError(f"band {part!r} is not lo:hi")
        try:
            bands.append(BandSpec(float(lo), float(hi)))
        except ValueError as exc:  # float() or BandSpec's ValidationError
            raise ValidationError(f"bad band {part!r}: {exc}") from exc
    return tuple(bands)


@dataclass(frozen=True)
class FeatureConfig:
    """Extraction settings, window geometry included; fully encoded by its
    layout id, from which ``classify`` and ``identify`` read every setting."""

    bands: tuple[BandSpec, BandSpec, BandSpec] = DEFAULT_BANDS
    entropy_bins: int = DEFAULT_ENTROPY_BINS
    include_position_extras: bool = False
    window_seconds: float = DEFAULT_WINDOW_SECONDS
    overlap: float = DEFAULT_OVERLAP

    def __post_init__(self):
        try:
            bands = tuple(self.bands)
        except TypeError:
            raise ValidationError(f"bands must be a sequence, got {self.bands!r}") from None
        if len(bands) != 3:
            raise ValidationError(f"exactly 3 bands required, got {len(bands)}")
        for band in bands:
            if not isinstance(band, BandSpec):
                raise ValidationError(f"each band must be a BandSpec, got {band!r}")
        object.__setattr__(self, "bands", bands)
        object.__setattr__(self, "entropy_bins", _count(self.entropy_bins, "entropy_bins", 2))
        extras = self.include_position_extras
        if not isinstance(extras, (bool, np.bool_)):
            raise ValidationError(f"include_position_extras must be a bool, got {extras!r}")
        object.__setattr__(self, "include_position_extras", bool(extras))
        window_seconds, overlap = _window_spec(self.window_seconds, self.overlap)
        object.__setattr__(self, "window_seconds", window_seconds)
        object.__setattr__(self, "overlap", overlap)

    @property
    def n_features(self) -> int:
        return 18 + (4 if self.include_position_extras else 0)

    def layout_id(self) -> str:
        bands = ",".join(f"{b.low_hz!r}:{b.high_hz!r}" for b in self.bands)
        extras = 1 if self.include_position_extras else 0
        return (
            f"ffv2;bands={bands};entropy_bins={self.entropy_bins};extras={extras};"
            f"window_s={self.window_seconds!r};overlap={self.overlap!r}"
        )

    def feature_names(self) -> tuple[str, ...]:
        names = [
            f"ch{c + 1}_{BAND_NAMES[c]}_{stat}"
            for c in range(3)
            for stat in STAT_NAMES
        ]
        if self.include_position_extras:
            names.extend(EXTRA_NAMES)
        return tuple(names)

    @staticmethod
    def from_layout_id(layout_id: str) -> "FeatureConfig":
        m = re.fullmatch(f"ffv1;{_LAYOUT_BODY}", layout_id) or re.fullmatch(
            f"ffv2;{_LAYOUT_BODY};window_s=([^;]+);overlap=([^;]+)", layout_id
        )
        if m is None:
            raise LayoutMismatchError(f"unrecognized feature layout id: {layout_id!r}")
        bands, bins, extras, *geometry = m.groups()
        # ffv1 ids predate the recorded geometry; their features used the defaults.
        window_s, overlap = geometry or (DEFAULT_WINDOW_SECONDS, DEFAULT_OVERLAP)
        try:
            return FeatureConfig(
                bands=_parse_bands(bands),
                entropy_bins=int(bins),
                include_position_extras=extras == "1",
                window_seconds=float(window_s),
                overlap=float(overlap),
            )
        except ValueError as exc:  # float() or FeatureConfig's ValidationError
            raise LayoutMismatchError(f"bad layout id {layout_id!r}: {exc}") from exc


class _Moments(NamedTuple):
    """The first five STAT_NAMES of each row of a block, and whether it has zero variance."""

    rms: np.ndarray
    std: np.ndarray
    kurtosis: np.ndarray
    skewness: np.ndarray
    energy: np.ndarray
    degenerate: np.ndarray


def _central_moments(block: np.ndarray) -> _Moments:
    """Per row of the (rows, n) block: rms, population std, excess kurtosis m4 / m2**2 - 3,
    skewness m3 / m2**1.5 and energy, from one pass of plain multiplies."""
    # np.add.reduce(...) / n is numpy's mean without its wrapper's overhead:
    # the same sum divided the same way, so the same bits.
    n = block.shape[1]
    energy = np.add.reduce(block * block, axis=1)
    centered = block - np.add.reduce(block, axis=1, keepdims=True) / n
    squared = centered * centered
    m2 = np.add.reduce(squared, axis=1) / n
    flat = m2 == 0.0
    safe = np.where(flat, 1.0, m2)
    kurt = np.where(flat, 0.0, np.add.reduce(squared * squared, axis=1) / n / (safe * safe) - 3.0)
    # Python's float power: numpy's vectorized ** 1.5 can differ in the last bit.
    m3 = np.add.reduce(squared * centered, axis=1) / n
    skew = np.where(flat, 0.0, m3 / [v**1.5 for v in safe.tolist()])
    return _Moments(np.sqrt(energy / n), np.sqrt(m2), kurt, skew, energy, flat)


def _signal_moments(x, min_len: int = 1) -> _Moments:
    """The moments of one signal, as a one-row block."""
    return _central_moments(_finite_array(x, "samples", (None,), min_len=min_len)[None])


def rms(x) -> float:
    return float(_signal_moments(x).rms[0])


def std_dev(x) -> float:
    """Population standard deviation (1/n normalization)."""
    return float(_signal_moments(x, min_len=2).std[0])


def kurtosis(x) -> float:
    """Excess kurtosis m4 / m2**2 - 3; zero for a Gaussian in expectation."""
    moments = _signal_moments(x, min_len=4)
    if moments.degenerate[0]:
        raise DegenerateInputError("kurtosis undefined for zero-variance input")
    return float(moments.kurtosis[0])


def skewness(x) -> float:
    """Third standardized moment m3 / m2**1.5."""
    moments = _signal_moments(x, min_len=3)
    if moments.degenerate[0]:
        raise DegenerateInputError("skewness undefined for zero-variance input")
    return float(moments.skewness[0])


def signal_energy(x) -> float:
    return float(_signal_moments(x).energy[0])


def shannon_entropy(x, bins: int = DEFAULT_ENTROPY_BINS) -> float:
    """Entropy in bits of the amplitude histogram.

    Uses ``bins`` equal-width bins spanning [min(x), max(x)]; empty bins
    contribute zero.  A constant signal has a single occupied bin and
    entropy 0.
    """
    arr = _finite_array(x, "samples", (None,))
    return float(_entropy_rows(arr[None], _count(bins, "entropy bins", 2))[0])


def _entropy_rows(block: np.ndarray, bins: int) -> np.ndarray:
    """shannon_entropy of each row of the (rows, n) block, from one row-wise sort."""
    n = block.shape[1]
    ordered = np.sort(block, axis=1)
    lo, hi = ordered[:, 0], ordered[:, -1]
    with np.errstate(over="ignore"):
        span = hi - lo
    if np.isinf(span).any():
        low, high = (float(end[np.argmax(span)]) for end in (lo, hi))  # the first such row
        raise ValidationError(f"samples span {low!r} to {high!r}, wider than the double range")
    # Bin k holds edges[k] <= x < edges[k + 1]; the last bin also holds hi.
    # The edges are np.linspace's arithmetic without its wrapper; it divides
    # first when the step underflows to 0.
    step = span / bins
    edges = np.arange(bins + 1.0) * step[:, None] + lo[:, None]
    for r in np.flatnonzero(step == 0.0):  # a constant row's step, or one that underflows
        edges[r] = np.linspace(lo[r], hi[r], bins + 1)
    ends = np.array([np.searchsorted(row, row_edges) for row, row_edges in zip(ordered, edges)])
    ends[:, -1] = n  # the last bin ends after hi, whatever the last edge reads
    counts = ends[:, 1:] - ends[:, :-1]
    occupied = counts > 0
    probs = counts[occupied] / n
    terms = probs * np.log2(probs)
    # Summed row by row, in np.sum's order for each row (np.add.reduceat adds in another).
    stops = np.cumsum(np.add.reduce(occupied, axis=1)).tolist()
    # 0.0 - sum, not -sum: a constant row's one term sums to 0.0, and its entropy is 0.0, not -0.0.
    return np.array([0.0 - np.add.reduce(terms[a:b]) for a, b in zip([0, *stops], stops)])


class AutocorrPeak(NamedTuple):
    lag: int
    value: float
    found: bool


def autocorrelation_peak(x) -> AutocorrPeak:
    """First local maximum of the biased normalized autocorrelation.

    The input is mean-removed; r(0) = 1 by construction.  Scans lags
    t >= 1 for the first r(t) with r(t) > r(t-1) and r(t) >= r(t+1).
    Returns (0, 1.0, False) when no local maximum exists.
    """
    arr = _finite_array(x, "samples", (None,), min_len=8)
    centered = arr - arr.mean()
    denom = float(np.sum(centered * centered))
    if denom == 0.0:
        raise DegenerateInputError("autocorrelation undefined for zero-variance input")
    n = centered.shape[0]
    power = np.abs(_padded_rfft(centered, next_pow2(2 * n))) ** 2
    corr = _irfft(power)[:n] / denom
    for lag in range(1, n - 1):
        if corr[lag] > corr[lag - 1] and corr[lag] >= corr[lag + 1]:
            return AutocorrPeak(lag=lag, value=float(corr[lag]), found=True)
    return AutocorrPeak(lag=0, value=1.0, found=False)


def amplitude_smoothness(x) -> float:
    """Envelope steadiness in (0, 1]; 1 means a perfectly steady envelope.

    The envelope is a moving rms with sub-window min(32, n) and stride 1;
    the score is 1 / (1 + mean|diff(envelope)| / (mean(envelope) + 1e-12)).
    """
    arr = _finite_array(x, "samples", (None,), min_len=2)
    w = min(32, arr.shape[0])
    squares = arr * arr
    csum = np.concatenate(([0.0], np.cumsum(squares)))
    window_means = (csum[w:] - csum[:-w]) / w
    envelope = np.sqrt(np.maximum(window_means, 0.0))
    mean_env = float(envelope.mean())
    if envelope.shape[0] < 2:
        return 1.0
    mean_step = float(np.abs(np.diff(envelope)).mean())
    return 1.0 / (1.0 + mean_step / (mean_env + 1e-12))


@dataclass(eq=False)
class FeatureVector:
    """One window's values, in the order of its config's feature_names()."""

    values: np.ndarray
    degenerate: bool = False


# Windows band-passed as one block: the transforms of a block run as batched
# matmuls, and a record's windows stay in memory 16 at a time, not all at once.
_CHUNK_WINDOWS = 16


def _record_features(
    series: TimeSeries, windows: list[Window], config: FeatureConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows of equal-length windows of one record and their
    degenerate flags, computed over blocks of ``_CHUNK_WINDOWS`` windows."""
    length = _count(windows[0].length, "window length for kurtosis", 4)
    if config.include_position_extras:
        _count(length, "window length for the extras", 8)
    rate = series.sample_rate_hz
    values = np.empty((len(windows), config.n_features))
    degenerate = np.zeros(len(windows), dtype=bool)
    # Every length-sample window of each channel, as views; a block's rows are copied out of them.
    by_start = [np.lib.stride_tricks.sliding_window_view(row, length) for row in series.channels]
    for first in range(0, len(windows), _CHUNK_WINDOWS):
        part = slice(first, first + _CHUNK_WINDOWS)
        rows, flags = values[part], degenerate[part]
        starts = [w.start_index for w in windows[part]]
        filtered_by_channel = []
        for c in range(3):
            filtered = _bandpass_rows(by_start[c][starts], rate, config.bands[c])
            filtered -= np.add.reduce(filtered, axis=1, keepdims=True) / length
            filtered_by_channel.append(filtered)
            moments = _central_moments(filtered)
            flags |= moments.degenerate
            rows[:, 6 * c:6 * c + 5] = np.column_stack(moments[:5])
            rows[:, 6 * c + 5] = _entropy_rows(filtered, config.entropy_bins)
        if config.include_position_extras:
            for k, mid in enumerate(filtered_by_channel[1]):
                try:
                    rows[k, 18] = autocorrelation_peak(mid).value
                except DegenerateInputError:
                    rows[k, 18] = 1.0
                    flags[k] = True
                rows[k, 19] = amplitude_smoothness(mid)
            rows[:, 20] = moments.std  # the high band is channel 3, the last one above
            raw_spoke = by_start[2][starts]
            raw_spoke -= np.add.reduce(raw_spoke, axis=1, keepdims=True) / length
            spike = _central_moments(raw_spoke)
            flags |= spike.degenerate
            rows[:, 21] = spike.kurtosis
    return values, degenerate


def extract_features(series: TimeSeries, window: Window, config: FeatureConfig) -> FeatureVector:
    """Feature vector for one window of a record.

    Channel c is band-passed with config.bands[c] (which checks the band
    against Nyquist), mean-removed, then the six per-band statistics are
    computed, five of them from one moment pass.  Zero-variance channels
    yield 0 for kurtosis and skewness (and the extras' spike kurtosis) and
    set the degenerate flag instead of raising.
    """
    check_window(series, window)
    values, degenerate = _record_features(series, [window], config)
    return FeatureVector(values=values[0], degenerate=bool(degenerate[0]))


def extract_feature_matrix(
    series_list, config: FeatureConfig
) -> tuple[np.ndarray, list[str | None], tuple[str, ...]]:
    """Stack per-window feature vectors of records, windowed by the config's geometry.

    Returns (matrix, row labels, column names); a row's label is the
    label of the record it came from.
    """
    blocks: list[np.ndarray] = []
    labels: list[str | None] = []
    for series in series_list:
        windows = segment_windows(series, config.window_seconds, config.overlap)
        blocks.append(_record_features(series, windows, config)[0])
        labels.extend([series.label] * len(windows))
    if not blocks:
        raise EmptyInputError("no windows produced from the given records")
    return np.vstack(blocks), labels, config.feature_names()
