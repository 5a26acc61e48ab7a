"""Seeded synthetic vibration generator.

Each terrain recipe mixes three ingredients into the three sensor channels:
band-shaped Gaussian noise (white noise band-passed per analysis band and
scaled to a target rms), sinusoidal tonals with per-channel gains, and
Poisson-timed exponentially decaying impulses.  A white per-channel noise
floor sits underneath.  Band noise is mixed through the profile's 3x3
channel-band gain matrix; impulses decay over 10 ms, so their energy sits
almost entirely in the low band and they are mixed through the matrix's
low-band column.  All randomness comes from the package's own counter-based
generator, so records are a pure function of (profile, duration, rate,
seed), and impulse draws come in bounded blocks.  Datasets are sampled at
1,440 Hz and sized in the package's default 1.5 s windows with 0.5 overlap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _count, _finite_array, _positive, _seed
from .features import DEFAULT_BANDS
from .rng import Prng, derive_seed
from .signals import DEFAULT_OVERLAP, DEFAULT_WINDOW_SECONDS, TimeSeries, bandpass, window_geometry

DEFAULT_SAMPLE_RATE_HZ = 1440.0
IMPULSE_DECAY_S = 0.010
_IMPULSE_TAIL_DECAYS = 8.0

KNOWN_TERRAIN_NAMES = ("flat", "fine_sand", "small_stone", "small_pebble", "large_stone")
UNKNOWN_TERRAIN_NAME = "mixture"


def _check_fields(frozen, check, *names, **options) -> None:
    """Replace each named field of a frozen dataclass by its checked value."""
    for name in names:
        object.__setattr__(frozen, name, check(getattr(frozen, name), name, **options))


def _nonnegative(values, what: str, shape: tuple):
    """Non-negative finite reals of the given shape, as (nested) tuples of floats."""
    arr = _finite_array(values, what, shape)
    if (arr < 0.0).any():
        raise ValidationError(f"{what} must be >= 0")
    return tuple(map(tuple, arr.tolist())) if arr.ndim == 2 else tuple(arr.tolist())


@dataclass(frozen=True)
class Tonal:
    freq_hz: float
    amplitude: float
    channel_gains: tuple[float, float, float]

    def __post_init__(self):
        _check_fields(self, _positive, "freq_hz")
        _check_fields(self, _positive, "amplitude", zero_ok=True)
        _check_fields(self, _nonnegative, "channel_gains", shape=(3,))


@dataclass(frozen=True)
class TerrainProfile:
    """Recipe for one terrain's vibration signature."""

    name: str
    band_rms: tuple[float, float, float]  # target rms per {low, mid, high} band
    tonal_components: tuple[Tonal, ...]
    impulse_rate_hz: float
    impulse_amplitude: float
    noise_floor_rms: float
    channel_band_gains: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not self.name:
            raise ValidationError("profile needs a name")
        _check_fields(self, _nonnegative, "band_rms", shape=(3,))
        _check_fields(self, _nonnegative, "channel_band_gains", shape=(3, 3))
        _check_fields(
            self, _positive, "impulse_rate_hz", "impulse_amplitude", "noise_floor_rms", zero_ok=True
        )

    def max_tonal_hz(self) -> float:
        return max((t.freq_hz for t in self.tonal_components), default=0.0)


@dataclass(frozen=True)
class GenSpec:
    profile: TerrainProfile
    duration_s: float
    sample_rate_hz: float
    seed: int

    def __post_init__(self):
        _check_fields(self, _positive, "duration_s", "sample_rate_hz")
        _check_fields(self, _seed, "seed")
        if self.sample_rate_hz <= 2.0 * self.profile.max_tonal_hz():
            raise ValidationError(
                f"sample rate {self.sample_rate_hz} Hz cannot represent a "
                f"{self.profile.max_tonal_hz()} Hz tonal"
            )


# Row c gives channel c's sensitivity to the {low, mid, high} bands:
# channel 1 is weighted to low frequencies, channel 2 to mid, channel 3 to
# high.  Channel 3's low-band leakage must stay small enough that its
# high-band spectral density dominates even for low-band-heavy terrains.
_GAIN_TEMPLATE = (
    (1.0, 0.35, 0.15),
    (0.35, 1.0, 0.35),
    (0.05, 0.35, 1.0),
)


def builtin_profiles() -> list[TerrainProfile]:
    """The five known terrains plus the mixture used as the unknown."""
    flat = TerrainProfile(
        name="flat",
        band_rms=(0.003, 0.003, 0.003),
        tonal_components=(),
        impulse_rate_hz=0.0,
        impulse_amplitude=0.0,
        noise_floor_rms=0.006,
        channel_band_gains=_GAIN_TEMPLATE,
    )
    fine_sand = TerrainProfile(
        name="fine_sand",
        band_rms=(0.02, 0.03, 0.07),
        tonal_components=(),
        impulse_rate_hz=0.0,
        impulse_amplitude=0.0,
        noise_floor_rms=0.005,
        channel_band_gains=_GAIN_TEMPLATE,
    )
    small_stone = TerrainProfile(
        name="small_stone",
        band_rms=(0.12, 0.18, 0.05),
        tonal_components=(
            Tonal(freq_hz=200.0, amplitude=0.15, channel_gains=(0.3, 1.0, 0.3)),
        ),
        impulse_rate_hz=8.0,
        impulse_amplitude=0.35,
        noise_floor_rms=0.005,
        channel_band_gains=_GAIN_TEMPLATE,
    )
    # Deliberately low-band dominated (frequent shallow thumps) so its
    # energy signature points in a different direction than the fine_sand /
    # small_stone axis.
    small_pebble = TerrainProfile(
        name="small_pebble",
        band_rms=(0.16, 0.04, 0.03),
        tonal_components=(
            Tonal(freq_hz=90.0, amplitude=0.08, channel_gains=(0.6, 1.0, 0.4)),
        ),
        impulse_rate_hz=12.0,
        impulse_amplitude=0.15,
        noise_floor_rms=0.005,
        channel_band_gains=_GAIN_TEMPLATE,
    )
    large_stone = TerrainProfile(
        name="large_stone",
        band_rms=(0.20, 0.25, 0.08),
        tonal_components=(
            Tonal(freq_hz=90.0, amplitude=0.18, channel_gains=(0.6, 1.0, 0.4)),
            Tonal(freq_hz=500.0, amplitude=0.10, channel_gains=(0.2, 0.4, 1.0)),
        ),
        impulse_rate_hz=6.0,
        impulse_amplitude=0.8,
        noise_floor_rms=0.005,
        channel_band_gains=_GAIN_TEMPLATE,
    )
    mixture = mix_profiles(fine_sand, small_stone, UNKNOWN_TERRAIN_NAME)
    return [flat, fine_sand, small_stone, small_pebble, large_stone, mixture]


def builtin_profile(name: str) -> TerrainProfile:
    for profile in builtin_profiles():
        if profile.name == name:
            return profile
    known = ", ".join(p.name for p in builtin_profiles())
    raise ValidationError(f"unknown profile {name!r}; built-ins are: {known}")


def mix_profiles(a: TerrainProfile, b: TerrainProfile, name: str) -> TerrainProfile:
    """Field-wise average of two recipes; tonals are pooled at half amplitude."""
    tonals = tuple(
        Tonal(t.freq_hz, t.amplitude * 0.5, t.channel_gains)
        for t in (*a.tonal_components, *b.tonal_components)
    )
    gains = tuple(
        tuple((ga + gb) / 2.0 for ga, gb in zip(row_a, row_b))
        for row_a, row_b in zip(a.channel_band_gains, b.channel_band_gains)
    )
    return TerrainProfile(
        name=name,
        band_rms=tuple((va + vb) / 2.0 for va, vb in zip(a.band_rms, b.band_rms)),
        tonal_components=tonals,
        impulse_rate_hz=(a.impulse_rate_hz + b.impulse_rate_hz) / 2.0,
        impulse_amplitude=(a.impulse_amplitude + b.impulse_amplitude) / 2.0,
        noise_floor_rms=(a.noise_floor_rms + b.noise_floor_rms) / 2.0,
        channel_band_gains=gains,
    )


def _impulse_track(
    rng: Prng, n: int, rate_hz: float, sample_rate_hz: float, amplitude: float
) -> np.ndarray:
    """Poisson-timed spikes with exponential decay and amplitude jitter.

    Inter-arrival gaps are exponential draws; each strike has a random sign
    and a uniform scale in (0.5, 1.5], its three uniforms taken in that order
    from blocks of about the expected strike count, at most 1,000 strikes
    (``rng`` is the track's own, so draws left unused change nothing).
    """
    track = np.zeros(n)
    if rate_hz <= 0.0 or amplitude <= 0.0:
        return track
    tail = int(math.ceil(_IMPULSE_TAIL_DECAYS * IMPULSE_DECAY_S * sample_rate_hz))
    decay = np.exp(-np.arange(tail) / (IMPULSE_DECAY_S * sample_rate_hz))
    t = 0.0
    duration = n / sample_rate_hz
    block = 3 * min(int(rate_hz * duration) + 1, 1000)
    uniforms = (u for _ in itertools.count() for u in rng.uniform_block(block).tolist())
    while True:
        t += -math.log(next(uniforms)) / rate_hz
        if t >= duration:
            break
        start = int(t * sample_rate_hz)
        if start >= n:
            break
        sign = 1.0 if next(uniforms) > 0.5 else -1.0
        scale = 0.5 + next(uniforms)
        stop = min(n, start + tail)
        track[start:stop] += sign * scale * amplitude * decay[: stop - start]
    return track


def generate(spec: GenSpec) -> TimeSeries:
    """Synthesize one labeled record; bit-identical for equal specs."""
    profile = spec.profile
    rate = spec.sample_rate_hz
    span = spec.duration_s * rate
    if not 24.0 * span <= np.iinfo(np.intp).max:  # 3 float64 channels must fit one array
        raise ValidationError(f"duration {spec.duration_s} s at {rate} Hz is too many samples")
    n = _count(int(round(span)), f"samples in {spec.duration_s} s at {rate} Hz", 2)
    for band in DEFAULT_BANDS:
        band.check_nyquist(rate)
    # Each ingredient is added into the channel rows in place and dropped, in
    # the order floor, bands 0-2, impulses, tonals, which fixes every sum.
    channels = np.empty((3, n))
    for c in range(3):
        channels[c] = Prng(derive_seed(spec.seed, "floor", c)).gaussian_block(n)
        channels[c] *= profile.noise_floor_rms
    gains = profile.channel_band_gains
    for b, band in enumerate(DEFAULT_BANDS):
        shaped = 0.0  # a silent band still adds gain * 0.0, which turns -0.0 into 0.0
        target = profile.band_rms[b]
        if target > 0.0:
            rng = Prng(derive_seed(spec.seed, "band", b))
            noise = bandpass(rng.gaussian_block(n), rate, band)
            level = math.sqrt(float(np.mean(noise * noise)))
            if level > 0.0:
                shaped = noise * (target / level)
            del noise
        for c in range(3):
            channels[c] += gains[c][b] * shaped
    impulse_rng = Prng(derive_seed(spec.seed, "impulse"))
    impulses = _impulse_track(
        impulse_rng, n, profile.impulse_rate_hz, rate, profile.impulse_amplitude
    )
    for c in range(3):
        # Strikes decay in ~10 ms, so their spectrum concentrates in the low
        # band; they enter each channel through its low-band sensitivity.
        channels[c] += gains[c][0] * impulses
    del impulses
    t = np.arange(n) / rate
    for idx, tone in enumerate(profile.tonal_components):
        phase_rng = Prng(derive_seed(spec.seed, "tonal", idx))
        phase = 2.0 * math.pi * phase_rng.uniform()
        wave = tone.amplitude * np.sin(2.0 * math.pi * tone.freq_hz * t + phase)
        for c in range(3):
            channels[c] += tone.channel_gains[c] * wave
        del wave
    return TimeSeries(sample_rate_hz=rate, channels=channels, label=profile.name)


def generate_dataset(
    profiles,
    windows_per_class: int,
    *,
    seed: int = 0,
) -> list[TimeSeries]:
    """One record per profile at DEFAULT_SAMPLE_RATE_HZ, sized for exactly
    windows_per_class default windows.

    Class index i uses sub-seed ``seed XOR i``.
    """
    profiles = list(profiles)
    if not profiles:
        raise ValidationError("need at least one profile")
    windows_per_class = _count(windows_per_class, "windows_per_class", 2)
    seed = _seed(seed)
    rate = DEFAULT_SAMPLE_RATE_HZ
    length, stride = window_geometry(rate, DEFAULT_WINDOW_SECONDS, DEFAULT_OVERLAP)
    n = length + (windows_per_class - 1) * stride
    out = []
    for index, profile in enumerate(profiles):
        spec = GenSpec(profile=profile, duration_s=n / rate, sample_rate_hz=rate, seed=seed ^ index)
        out.append(generate(spec))
    return out
