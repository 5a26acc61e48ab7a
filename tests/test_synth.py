"""Synthetic vibration generator tests.

Oracles: the generator's own recipe constants (band targets, tonal
frequencies), spectrum measurements through the independent magnitude
pipeline, direct statistical recomputation on the emitted samples, and
the generator as it was before it summed in place (``oracle_generate``),
whose channel bytes every record must match.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from spokesense.errors import ValidationError
from spokesense.features import DEFAULT_BANDS, FeatureConfig, extract_feature_matrix
from spokesense.rng import Prng, derive_seed
from spokesense.signals import bandpass, dft_magnitude
from spokesense.synth import (
    KNOWN_TERRAIN_NAMES,
    UNKNOWN_TERRAIN_NAME,
    GenSpec,
    TerrainProfile,
    Tonal,
    _impulse_track,
    builtin_profile,
    builtin_profiles,
    generate,
    generate_dataset,
    mix_profiles,
)

RATE = 1440.0


def identity_noise_profile() -> TerrainProfile:
    """Band noise routed straight through, nothing else on top."""
    return TerrainProfile(
        name="noise_only",
        band_rms=(0.05, 0.08, 0.03),
        tonal_components=(),
        impulse_rate_hz=0.0,
        impulse_amplitude=0.0,
        noise_floor_rms=0.0,
        channel_band_gains=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    )


def excess_kurtosis(x: np.ndarray) -> float:
    centered = x - x.mean()
    return float(np.mean(centered**4) / np.mean(centered**2) ** 2 - 3.0)


# ---------------------------------------------------------------- profiles


def test_builtin_profile_set():
    profiles = builtin_profiles()
    assert [p.name for p in profiles] == list(KNOWN_TERRAIN_NAMES) + [UNKNOWN_TERRAIN_NAME]
    assert len(profiles) == 6
    assert builtin_profile("flat").name == "flat"
    with pytest.raises(ValidationError, match="flat.*fine_sand"):
        builtin_profile("nosuch")


def test_flat_profile_stays_at_the_floor():
    flat = builtin_profile("flat")
    assert all(v <= flat.noise_floor_rms for v in flat.band_rms)
    assert flat.tonal_components == ()
    assert flat.impulse_rate_hz == 0.0


def test_small_stone_has_200hz_tonal():
    stone = builtin_profile("small_stone")
    assert any(t.freq_hz == 200.0 for t in stone.tonal_components)


def test_sand_high_band_dominates_low():
    sand = builtin_profile("fine_sand")
    assert sand.band_rms[2] > sand.band_rms[0]


def test_mix_profiles_averages_fields():
    sand = builtin_profile("fine_sand")
    stone = builtin_profile("small_stone")
    mixture = mix_profiles(sand, stone, UNKNOWN_TERRAIN_NAME)
    for got, va, vb in zip(mixture.band_rms, sand.band_rms, stone.band_rms):
        assert got == (va + vb) / 2.0
    assert mixture.impulse_rate_hz == (sand.impulse_rate_hz + stone.impulse_rate_hz) / 2.0
    assert mixture.impulse_amplitude == (
        sand.impulse_amplitude + stone.impulse_amplitude
    ) / 2.0
    assert mixture.noise_floor_rms == (sand.noise_floor_rms + stone.noise_floor_rms) / 2.0
    # pooled tonals at half amplitude
    assert len(mixture.tonal_components) == len(sand.tonal_components) + len(
        stone.tonal_components
    )
    assert mixture.tonal_components[0].freq_hz == 200.0
    assert mixture.tonal_components[0].amplitude == 0.5 * stone.tonal_components[0].amplitude
    for row_m, row_a, row_b in zip(
        mixture.channel_band_gains, sand.channel_band_gains, stone.channel_band_gains
    ):
        for gm, ga, gb in zip(row_m, row_a, row_b):
            assert gm == (ga + gb) / 2.0
    # the built-in unknown is exactly this blend
    builtin_mix = builtin_profile(UNKNOWN_TERRAIN_NAME)
    assert builtin_mix.band_rms == mixture.band_rms
    assert builtin_mix.tonal_components == mixture.tonal_components


def test_profile_validation():
    with pytest.raises(ValidationError):
        Tonal(freq_hz=-5.0, amplitude=0.1, channel_gains=(1.0, 1.0, 1.0))
    with pytest.raises(ValidationError):
        Tonal(freq_hz=5.0, amplitude=-0.1, channel_gains=(1.0, 1.0, 1.0))
    good = identity_noise_profile()
    with pytest.raises(ValidationError):
        TerrainProfile(
            name="",
            band_rms=good.band_rms,
            tonal_components=(),
            impulse_rate_hz=0.0,
            impulse_amplitude=0.0,
            noise_floor_rms=0.0,
            channel_band_gains=good.channel_band_gains,
        )
    with pytest.raises(ValidationError):
        TerrainProfile(
            name="bad",
            band_rms=(-0.1, 0.1, 0.1),
            tonal_components=(),
            impulse_rate_hz=0.0,
            impulse_amplitude=0.0,
            noise_floor_rms=0.0,
            channel_band_gains=good.channel_band_gains,
        )
    with pytest.raises(ValidationError):
        TerrainProfile(
            name="bad",
            band_rms=(0.1, 0.1, 0.1),
            tonal_components=(),
            impulse_rate_hz=0.0,
            impulse_amplitude=0.0,
            noise_floor_rms=0.0,
            channel_band_gains=((1.0, 0.0), (0.0, 1.0), (0.0, 0.0)),
        )


# ---------------------------------------------------------------- generate


def test_generate_deterministic_and_labeled():
    spec = GenSpec(builtin_profile("fine_sand"), 2.0, RATE, seed=123)
    first = generate(spec)
    second = generate(spec)
    assert np.array_equal(first.channels, second.channels)
    assert first.label == "fine_sand"
    assert first.sample_rate_hz == RATE
    assert first.channels.shape == (3, 2880)
    other_seed = generate(GenSpec(builtin_profile("fine_sand"), 2.0, RATE, seed=124))
    assert not np.array_equal(first.channels, other_seed.channels)


def test_zero_band_rms_leaves_its_band_silent():
    # each band draws from its own seed, so silencing one leaves the others as they were
    base = identity_noise_profile()
    quiet = dataclasses.replace(base, band_rms=(0.0, 0.08, 0.03))
    full = generate(GenSpec(base, 2.0, RATE, seed=5)).channels
    part = generate(GenSpec(quiet, 2.0, RATE, seed=5)).channels
    assert np.isfinite(part).all()
    assert not part[0].any()
    assert np.array_equal(part[1:], full[1:])


def oracle_generate(spec: GenSpec) -> np.ndarray:
    """The channels of ``generate`` as it was before it added each
    ingredient in place: a (3, n) band array and a list of tonal waves,
    summed per channel as floor, bands 0-2, impulses, tonals."""
    profile, rate = spec.profile, spec.sample_rate_hz
    n = int(round(spec.duration_s * rate))
    band_noise = np.zeros((3, n))
    for b, band in enumerate(DEFAULT_BANDS):
        target = profile.band_rms[b]
        if target <= 0.0:
            continue
        shaped = bandpass(Prng(derive_seed(spec.seed, "band", b)).gaussian_block(n), rate, band)
        level = math.sqrt(float(np.mean(shaped * shaped)))
        if level > 0.0:
            band_noise[b] = shaped * (target / level)
    impulses = _impulse_track(
        Prng(derive_seed(spec.seed, "impulse")), n, profile.impulse_rate_hz, rate,
        profile.impulse_amplitude,
    )
    t = np.arange(n) / rate
    tonal_waves = []
    for idx, tone in enumerate(profile.tonal_components):
        phase = 2.0 * math.pi * Prng(derive_seed(spec.seed, "tonal", idx)).uniform()
        tonal_waves.append(
            (tone, tone.amplitude * np.sin(2.0 * math.pi * tone.freq_hz * t + phase))
        )
    channels = np.empty((3, n))
    gains = profile.channel_band_gains
    for c in range(3):
        acc = Prng(derive_seed(spec.seed, "floor", c)).gaussian_block(n) * profile.noise_floor_rms
        for b in range(3):
            acc = acc + gains[c][b] * band_noise[b]
        acc = acc + gains[c][0] * impulses
        for tone, wave in tonal_waves:
            acc = acc + tone.channel_gains[c] * wave
        channels[c] = acc
    return channels


def test_generate_matches_oracle_bit_for_bit():
    # A silent profile: its floor draws are +-0.0, and each silent band's
    # gain * 0.0 turns -0.0 into 0.0, as the zero band rows did.
    silent = dataclasses.replace(
        identity_noise_profile(), name="silent", band_rms=(0.0, 0.0, 0.0)
    )
    profiles = [*builtin_profiles(), identity_noise_profile(), silent]
    for seed in (1, 2):
        for profile in profiles:
            spec = GenSpec(profile, 3.0, RATE, seed=seed)
            want = oracle_generate(spec)
            assert generate(spec).channels.tobytes() == want.tobytes(), (profile.name, seed)
    assert np.signbit(oracle_generate(GenSpec(silent, 3.0, RATE, seed=1))).sum() == 0


def test_generate_peak_below_four_channel_copies():
    # Each ingredient is added in place and dropped, so a 60 s record's
    # peak does not grow with the number of tonals.  The first call fills
    # the FFT caches, which outlive it.
    spec = GenSpec(builtin_profile(UNKNOWN_TERRAIN_NAME), 60.0, RATE, seed=1)
    generate(spec)
    tracemalloc.start()
    try:
        channels = generate(spec).channels
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * channels.nbytes, (peak, channels.nbytes)


def test_generate_validation():
    sand = builtin_profile("fine_sand")
    with pytest.raises(ValidationError):
        GenSpec(sand, 0.0, RATE, seed=0)
    with pytest.raises(ValidationError):
        GenSpec(sand, 1.0, -10.0, seed=0)
    with pytest.raises(ValidationError):
        generate(GenSpec(sand, 0.0005, RATE, seed=0))  # under 2 samples
    # a 200 Hz tonal cannot ride on a 360 Hz sample rate
    with pytest.raises(ValidationError, match="200"):
        GenSpec(builtin_profile("small_stone"), 1.0, 360.0, seed=0)
    # analysis bands reach 700 Hz, so generation needs rate > 1400
    with pytest.raises(ValidationError):
        generate(GenSpec(sand, 1.0, 1000.0, seed=0))


def test_flat_spectrum_peak_to_floor():
    record = generate(GenSpec(builtin_profile("flat"), 10.0, RATE, seed=7))
    for c in range(3):
        signal = record.channels[c] - record.channels[c].mean()
        magnitudes = dft_magnitude(signal, RATE).magnitudes[1:]
        # average 64-bin blocks so single-bin noise flutter does not pass
        # for structure; a flat profile must stay spectrally featureless
        usable = (len(magnitudes) // 64) * 64
        blocks = magnitudes[:usable].reshape(-1, 64).mean(axis=1)
        ratio = float(blocks.max() / np.median(blocks))
        assert ratio <= 3.0


def test_small_stone_200hz_peak():
    record = generate(GenSpec(builtin_profile("small_stone"), 10.0, RATE, seed=7))
    spectrum = dft_magnitude(record.channels[1] - record.channels[1].mean(), RATE)
    freqs = np.arange(len(spectrum.magnitudes)) * spectrum.bin_resolution_hz
    peak_bin = int(np.argmin(np.abs(freqs - 200.0)))
    ratio = spectrum.magnitudes[peak_bin] / float(np.median(spectrum.magnitudes))
    assert ratio >= 10.0


def test_band_noise_levels_match_targets():
    profile = identity_noise_profile()
    # power-of-two length: the band mask is exact, so levels land exactly;
    # a non-power-of-two length goes through padding and stays within 10%
    for n, limit in ((16384, 1e-12), (14400, 0.1)):
        record = generate(GenSpec(profile, n / RATE, RATE, seed=11))
        for b, band in enumerate(DEFAULT_BANDS):
            shaped = bandpass(record.channels[b], RATE, band)
            rms = float(np.sqrt(np.mean(shaped * shaped)))
            assert abs(rms - profile.band_rms[b]) <= limit * profile.band_rms[b]


def test_channel_band_sensitivity_all_profiles():
    # per-hertz spectral density: channel 1 leans low, channel 3 leans high
    widths = [band.high_hz - band.low_hz for band in DEFAULT_BANDS]
    for profile in builtin_profiles():
        record = generate(GenSpec(profile, 10.0, RATE, seed=1))
        density = np.empty((3, 3))
        for c in range(3):
            for b, band in enumerate(DEFAULT_BANDS):
                shaped = bandpass(record.channels[c], RATE, band)
                density[c, b] = np.mean(shaped * shaped) / widths[b]
        assert density[0, 0] >= density[0, 2], profile.name
        assert density[2, 2] >= density[2, 0], profile.name


def test_impulses_raise_kurtosis():
    rocky = generate(GenSpec(builtin_profile("large_stone"), 10.0, RATE, seed=3))
    smooth = generate(GenSpec(builtin_profile("fine_sand"), 10.0, RATE, seed=3))
    rocky_k = excess_kurtosis(rocky.channels[0])
    smooth_k = excess_kurtosis(smooth.channels[0])
    assert rocky_k > smooth_k + 1.0
    assert rocky_k > 1.0
    assert abs(smooth_k) < 0.5


# ---------------------------------------------------------------- datasets


def test_dataset_window_arithmetic():
    knowns = [builtin_profile(name) for name in KNOWN_TERRAIN_NAMES]
    records = generate_dataset(knowns, 80, seed=1)
    assert len(records) == 5
    matrix, labels, _ = extract_feature_matrix(records, FeatureConfig())
    assert matrix.shape[0] == 400
    for name in KNOWN_TERRAIN_NAMES:
        assert labels.count(name) == 80


def test_dataset_features_reproducible():
    profiles = [builtin_profile("flat"), builtin_profile("fine_sand")]
    config = FeatureConfig(include_position_extras=True)
    first, labels_a, _ = extract_feature_matrix(generate_dataset(profiles, 4, seed=9), config)
    second, labels_b, _ = extract_feature_matrix(generate_dataset(profiles, 4, seed=9), config)
    assert np.array_equal(first, second)
    assert labels_a == labels_b


def test_dataset_subseeds_differ_per_class():
    # both records draw from the same recipe but class index changes the seed
    sand = builtin_profile("fine_sand")
    records = generate_dataset([sand, sand], 3, seed=5)
    assert not np.array_equal(records[0].channels, records[1].channels)


def test_dataset_validation():
    with pytest.raises(ValidationError):
        generate_dataset([], 4, seed=0)
    with pytest.raises(ValidationError):
        generate_dataset([builtin_profile("flat")], 1, seed=0)
