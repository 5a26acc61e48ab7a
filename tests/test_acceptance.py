"""Acceptance gate: ten numbered release criteria, one verdict line each.

Each test prints ``criterion N: PASS/FAIL — detail`` so a plain ``pytest -s``
run reads as a checklist.  The tests reuse only public APIs and independent
oracles (direct DFT, explicit inverses, hand-built fixtures).
"""

import functools
import time

import numpy as np

from spokesense.cli import main
from spokesense.eigen import covariance3, eigenvalues_sym3
from spokesense.features import FeatureConfig, extract_feature_matrix, extract_features, shannon_entropy
from spokesense.formats import (
    read_dataset,
    read_features,
    read_model,
    read_profile,
    write_dataset,
    write_features,
    write_model,
    write_profile,
)
from spokesense.signals import TimeSeries, Window, fft_radix2, segment_windows
from spokesense.similarity import (
    build_library,
    cholesky_spd,
    euclidean_distance,
    mahalanobis_distance,
    rank_unknown,
)
from spokesense.svm import (
    Kernel,
    decision_function,
    evaluate_trials,
    fit_svm_model,
    kkt_report,
    predict_batch,
    train_binary_svm,
)
from spokesense.synth import (
    UNKNOWN_TERRAIN_NAME,
    GenSpec,
    builtin_profile,
    builtin_profiles,
    generate,
    generate_dataset,
)

KNOWN_PROFILES = [p for p in builtin_profiles() if p.name != UNKNOWN_TERRAIN_NAME]


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


@functools.cache
def dft_basis(n: int) -> np.ndarray:
    """exp(-2 pi i j k / n), built once per length; read-only."""
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    basis.flags.writeable = False
    return basis


def direct_dft(x: np.ndarray) -> np.ndarray:
    return dft_basis(len(x)) @ x.astype(np.complex128)


def test_criterion_01_end_to_end_accuracy():
    start = time.perf_counter()
    records = generate_dataset(KNOWN_PROFILES, 80, seed=42)
    matrix, labels, _ = extract_feature_matrix(records, FeatureConfig())
    accuracy, _ = evaluate_trials(matrix, labels, n_trials=120, seed=42)
    elapsed = time.perf_counter() - start
    verdict(
        1,
        accuracy >= 0.85 and elapsed <= 60.0,
        f"5 terrains, 80 windows/class, 120 trials: mean accuracy {accuracy:.4f} "
        f"(floor 0.85) in {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_02_mixture_identification():
    config = FeatureConfig()
    mixture = builtin_profile(UNKNOWN_TERRAIN_NAME)
    expected = {"fine_sand", "small_stone"}
    hits = 0
    for run in range(20):
        run_seed = 1000 + run
        features_by_class = {}
        for record in generate_dataset(KNOWN_PROFILES, 40, seed=run_seed):
            values, _, _ = extract_feature_matrix([record], config)
            features_by_class[record.label] = values
        library = build_library(features_by_class)
        unknown = generate_dataset([mixture], 40, seed=run_seed ^ 0xABCDEF)[0]
        unknown_values, _, _ = extract_feature_matrix([unknown], config)
        report = rank_unknown(unknown_values, library)
        hits += (
            set(report.ranked("euclidean")[:2]) == expected
            or set(report.ranked("mahalanobis")[:2]) == expected
        )
    verdict(
        2,
        hits >= 18,
        f"mixture ranked in top-2 by at least one metric in {hits}/20 seeded runs (need 18)",
    )


def test_criterion_03_dft_oracle_equivalence():
    rng = np.random.RandomState(33)
    sizes = 2 ** rng.randint(3, 11, size=200)  # n in {8, ..., 1024}
    worst = 0.0
    for n in sizes:
        x = rng.randn(n) + 1j * rng.randn(n)
        oracle = direct_dft(x)
        scale = max(1.0, float(np.abs(oracle).max()))
        worst = max(worst, float(np.abs(fft_radix2(x) - oracle).max()) / scale)
    verdict(3, worst <= 1e-9, f"200 signals, n in 8..1024: worst relative error {worst:.3e} (limit 1e-9)")


def test_criterion_04_eigen_identities():
    rng = np.random.RandomState(34)
    worst_sum = worst_prod = 0.0
    for _ in range(1000):
        g = rng.randn(3, 3) * 10.0 ** rng.uniform(-3, 3)
        a = g @ g.T
        lams = eigenvalues_sym3(a).as_tuple()
        scale = max(1.0, float(np.abs(a).max()))
        worst_sum = max(worst_sum, abs(sum(lams) - np.trace(a)) / scale)
        worst_prod = max(
            worst_prod, abs(lams[0] * lams[1] * lams[2] - np.linalg.det(a)) / scale**3
        )
    diag_exact = eigenvalues_sym3(np.diag([5.0, 2.0, 1.0])).as_tuple() == (5.0, 2.0, 1.0)
    identity_exact = eigenvalues_sym3(np.eye(3)).as_tuple() == (1.0, 1.0, 1.0)
    verdict(
        4,
        worst_sum <= 1e-9 and worst_prod <= 1e-6 and diag_exact and identity_exact,
        f"1000 PSD matrices: |sum-trace| {worst_sum:.2e} (1e-9), |prod-det| {worst_prod:.2e} "
        f"(1e-6); diagonal/identity exact: {diag_exact and identity_exact}",
    )


def test_criterion_05_mahalanobis_correctness():
    rng = np.random.RandomState(35)
    worst_identity = worst_oracle = worst_invariance = 0.0
    for d in range(2, 31):
        x = rng.randn(d) * 3
        y = rng.randn(d) * 3
        worst_identity = max(
            worst_identity,
            abs(mahalanobis_distance(x, y, np.eye(d)) - euclidean_distance(x, y)),
        )
        g = rng.randn(d, d)
        cov = g @ g.T + 0.5 * np.eye(d)
        diff = x - y
        oracle = float(np.sqrt(diff @ np.linalg.inv(cov) @ diff))
        worst_oracle = max(
            worst_oracle,
            abs(mahalanobis_distance(x, y, cov) - oracle) / max(1.0, oracle),
        )
        a = rng.randn(d, d) + np.eye(d) * d  # well-conditioned linear map
        mapped = mahalanobis_distance(a @ x, a @ y, a @ cov @ a.T)
        base = mahalanobis_distance(x, y, cov)
        worst_invariance = max(worst_invariance, abs(mapped - base) / max(1.0, base))
    verdict(
        5,
        worst_identity <= 1e-12 and worst_oracle <= 1e-9 and worst_invariance <= 1e-8,
        f"identity-vs-euclidean {worst_identity:.2e} (1e-12), inverse oracle {worst_oracle:.2e} "
        f"(1e-9), linear-map invariance {worst_invariance:.2e} (1e-8) for d=2..30",
    )


def _xor_data():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 10)
    y = np.where(np.isclose(x[:, 0], x[:, 1]), -1.0, 1.0)
    return x, y


def test_criterion_06_svm_soundness():
    kkt_ok = True
    blob_accuracies = []
    for seed in (0, 1, 2):
        rng = np.random.RandomState(seed)
        x = np.vstack([rng.randn(20, 2) * 0.4 + (2, 2), rng.randn(20, 2) * 0.4 - (2, 2)])
        y = np.array([1.0] * 20 + [-1.0] * 20)
        for kernel in (Kernel("linear"), Kernel("rbf", gamma=0.5)):
            svm = train_binary_svm(x, y, kernel=kernel)
            blob_accuracies.append(float(np.mean(np.sign(decision_function(svm, x)) == y)))
            kkt_ok &= kkt_report(svm, x, y).satisfied
    x_xor, y_xor = _xor_data()
    linear = train_binary_svm(x_xor, y_xor, kernel=Kernel("linear"))
    linear_acc = float(np.mean(np.sign(decision_function(linear, x_xor)) == y_xor))
    rbf = train_binary_svm(x_xor, y_xor, c=10.0, kernel=Kernel("rbf", gamma=1.0))
    rbf_acc = float(np.mean(np.sign(decision_function(rbf, x_xor)) == y_xor))
    kkt_ok &= kkt_report(linear, x_xor, y_xor).satisfied
    kkt_ok &= kkt_report(rbf, x_xor, y_xor).satisfied
    verdict(
        6,
        kkt_ok and min(blob_accuracies) == 1.0 and linear_acc <= 0.75 and rbf_acc == 1.0,
        f"KKT satisfied on all fixtures: {kkt_ok}; separable blobs min accuracy "
        f"{min(blob_accuracies):.2f} (need 1.0); XOR linear {linear_acc:.2f} (cap 0.75), "
        f"XOR rbf {rbf_acc:.2f} (need 1.0)",
    )


def test_criterion_07_feature_properties():
    rng = np.random.RandomState(36)
    bins = 16
    cap = np.log2(bins)
    entropy_ok = True
    for _ in range(200):
        kind = rng.randint(3)
        n = rng.randint(64, 4096)
        x = (rng.randn(n), rng.rand(n) * 100 - 50, rng.standard_cauchy(n))[kind]
        h = shannon_entropy(x, bins=bins)
        entropy_ok &= 0.0 <= h <= cap + 1e-12

    config = FeatureConfig(include_position_extras=True)
    profile = builtin_profile("small_pebble")
    series = generate(GenSpec(profile=profile, duration_s=1.5, sample_rate_hz=1440.0, seed=8))
    window = Window(0, series.n_samples)
    base = extract_features(series, window, config).values
    gain_ok = True
    for gain in (2.0, 8.0):  # powers of two keep histogram bin edges aligned
        scaled = TimeSeries(sample_rate_hz=series.sample_rate_hz, channels=series.channels * gain)
        out = extract_features(scaled, window, config).values
        for c in range(3):
            o = 6 * c
            gain_ok &= abs(out[o] - gain * base[o]) <= 1e-9 * max(1.0, gain * abs(base[o]))
            gain_ok &= abs(out[o + 1] - gain * base[o + 1]) <= 1e-9 * max(1.0, gain * abs(base[o + 1]))
            gain_ok &= abs(out[o + 2] - base[o + 2]) <= 1e-9 * max(1.0, abs(base[o + 2]))
            gain_ok &= abs(out[o + 3] - base[o + 3]) <= 1e-9 * max(1.0, abs(base[o + 3]))
            gain_ok &= abs(out[o + 4] - gain**2 * base[o + 4]) <= 1e-9 * gain**2 * abs(base[o + 4])
            gain_ok &= abs(out[o + 5] - base[o + 5]) <= 1e-9
        gain_ok &= abs(out[18] - base[18]) <= 1e-9
        gain_ok &= abs(out[19] - base[19]) <= 1e-9
        gain_ok &= abs(out[20] - gain * base[20]) <= 1e-9 * gain * abs(base[20])
        gain_ok &= abs(out[21] - base[21]) <= 1e-9 * max(1.0, abs(base[21]))

    flat = builtin_profile("flat")
    record = generate_dataset([flat], 50, seed=21)[0]
    floor_ok = True
    margins = []
    for column in (0, 6, 12):  # the three per-channel band-rms features
        values = np.array(
            [
                extract_features(record, w, FeatureConfig()).values[column]
                for w in segment_windows(record, 1.5, 0.5)
            ]
        )
        limit = flat.noise_floor_rms + 3.0 * values.std()
        margins.append(float(values.max() / limit))
        floor_ok &= values.max() <= limit
    verdict(
        7,
        entropy_ok and gain_ok and floor_ok,
        f"entropy within [0, log2(bins)] on 200 draws: {entropy_ok}; gain "
        f"invariance/equivariance at 1e-9: {gain_ok}; flat band RMS vs floor+3σ "
        f"(worst ratio {max(margins):.2f}): {floor_ok}",
    )


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_criterion_08_cli_determinism(tmp_path):
    outputs = {}
    for tag in ("a", "b"):
        root = tmp_path / tag
        assert run_cli("simulate", "--profile", "flat", "--duration", 6.0,
                       "--seed", 5, "--out", root / "sim_flat") == 0
        assert run_cli("simulate", "--profile", "small_stone", "--duration", 6.0,
                       "--seed", 6, "--out", root / "sim_stone") == 0
        flat_csv = root / "sim_flat" / "flat.csv"
        stone_csv = root / "sim_stone" / "small_stone.csv"
        assert run_cli("extract", flat_csv, stone_csv, "--out", root / "feats") == 0
        features = root / "feats" / "features.csv"
        assert run_cli("train", features, "--seed", 7, "--out", root / "model") == 0
        assert run_cli("evaluate", features, "--trials", 5, "--seed", 8,
                       "--out", root / "eval") == 0
        assert run_cli("classify", stone_csv, "--model", root / "model" / "model.json",
                       "--out", root / "pred") == 0
        assert run_cli("extract", flat_csv, "--out", root / "unknown") == 0
        assert run_cli("identify", "--known", features,
                       "--unknown", root / "unknown" / "features.csv",
                       "--out", root / "ident") == 0
        assert run_cli("spectrum", stone_csv, "--channel", 2, "--out", root / "spec") == 0
        outputs[tag] = sorted(p for p in root.rglob("*") if p.is_file())
    names_a = [p.relative_to(tmp_path / "a") for p in outputs["a"]]
    names_b = [p.relative_to(tmp_path / "b") for p in outputs["b"]]
    identical = names_a == names_b and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(outputs["a"], outputs["b"])
    )
    verdict(
        8,
        identical and len(outputs["a"]) == 9,
        f"all 7 commands re-run with fixed seeds: {len(outputs['a'])} output files "
        f"byte-identical across runs: {identical}",
    )


def test_criterion_09_format_round_trips(tmp_path):
    rng = np.random.RandomState(37)
    ok = True

    series = TimeSeries(sample_rate_hz=1440.0, channels=rng.randn(3, 64), label="t")
    write_dataset(tmp_path / "d1.csv", series)
    write_dataset(tmp_path / "d2.csv", read_dataset(tmp_path / "d1.csv"))
    ok &= (tmp_path / "d1.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()

    values = rng.randn(10, 5) * 10.0 ** rng.uniform(-8, 8, size=(10, 5))
    names = tuple(f"f{i}" for i in range(5))
    write_features(tmp_path / "f1.csv", values, names, labels=["x"] * 10, layout_id="L")
    table = read_features(tmp_path / "f1.csv")
    write_features(tmp_path / "f2.csv", table.values, table.names,
                   labels=table.labels, layout_id=table.layout_id)
    ok &= (tmp_path / "f1.csv").read_bytes() == (tmp_path / "f2.csv").read_bytes()

    x = np.vstack([rng.randn(8, 3) + (3, 0, 0), rng.randn(8, 3) - (3, 0, 0)])
    model = fit_svm_model(x, ["hi"] * 8 + ["lo"] * 8)
    write_model(tmp_path / "m1.json", model)
    loaded = read_model(tmp_path / "m1.json")
    write_model(tmp_path / "m2.json", loaded)
    ok &= (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
    probe = rng.randn(20, 3) * 3
    ok &= predict_batch(loaded, probe) == predict_batch(model, probe)

    for index, profile in enumerate(builtin_profiles()):
        write_profile(tmp_path / f"p1_{index}.json", profile)
        write_profile(tmp_path / f"p2_{index}.json", read_profile(tmp_path / f"p1_{index}.json"))
        ok &= (tmp_path / f"p1_{index}.json").read_bytes() == (
            tmp_path / f"p2_{index}.json"
        ).read_bytes()
    verdict(
        9,
        ok,
        "dataset, features, model (incl. identical reloaded predictions), and all "
        f"builtin profiles survive write→read→write byte-identically: {ok}",
    )


def test_criterion_10_eigen_signature_ordering():
    mean_top = {}
    for name in ("small_stone", "fine_sand", "flat"):
        record = generate_dataset([builtin_profile(name)], 50, seed=7)[0]
        tops = [
            eigenvalues_sym3(covariance3(record, w)).lambda1
            for w in segment_windows(record, 1.5, 0.5)
        ]
        mean_top[name] = float(np.mean(tops))
    ordered = mean_top["small_stone"] > mean_top["fine_sand"] > mean_top["flat"]
    verdict(
        10,
        ordered,
        "mean leading eigenvalue over 50 windows: rocky "
        f"{mean_top['small_stone']:.3e} > sand {mean_top['fine_sand']:.3e} > flat "
        f"{mean_top['flat']:.3e}: {ordered}",
    )
