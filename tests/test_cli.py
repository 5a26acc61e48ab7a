"""End-to-end command-line tests.

Each test drives ``main`` with argv lists and asserts on exit codes, the
files left behind, and agreement with the library called directly.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from spokesense import features as features_mod
from spokesense import formats, signals, svm
from spokesense.cli import main
from spokesense.synth import builtin_profile


def run(*argv):
    return main([str(a) for a in argv])


def read_lines(path):
    return path.read_text().splitlines()


def simulate(tmp_path, profile, seed, duration=6.0, subdir="data"):
    out = tmp_path / subdir
    assert run("simulate", "--profile", profile, "--duration", duration,
               "--seed", seed, "--out", out) == 0
    return out / f"{profile}.csv"


def extract(tmp_path, inputs, subdir, *flags):
    out = tmp_path / subdir
    assert run("extract", *inputs, "--out", out, *flags) == 0
    return out / "features.csv"


# ---------------------------------------------------------------- simulate


def test_simulate_row_count_and_rerun_identical(tmp_path):
    first = simulate(tmp_path, "flat", 9, duration=10.0, subdir="one")
    second = simulate(tmp_path, "flat", 9, duration=10.0, subdir="two")
    data_rows = [ln for ln in read_lines(first) if not ln.startswith("#")][1:]
    assert len(data_rows) == 14400  # 10 s at the default 1440 Hz
    assert first.read_bytes() == second.read_bytes()
    changed = simulate(tmp_path, "flat", 10, duration=10.0, subdir="three")
    assert first.read_bytes() != changed.read_bytes()


def test_simulate_unknown_profile_lists_builtins(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("simulate", "--profile", "nosuch", "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    for name in ("flat", "fine_sand", "small_stone", "small_pebble", "large_stone", "mixture"):
        assert name in err
    assert not out.exists() or not list(out.iterdir())


def test_simulate_profile_file(tmp_path):
    profile_path = tmp_path / "custom.json"
    formats.write_profile(profile_path, builtin_profile("fine_sand"))
    out = tmp_path / "o"
    assert run("simulate", "--profile-file", profile_path, "--duration", 2.0,
               "--seed", 3, "--out", out) == 0
    direct = simulate(tmp_path, "fine_sand", 3, duration=2.0, subdir="direct")
    assert (out / "fine_sand.csv").read_bytes() == direct.read_bytes()


def test_simulate_rejects_path_like_profile_name(tmp_path, capsys):
    profile_path = tmp_path / "evil.json"
    formats.write_profile(profile_path, builtin_profile("flat"))
    doc = json.loads(profile_path.read_text())
    doc["name"] = "../escape"
    profile_path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert run("simulate", "--profile-file", profile_path, "--out", out) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "escape.csv").exists()


def test_out_path_that_is_a_file_fails_typed(tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("keep\n")
    for out in (blocker, blocker / "sub"):
        assert run("simulate", "--profile", "flat", "--duration", 1.0, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --out") and err.count("\n") == 1
        assert "Traceback" not in err
    assert blocker.read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["F"]


def test_unwritable_output_fails_typed(tmp_path, capsys):
    out = tmp_path / "o"
    (out / "flat.csv").mkdir(parents=True)  # the output's name is taken by a directory
    assert run("simulate", "--profile", "flat", "--duration", 1.0, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert "Traceback" not in err
    assert [p.name for p in out.iterdir()] == ["flat.csv"]
    assert not any((out / "flat.csv").iterdir())


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that is always full")
def test_failed_write_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    (out / "flat.csv").symlink_to("/dev/full")  # every write fails with ENOSPC
    assert run("simulate", "--profile", "flat", "--duration", 1.0, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert not list(out.iterdir())


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SPOKESENSE_SEED", "41")
    from_env = simulate(tmp_path, "flat", 41, duration=2.0, subdir="explicit")
    out = tmp_path / "env"
    assert run("simulate", "--profile", "flat", "--duration", 2.0, "--out", out) == 0
    assert (out / "flat.csv").read_bytes() == from_env.read_bytes()


def test_seed_env_invidious_value_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPOKESENSE_SEED", "not-a-number")
    out = tmp_path / "o"
    assert run("simulate", "--profile", "flat", "--duration", 1.0, "--out", out) == 1
    assert "SPOKESENSE_SEED" in capsys.readouterr().err


def test_argparse_errors_exit_2(tmp_path):
    assert run("nonsense") == 2
    assert run("simulate") == 2  # profile choice is required
    assert run("simulate", "--profile", "flat", "--duration", "-1") == 2
    assert run("spectrum", "x.csv", "--channel", "4") == 2


# ---------------------------------------------------------------- extract


def test_extract_window_count_and_columns(tmp_path):
    dataset = simulate(tmp_path, "flat", 5, duration=10.0)
    plain = extract(tmp_path, [dataset], "plain")
    table = formats.read_features(plain)
    # 14400 samples, 2160-sample windows, 1080-sample stride -> 12 windows
    assert table.values.shape == (12, 18)
    assert len(table.names) == 18
    assert table.labels == ["flat"] * 12
    assert table.layout_id is not None
    extras = extract(tmp_path, [dataset], "extras", "--extras")
    wide = formats.read_features(extras)
    assert wide.values.shape == (12, 22)
    assert wide.layout_id != table.layout_id


def test_extract_failure_leaves_no_output(tmp_path, capsys):
    dataset = simulate(tmp_path, "flat", 5, duration=1.0)  # shorter than one window
    out = tmp_path / "f"
    assert run("extract", dataset, "--out", out) == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "features.csv").exists()


def test_extract_rejects_mixed_labeling(tmp_path, capsys):
    labeled = simulate(tmp_path, "flat", 5)
    series = formats.read_dataset(labeled)
    bare = tmp_path / "bare.csv"
    formats.write_dataset(
        bare,
        signals.TimeSeries(
            sample_rate_hz=series.sample_rate_hz, channels=series.channels, label=None
        ),
    )
    out = tmp_path / "o"
    assert run("extract", labeled, bare, "--out", out) == 1
    assert "label" in capsys.readouterr().err
    assert not (out / "features.csv").exists()


# ------------------------------------------------- train / classify / evaluate


@pytest.fixture()
def labeled_features(tmp_path):
    datasets = [
        simulate(tmp_path, "flat", 21, subdir="sim_flat"),
        simulate(tmp_path, "small_stone", 22, subdir="sim_stone"),
    ]
    return datasets, extract(tmp_path, datasets, "features")


def test_train_then_classify_matches_library(tmp_path, labeled_features):
    datasets, features = labeled_features
    model_dir = tmp_path / "model"
    assert run("train", features, "--seed", 7, "--out", model_dir) == 0
    model_path = model_dir / "model.json"
    pred_dir = tmp_path / "pred"
    assert run("classify", datasets[1], "--model", model_path, "--out", pred_dir) == 0

    model = formats.read_model(model_path)
    series = formats.read_dataset(datasets[1])
    config = features_mod.FeatureConfig.from_layout_id(model.feature_layout_id)
    windows = signals.segment_windows(
        series, signals.DEFAULT_WINDOW_SECONDS, signals.DEFAULT_OVERLAP
    )
    vectors = np.vstack(
        [features_mod.extract_features(series, w, config).values for w in windows]
    )
    expected = svm.predict_batch(model, vectors)

    rows = [ln.split(",") for ln in read_lines(pred_dir / "predictions.csv")[2:]]
    assert [r[3] for r in rows] == expected
    assert [int(r[0]) for r in rows] == list(range(len(windows)))
    assert [int(r[1]) for r in rows] == [w.start_index for w in windows]
    assert all(int(r[2]) == windows[0].length for r in rows)
    # the two source recordings are far apart; training windows classify cleanly
    assert set(expected) == {"small_stone"}


def test_train_ignores_seed(tmp_path, labeled_features):
    _, features = labeled_features
    assert run("train", features, "--seed", 7, "--out", tmp_path / "a") == 0
    assert run("train", features, "--seed", 8, "--out", tmp_path / "b") == 0
    first = (tmp_path / "a" / "model.json").read_bytes()
    assert first == (tmp_path / "b" / "model.json").read_bytes()


def test_classify_layout_contradiction_fails(tmp_path, labeled_features, capsys):
    datasets, features = labeled_features
    model_dir = tmp_path / "model"
    assert run("train", features, "--seed", 7, "--out", model_dir) == 0
    model_path = model_dir / "model.json"
    doc = json.loads(model_path.read_text())
    doc["feature_layout_id"] = features_mod.FeatureConfig(
        include_position_extras=True
    ).layout_id()
    model_path.write_text(json.dumps(doc))
    out = tmp_path / "pred"
    assert run("classify", datasets[0], "--model", model_path, "--out", out) == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "predictions.csv").exists()


def test_classify_non_utf8_model_fails_typed(tmp_path, capsys):
    dataset = simulate(tmp_path, "flat", 5, duration=2.0)
    model = tmp_path / "bad.json"
    model.write_bytes(b'{"format": "\xff"}\n')
    out = tmp_path / "pred"
    assert run("classify", dataset, "--model", model, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (out / "predictions.csv").exists()


def test_evaluate_deterministic_and_confusion_shape(tmp_path, labeled_features):
    _, features = labeled_features
    out_a = tmp_path / "eval_a"
    out_b = tmp_path / "eval_b"
    for out in (out_a, out_b):
        assert run("evaluate", features, "--trials", 10, "--seed", 11, "--out", out) == 0
    assert (out_a / "confusion.csv").read_bytes() == (out_b / "confusion.csv").read_bytes()
    lines = read_lines(out_a / "confusion.csv")
    assert lines[1] == "class,flat,small_stone"
    # 2 classes x 10 trials x 1 held-out row each -> 20 total counts
    counts = [int(v) for ln in lines[2:4] for v in ln.split(",")[1:]]
    assert sum(counts) == 20
    accuracy = float(lines[4].removeprefix("# accuracy="))
    assert 0.0 <= accuracy <= 1.0

    out_c = tmp_path / "eval_c"
    assert run("evaluate", features, "--trials", 10, "--seed", 12, "--out", out_c) == 0


def test_evaluate_single_window_class_named_in_error(tmp_path, capsys):
    dataset = simulate(tmp_path, "flat", 5)
    table = formats.read_features(extract(tmp_path, [dataset], "feats"))
    labels = list(table.labels)
    labels[-1] = "loner"
    crippled = tmp_path / "crippled.csv"
    formats.write_features(
        crippled, table.values, table.names, labels=labels, layout_id=table.layout_id
    )
    out = tmp_path / "o"
    assert run("evaluate", crippled, "--out", out) == 1
    err = capsys.readouterr().err
    assert "loner" in err
    assert not (out / "confusion.csv").exists()


def test_train_requires_labels_and_layout(tmp_path, labeled_features, capsys):
    _, features = labeled_features
    table = formats.read_features(features)
    unlabeled = tmp_path / "unlabeled.csv"
    formats.write_features(unlabeled, table.values, table.names, layout_id=table.layout_id)
    assert run("train", unlabeled, "--out", tmp_path / "m1") == 1
    assert "label" in capsys.readouterr().err
    no_layout = tmp_path / "no_layout.csv"
    formats.write_features(no_layout, table.values, table.names, labels=table.labels)
    assert run("train", no_layout, "--out", tmp_path / "m2") == 1
    assert "layout" in capsys.readouterr().err


# ---------------------------------------------------- degenerate training data


def write_table(tmp_path, name, values, labels):
    config = features_mod.FeatureConfig()
    path = tmp_path / name
    formats.write_features(
        path, values, config.feature_names(), labels=labels, layout_id=config.layout_id()
    )
    return path


def spread_rows(n, seed):
    return np.random.RandomState(seed).randn(n, features_mod.FeatureConfig().n_features)


@pytest.fixture()
def solver_batches(monkeypatch):
    """Sizes of the batches handed to the batched SVM trainer."""
    sizes = []
    trainer = svm._train_machines

    def counting(*args, **kwargs):
        machines = trainer(*args, **kwargs)
        sizes.append(len(machines))
        return machines

    monkeypatch.setattr(svm, "_train_machines", counting)
    return sizes


def test_identical_rows_fail_train_and_evaluate(tmp_path, capsys, solver_batches):
    rows = np.repeat(spread_rows(1, 50), 8, axis=0)
    table = write_table(tmp_path, "same.csv", rows, ["a"] * 4 + ["b"] * 4)
    for command in ("train", "evaluate"):
        out = tmp_path / command
        assert run(command, table, "--out", out) == 1
        assert "all sampled training rows coincide" in capsys.readouterr().err
        assert not out.exists()
    assert solver_batches == []


def test_one_row_class_fails_evaluate(tmp_path, capsys):
    table = write_table(tmp_path, "lone.csv", spread_rows(7, 51), ["a"] * 6 + ["lone"])
    out = tmp_path / "eval"
    assert run("evaluate", table, "--out", out) == 1
    assert "'lone' has 1 rows" in capsys.readouterr().err
    assert not out.exists()


def degenerate_tables(tmp_path):
    """(path, classes) of training sets the batched trainer must accept."""
    base = spread_rows(12, 52)
    labels = ["a"] * 6 + ["b"] * 6
    duplicated = np.vstack([base, base[:3], base[6:9]])
    yield write_table(
        tmp_path, "opposite.csv", duplicated, labels + ["b"] * 3 + ["a"] * 3
    ), 2
    yield write_table(tmp_path, "two.csv", spread_rows(6, 53), ["a", "a", "b", "b", "c", "c"]), 3
    yield write_table(tmp_path, "one.csv", spread_rows(3, 54), ["a", "b", "c"]), 3
    zero_channel = spread_rows(15, 55)
    zero_channel[:, :6] = 0.0
    yield write_table(tmp_path, "zeros.csv", zero_channel, ["a", "b", "c"] * 5), 3


def test_degenerate_training_sets_train(tmp_path, solver_batches):
    for table, classes in degenerate_tables(tmp_path):
        out = tmp_path / table.stem
        assert run("train", table, "--out", out) == 0
        model = formats.read_model(out / "model.json")
        assert len(model.pairwise) == classes * (classes - 1) // 2
        assert solver_batches.pop() == len(model.pairwise)
    assert solver_batches == []


# ---------------------------------------------------------------- identify


def test_identify_copy_of_known_wins_both_metrics(tmp_path, labeled_features):
    datasets, features = labeled_features
    unknown = extract(tmp_path, [datasets[0]], "unknown")
    out = tmp_path / "ident"
    assert run("identify", "--known", features, "--unknown", unknown, "--out", out) == 0
    lines = read_lines(out / "distances.csv")
    assert lines[1] == "class,euclidean,mahalanobis"
    assert "# nearest_euclidean=flat" in lines
    assert "# nearest_mahalanobis=flat" in lines
    assert "# metric_divergence=false" in lines


def test_identify_layout_mismatch_fails(tmp_path, labeled_features, capsys):
    datasets, features = labeled_features
    unknown = extract(tmp_path, [datasets[0]], "wide_unknown", "--extras")
    out = tmp_path / "ident"
    assert run("identify", "--known", features, "--unknown", unknown, "--out", out) == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "distances.csv").exists()


def test_identify_requires_known_labels(tmp_path, labeled_features, capsys):
    datasets, features = labeled_features
    table = formats.read_features(features)
    unlabeled = tmp_path / "unlabeled.csv"
    formats.write_features(unlabeled, table.values, table.names, layout_id=table.layout_id)
    out = tmp_path / "ident"
    assert run("identify", "--known", unlabeled, "--unknown", features, "--out", out) == 1
    assert "label" in capsys.readouterr().err


# ---------------------------------------------------------------- spectrum


def test_spectrum_peak_at_tonal_frequency(tmp_path):
    dataset = simulate(tmp_path, "small_stone", 2, duration=4.0)
    out = tmp_path / "spec"
    assert run("spectrum", dataset, "--channel", 2, "--out", out) == 0
    lines = read_lines(out / "spectrum.csv")
    assert lines[0] == "# spokesense-spectrum v1"
    resolution = float(lines[1].removeprefix("# bin_resolution_hz="))
    rows = [ln.split(",") for ln in lines[3:]]
    freqs = np.array([float(r[0]) for r in rows])
    mags = np.array([float(r[1]) for r in rows])
    assert freqs[1] - freqs[0] == pytest.approx(resolution)
    in_band = (freqs >= 150) & (freqs <= 250)
    peak = freqs[in_band][np.argmax(mags[in_band])]
    # the small-stone profile carries a 200 Hz resonance
    assert abs(peak - 200.0) <= 2 * resolution


def test_stdout_lists_written_paths(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("simulate", "--profile", "flat", "--duration", 1.0, "--seed", 1,
               "--out", out) == 0
    assert capsys.readouterr().out.strip() == str(out / "flat.csv")
