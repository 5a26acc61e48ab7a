"""Command-line pipeline: simulate, extract, train, evaluate, classify, identify, spectrum.

Every command is deterministic given its inputs and ``--seed`` (falling back
to the SPOKESENSE_SEED environment variable, then 0; ``train`` ignores it) and
writes one fixed-named file into ``--out``.  A command's handler computes its
result and returns the file's name, its ``formats`` writer and what to write;
``main`` alone creates ``--out`` and writes the file.  Exit code 0 means the
output was written, 2 only that argparse could not convert the command line's
text (``--seed abc``, ``--c abc``, an unknown flag, a value outside
``choices``), and 1 that a rule failed: one ``error:`` line, no output file.
Every seed, band, range and layout rule is the library's, so a decimal seed
outside [0, 2^64), from the flag or the environment, exits 1, as does any
``--bands`` fault; ``train`` and ``identify`` also reject a features file
whose layout does not name its columns.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

from . import features as features_mod
from . import formats, signals, similarity, svm, synth
from .errors import LayoutMismatchError, SpokesenseError, ValidationError

_SEED_ENV = "SPOKESENSE_SEED"


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(_SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"bad {_SEED_ENV}: not an integer: {env!r}") from None
    return 0


def _cmd_simulate(args):
    if args.profile_file is not None:
        profile = formats.read_profile(args.profile_file)
    else:
        profile = synth.builtin_profile(args.profile)
    if any(ch in profile.name for ch in "/\\") or profile.name.startswith("."):
        raise ValidationError(
            f"profile name {profile.name!r} cannot be used as an output file name"
        )
    spec = synth.GenSpec(
        profile=profile,
        duration_s=args.duration,
        sample_rate_hz=args.rate,
        seed=_resolve_seed(args),
    )
    return f"{profile.name}.csv", formats.write_dataset, (synth.generate(spec),)


def _cmd_extract(args):
    config = features_mod.FeatureConfig(
        bands=features_mod._parse_bands(args.bands),
        entropy_bins=args.entropy_bins,
        include_position_extras=args.extras,
        window_seconds=args.window_seconds,
        overlap=args.overlap,
    )
    series = (formats.read_dataset(p) for p in args.inputs)
    values, labels, names = features_mod.extract_feature_matrix(series, config)
    labels = None if all(v is None for v in labels) else labels
    payload = (values, names, labels, config.layout_id())
    return "features.csv", formats.write_features, payload


def _require_labels(table: formats.FeatureTable, path: str) -> list[str]:
    if table.labels is None:
        raise ValidationError(f"{path} has no label column")
    return table.labels


def _require_layout(table: formats.FeatureTable, path: str) -> str:
    if table.layout_id is None:
        raise ValidationError(f"{path} has no '# layout=' metadata; re-extract features")
    try:
        config = features_mod.FeatureConfig.from_layout_id(table.layout_id)
    except LayoutMismatchError as exc:
        raise LayoutMismatchError(f"{path}: {exc}; re-extract features") from exc
    if config.feature_names() != table.names:
        raise LayoutMismatchError(f"{path}: columns do not match the layout; re-extract features")
    return table.layout_id


def _cmd_train(args):
    table = formats.read_features(args.features)
    labels = _require_labels(table, args.features)
    layout_id = _require_layout(table, args.features)
    model = svm.fit_svm_model(
        table.values,
        labels,
        kernel_name=args.kernel,
        c=args.c,
        gamma=args.gamma,
        feature_layout_id=layout_id,
    )
    return "model.json", formats.write_model, (model,)


def _cmd_evaluate(args):
    table = formats.read_features(args.features)
    labels = _require_labels(table, args.features)
    mean_accuracy, confusion = svm.evaluate_trials(
        table.values,
        labels,
        n_trials=args.trials,
        test_fraction=args.test_fraction,
        seed=_resolve_seed(args),
        kernel_name=args.kernel,
        c=args.c,
        gamma=args.gamma,
    )
    return "confusion.csv", formats.write_confusion, (confusion, mean_accuracy)


def _cmd_classify(args):
    model = formats.read_model(args.model)
    config = features_mod.FeatureConfig.from_layout_id(model.feature_layout_id)
    series = formats.read_dataset(args.input)
    windows = signals.segment_windows(series, config.window_seconds, config.overlap)
    vectors, _, _ = features_mod.extract_feature_matrix([series], config)
    predictions = svm.predict_batch(model, vectors)
    rows = [(k, w.start_index, w.length, p) for k, (w, p) in enumerate(zip(windows, predictions))]
    return "predictions.csv", formats.write_predictions, (rows,)


def _cmd_identify(args):
    known = formats.read_features(args.known)
    unknown = formats.read_features(args.unknown)
    labels = _require_labels(known, args.known)
    if _require_layout(known, args.known) != _require_layout(unknown, args.unknown):
        raise LayoutMismatchError(
            f"{args.known} and {args.unknown} were extracted with different layouts; "
            "re-extract both with the same settings"
        )
    by_class: dict[str, list[int]] = {}
    for row, label in enumerate(labels):
        by_class.setdefault(label, []).append(row)
    grouped = {name: known.values[rows] for name, rows in by_class.items()}
    library = similarity.build_library(grouped, epsilon_scale=args.epsilon_scale)
    report = similarity.rank_unknown(unknown.values, library)
    return "distances.csv", formats.write_distance_report, (report,)


def _cmd_spectrum(args):
    series = formats.read_dataset(args.input)
    spectrum = signals.dft_magnitude(
        series.channels[args.channel - 1], series.sample_rate_hz
    )
    return "spectrum.csv", formats.write_spectrum, (spectrum,)


def _add_seed(parser, help: str = f"64-bit seed (default: ${_SEED_ENV} if set, else 0)") -> None:
    parser.add_argument("--seed", type=int, default=None, help=help)


def _add_out(parser) -> None:
    parser.add_argument(
        "--out", default=".", help="output directory (default: current directory)"
    )


def _add_svm_flags(parser) -> None:
    parser.add_argument(
        "--kernel",
        choices=svm.KERNEL_NAMES,
        default=svm.DEFAULT_KERNEL,
        help="kernel type (default: %(default)s)",
    )
    parser.add_argument(
        "--c",
        type=float,
        default=svm.DEFAULT_C,
        help="soft-margin box constraint (default: %(default)s)",
    )
    parser.add_argument(
        "--gamma",
        type=float,
        default=None,
        help="rbf width (default: median pairwise-distance heuristic)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spokesense",
        description=(
            "Terrain identification from wheel-spoke vibration: synthesize "
            "records, extract band features, train and evaluate classifiers, "
            "and rank unknown terrains by distance."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a labeled vibration record")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--profile",
        help="builtin profile name: " + ", ".join(x.name for x in synth.builtin_profiles()),
    )
    group.add_argument("--profile-file", help="path to a profile JSON document")
    p.add_argument(
        "--duration", type=float, default=10.0, help="seconds (default: %(default)s)"
    )
    p.add_argument(
        "--rate",
        type=float,
        default=synth.DEFAULT_SAMPLE_RATE_HZ,
        help="sample rate in Hz (default: %(default)s)",
    )
    _add_seed(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("extract", help="extract per-window features from dataset CSVs")
    p.add_argument("inputs", nargs="+", help="dataset CSV paths")
    p.add_argument(
        "--window-seconds",
        type=float,
        default=signals.DEFAULT_WINDOW_SECONDS,
        help="analysis window length in seconds (default: %(default)s)",
    )
    p.add_argument(
        "--overlap",
        type=float,
        default=signals.DEFAULT_OVERLAP,
        help="window overlap fraction in [0, 1) (default: %(default)s)",
    )
    p.add_argument(
        "--bands",
        default=",".join(f"{b.low_hz:g}:{b.high_hz:g}" for b in features_mod.DEFAULT_BANDS),
        help="three bands as lo1:hi1,lo2:hi2,lo3:hi3 (default: %(default)s)",
    )
    p.add_argument(
        "--entropy-bins",
        type=int,
        default=features_mod.DEFAULT_ENTROPY_BINS,
        help="histogram bins for entropy (default: %(default)s)",
    )
    p.add_argument(
        "--extras",
        action="store_true",
        help="append the 4 periodicity/impulsiveness descriptors (22 columns total)",
    )
    _add_out(p)
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("train", help="train a one-vs-one classifier from labeled features")
    p.add_argument("features", help="labeled feature CSV")
    _add_svm_flags(p)
    _add_seed(p, help="accepted and ignored: training is deterministic")
    _add_out(p)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("evaluate", help="repeated stratified-split evaluation")
    p.add_argument("features", help="labeled feature CSV")
    p.add_argument(
        "--trials",
        type=int,
        default=svm.DEFAULT_TRIALS,
        help="number of random splits (default: %(default)s)",
    )
    p.add_argument(
        "--test-fraction",
        type=float,
        default=svm.DEFAULT_TEST_FRACTION,
        help="held-out fraction per class (default: %(default)s)",
    )
    _add_svm_flags(p)
    _add_seed(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("classify", help="predict a terrain per window of a dataset CSV")
    p.add_argument("input", help="dataset CSV")
    p.add_argument("--model", required=True, help="model JSON from 'train'")
    _add_out(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser(
        "identify", help="rank an unknown recording against known classes by distance"
    )
    p.add_argument("--known", required=True, help="labeled feature CSV of known classes")
    p.add_argument("--unknown", required=True, help="feature CSV of the unknown recording")
    p.add_argument(
        "--epsilon-scale",
        type=float,
        default=similarity.DEFAULT_EPSILON_SCALE,
        help="covariance ridge scale (default: %(default)s)",
    )
    _add_out(p)
    p.set_defaults(handler=_cmd_identify)

    p = sub.add_parser("spectrum", help="one-sided magnitude spectrum of one channel")
    p.add_argument("input", help="dataset CSV")
    p.add_argument(
        "--channel", type=int, choices=(1, 2, 3), required=True, help="sensor channel"
    )
    _add_out(p)
    p.set_defaults(handler=_cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    path = None
    try:
        name, writer, payload = args.handler(args)
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"--out {args.out!r} is not a usable directory: {exc}") from exc
        path = Path(args.out) / name
        writer(path, *payload)
    except SpokesenseError as exc:
        if path is not None:
            with contextlib.suppress(OSError):  # e.g. the name is taken by a directory
                path.unlink(missing_ok=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
