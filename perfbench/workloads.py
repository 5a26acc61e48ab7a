"""The three benchmark workloads.

Every workload is a closed loop with one caller: one process, one thread,
each operation starting when the previous one has returned.  ``setup(rep)``
builds inputs from the seed; ``run_pass(ops)`` does one pass, timing each
operation with ``ops.timed()``, and returns a ``PassResult``.  Every pass of
a run does identical work, so its outputs must be identical to the first
pass's; the runner compares them.

Package functions are called as module attributes (``svm.evaluate_trials``),
looked up at call time, so the tracer's wrappers see these calls too.  The
tracer accepts package calls only inside ``ops.timed()``, so everything else
(seed derivation included) happens in ``setup``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spokesense import cli, eigen, features, signals, similarity, svm, synth
from spokesense.rng import derive_seed


def known_profiles():
    return [p for p in synth.builtin_profiles() if p.name != synth.UNKNOWN_TERRAIN_NAME]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def warm_fft(lengths) -> None:
    for n in lengths:
        signals.fft_radix2(np.zeros(n))


class Ops:
    """Times the operations of one pass: ``with ops.timed(): ...`` around each.

    ``probe`` (the calibration kernel, see calibration.py) runs just before
    every operation, outside its time.  ``tracer`` is told where each
    operation begins and ends, so the tracer counts time outside its spans
    only inside operations, not in the benchmark's own checks.
    """

    def __init__(self, probe=None, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.op_s: list[float] = []  # latency of each operation
        self.probe_s: list[float] = []  # kernel time before each operation

    @contextlib.contextmanager
    def timed(self):
        if self.probe:
            self.probe_s.append(self.probe())
        if self.tracer is not None:
            self.tracer.begin()
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.end()
        self.op_s.append(elapsed)


@dataclass
class PassResult:
    items: int = 0  # trials (evaluate) or windows made into feature rows
    failures: int = 0  # operations that raised and output checks missed
    outputs: dict = field(default_factory=dict)  # output id -> digest
    quality: list = field(default_factory=list)  # accuracy per trial / top-2 hit per run


class Evaluate:
    """Criterion-1 shape: train/test trials over ready feature matrices.

    Each set-up repetition builds one dataset of 5 known terrains x 80
    windows per class from its own derived seed, so the timed trials
    rotate over ``DATASETS`` datasets and a run's cost depends less on one
    draw of data.  A pass is ``TRIALS_PER_PASS`` trials with seeds derived
    from the workload seed, the same in every pass.  Trial s of
    ``evaluate_trials(n_trials=n, seed=m)`` is exactly
    ``evaluate_trials(n_trials=1, seed=m ^ s)``, so each call is one trial.
    """

    name = "evaluate"
    items_label = "trials"
    op_label = "trial"
    quality_label = "accuracy"
    setup_reps = DATASETS = 5
    # Calibration exponent (see calibration.py).  Over two sets of ten runs
    # pass times spread by 0.098 and 0.111 with 0.7, by 0.197 and 0.165
    # with 1, and by 0.199 and 0.305 uncalibrated.
    SENSITIVITY = 0.7
    TRIALS_PER_PASS = 15
    ACCURACY_FLOOR = 0.85

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.datasets: dict[int, tuple[np.ndarray, list]] = {}

    def setup(self, rep: int) -> None:
        records = synth.generate_dataset(
            known_profiles(), 80, seed=derive_seed(self.seed, "evaluate", rep)
        )
        matrix, labels, _ = features.extract_feature_matrix(records, features.FeatureConfig())
        self.datasets[rep] = (matrix, labels)
        self.trial_seeds = [derive_seed(self.seed, "trial", j) for j in range(self.TRIALS_PER_PASS)]

    def run_pass(self, ops: Ops) -> PassResult:
        out = PassResult()
        for j in range(self.TRIALS_PER_PASS):
            matrix, labels = self.datasets[j % self.DATASETS]
            with ops.timed():
                accuracy, confusion = svm.evaluate_trials(
                    matrix, labels, n_trials=1, test_fraction=0.2, seed=self.trial_seeds[j],
                    kernel_name="rbf", c=10.0,
                )
            out.items += 1
            out.quality.append(accuracy)
            out.outputs[f"trial{j}"] = digest(np.float64(accuracy), confusion.counts)
        out.failures += bool(np.mean(out.quality) < self.ACCURACY_FLOOR)
        return out


class Identify:
    """Criterion-2 shape, with criterion 10's eigen-signatures, over seeded runs.

    A run synthesizes the 5 known terrains and the mixture at 40 windows
    each, extracts features record by record, takes the eigen-signature of
    every window, builds the library and ranks the mixture.  A pass is
    ``RUNS_PER_PASS`` runs whose seeds derive from the workload seed; every
    pass repeats the same runs.
    """

    name = "identify"
    items_label = "windows"
    op_label = "run"
    quality_label = "top2_rate"
    setup_reps = 10
    # Its time is mostly numpy over whole windows and records, which the
    # machine's slow phases move less than the kernel: over ten runs, pass
    # times calibrated with exponent 0.7 spread by 0.177, with 0.2 by 0.053,
    # uncalibrated by 0.087.
    SENSITIVITY = 0.2
    RUNS_PER_PASS = 2
    WINDOWS = 40
    EXPECTED = {"fine_sand", "small_stone"}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self, rep: int) -> None:
        self.known = known_profiles()
        self.mixture = synth.builtin_profile(synth.UNKNOWN_TERRAIN_NAME)
        self.config = features.FeatureConfig()
        self.run_seeds = [derive_seed(self.seed, "identify", r) for r in range(self.RUNS_PER_PASS)]
        warm_fft((4096, 65536))

    def _run(self, run_seed: int):
        records = synth.generate_dataset(self.known, self.WINDOWS, seed=run_seed)
        records += synth.generate_dataset([self.mixture], self.WINDOWS, seed=run_seed ^ 0xABCDEF)
        matrices = {}
        for record in records:
            matrices[record.label], _, _ = features.extract_feature_matrix([record], self.config)
        signatures = np.array([
            eigen.eigenvalues_sym3(eigen.covariance3(record, w)).as_tuple()
            for record in records
            for w in signals.segment_windows(record, 1.5, 0.5)
        ])
        unknown = matrices.pop(self.mixture.name)
        library = similarity.build_library(matrices)
        report = similarity.rank_unknown(unknown, library)
        return matrices, unknown, signatures, report

    def run_pass(self, ops: Ops) -> PassResult:
        out = PassResult()
        for r, run_seed in enumerate(self.run_seeds):
            with ops.timed():
                matrices, unknown, signatures, report = self._run(run_seed)
            out.items += unknown.shape[0] + sum(m.shape[0] for m in matrices.values())
            hit = (set(report.ranked("euclidean")[:2]) == self.EXPECTED
                   or set(report.ranked("mahalanobis")[:2]) == self.EXPECTED)
            out.quality.append(float(hit))
            ordered = bool(np.all(signatures[:, 0] >= signatures[:, 1])
                           and np.all(signatures[:, 1] >= signatures[:, 2]))
            out.failures += not ordered
            out.outputs[f"run{r}"] = digest(
                unknown, *matrices.values(), signatures, report.euclidean, report.mahalanobis
            )
        return out


class CliChain:
    """Criterion-8 command order through ``cli.main`` on 60 s records.

    Simulate the 5 known terrains and the mixture, extract the known ones
    with ``--extras``, train, evaluate a few trials, classify one record,
    extract the mixture, identify it and take a 2^17-point spectrum.  Every
    pass repeats the same chain into a fresh directory; outputs are hashed
    and the directory removed.
    """

    name = "cli-chain"
    items_label = "windows"
    op_label = "command"
    quality_label = None
    setup_reps = 10
    # Over ten runs pass times spread by 0.028 with 0.7, by 0.172 with 1
    # and by 0.223 uncalibrated.
    SENSITIVITY = 0.7
    DURATION_S = 60
    TRIALS = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self, rep: int) -> None:
        self.profiles = [p.name for p in known_profiles()] + [synth.UNKNOWN_TERRAIN_NAME]
        self.seeds = {p: derive_seed(self.seed, "simulate", p) for p in self.profiles}
        self.model_seed = derive_seed(self.seed, "model")
        self.workdir.mkdir(parents=True, exist_ok=True)
        warm_fft((4096, 8192, 131072))

    def commands(self, d: Path) -> list[list[str]]:
        data = d / "data"
        known = [str(data / f"{p}.csv") for p in self.profiles[:-1]]
        mixture = str(data / f"{self.profiles[-1]}.csv")
        feats = str(d / "feats" / "features.csv")
        seed = str(self.model_seed)
        chain = [
            ["simulate", "--profile", p, "--duration", str(self.DURATION_S),
             "--seed", str(self.seeds[p]), "--out", str(data)]
            for p in self.profiles
        ]
        chain += [
            ["extract", *known, "--extras", "--out", str(d / "feats")],
            ["train", feats, "--seed", seed, "--out", str(d / "model")],
            ["evaluate", feats, "--trials", str(self.TRIALS), "--seed", seed, "--out", str(d / "eval")],
            ["classify", str(data / "small_stone.csv"), "--model", str(d / "model" / "model.json"),
             "--out", str(d / "pred")],
            ["extract", mixture, "--extras", "--out", str(d / "unknown")],
            ["identify", "--known", feats, "--unknown", str(d / "unknown" / "features.csv"),
             "--out", str(d / "ident")],
            ["spectrum", str(data / "small_stone.csv"), "--channel", "2", "--out", str(d / "spec")],
        ]
        return chain

    def run_pass(self, ops: Ops) -> PassResult:
        out = PassResult()
        d = self.workdir / "pass"
        shutil.rmtree(d, ignore_errors=True)
        sink = io.StringIO()
        try:
            for argv in self.commands(d):
                with ops.timed(), contextlib.redirect_stdout(sink):
                    code = cli.main(argv)
                out.failures += code != 0
            for path in sorted(p for p in d.rglob("*") if p.is_file()):
                out.outputs[str(path.relative_to(d))] = hashlib.sha256(path.read_bytes()).hexdigest()
            out.items = sum(
                sum(1 for line in path.read_text().splitlines() if line and not line.startswith("#")) - 1
                for path in (d / "feats" / "features.csv", d / "unknown" / "features.csv",
                             d / "pred" / "predictions.csv")
                if path.exists()
            )
        finally:
            shutil.rmtree(d, ignore_errors=True)
        return out


WORKLOADS = {w.name: w for w in (Evaluate, Identify, CliChain)}
