"""Span tracing of the spokesense layers, installed from outside the package.

Each layer is one module of ``src/spokesense``.  ``BOUNDARIES`` names the
public functions (and the public ``Prng`` methods) that are timed.  A
function is rebound under every name by which the package's own modules look
it up (``features.bandpass`` as well as ``signals.bandpass``), so calls are
timed where the callers make them; nothing inside the package changes.

Spans nest, one thread, one stack.  A span's self time is its duration minus
the durations of its direct children.  Per span name the tracer keeps the
call count, total time and self time in memory, and exact work counts taken
from arguments and results; ``report()`` turns them into the per-layer
metrics of a traced pass.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict

BOUNDARIES = {
    "rng": (
        "derive_seed", "mix64", "Prng.u64_block", "Prng.u64", "Prng.below",
        "Prng.uniform_block", "Prng.uniform", "Prng.gaussian_block", "Prng.shuffle",
        "Prng.permutation",
    ),
    "signals": (
        "fft_radix2", "ifft_radix2", "dft_magnitude", "bandpass", "remove_mean",
        "next_pow2", "window_geometry", "segment_windows", "check_window",
    ),
    "features": (
        "extract_feature_matrix", "extract_features", "rms", "std_dev", "kurtosis",
        "skewness", "signal_energy", "shannon_entropy", "autocorrelation_peak",
        "amplitude_smoothness",
    ),
    "eigen": ("covariance3", "eigenvalues_sym3", "eigen_report_rows"),
    "synth": ("builtin_profiles", "builtin_profile", "mix_profiles", "generate", "generate_dataset"),
    "svm": (
        "fit_standardizer", "apply_standardizer", "kernel_matrix", "median_heuristic_gamma",
        "decision_function", "train_binary_svm", "kkt_report", "fit_svm_model",
        "predict_batch", "predict", "evaluate_trials",
    ),
    "similarity": (
        "euclidean_distance", "cholesky_spd", "mahalanobis_distance", "build_library",
        "rank_unknown",
    ),
    "formats": (
        "read_dataset", "write_dataset", "read_features", "write_features", "read_model",
        "write_model", "read_profile", "write_profile", "write_confusion",
        "write_distance_report", "write_eigen_report", "write_spectrum", "write_predictions",
    ),
    "cli": ("main", "build_parser"),
}

# Public functions of the layers that are deliberately not spans: both run
# inside the ``formats`` read and write spans, ``format_float`` once per value
# written, where a span would cost more than the call.
UNTRACED = {"formats": ("format_float", "check_format_metadata")}

# FFT lengths reported one by one: window band-pass (2^12), the extras
# autocorrelation (2^13), synth band noise of a 40-window record (2^16) and
# of a 60 s record, which is also the spectrum command's length (2^17).
FFT_LENGTHS = (4096, 8192, 65536, 131072)

# Spans of these functions are keyed by input length as well, ".n4096".
BY_LENGTH = ("signals.fft_radix2",)

# In these layers only calls from another layer open a span; calls inside the
# layer (``Prng.below`` -> ``u64`` -> ``u64_block``) still feed the counts
# but are not timed on their own, which keeps the tracing cost of the
# solver's scalar draws down.
ENTRY_ONLY = ("rng",)

# Self-time groups: metric name -> span names whose self times it sums; a
# name also covers its per-length spans.
SELF_GROUPS = {
    "svm.fit_self_s": ("svm.fit_svm_model", "svm.train_binary_svm"),
    "svm.kernel_matrix_s": ("svm.kernel_matrix",),
    "svm.predict_self_s": ("svm.predict_batch", "svm.predict", "svm.decision_function"),
    "signals.fft_self_s": ("signals.fft_radix2", "signals.ifft_radix2"),
    "signals.bandpass_self_s": ("signals.bandpass",),
    "signals.spectrum_self_s": ("signals.dft_magnitude",),
    "features.extract_self_s": ("features.extract_features", "features.extract_feature_matrix"),
    "features.moments_self_s": ("features.kurtosis", "features.skewness"),
    "features.entropy_self_s": ("features.shannon_entropy",),
    "features.extras_self_s": ("features.autocorrelation_peak", "features.amplitude_smoothness"),
    "formats.read_s": tuple(f"formats.{n}" for n in BOUNDARIES["formats"] if n.startswith("read_")),
    "formats.write_s": tuple(f"formats.{n}" for n in BOUNDARIES["formats"] if n.startswith("write_")),
}

# Counts reported as exact integers.  fft_flops (5 N log2 N per transform) and
# kernel_entries (m^2 per machine) are computed from sizes by a formula, not
# observed work; BENCHMARK.json labels their units "computed".
COUNTS = (
    "rng.values",
    "signals.fft_calls",
    "signals.fft_points",
    "signals.fft_flops",
    *(f"signals.fft_calls.n{n}" for n in FFT_LENGTHS),
    "signals.fft_calls.other",
    "features.windows",
    "features.degenerate_windows",
    "synth.records",
    "synth.samples",
    "svm.machines",
    "svm.machine_rows",
    "svm.kernel_entries",
    "svm.support_vectors",
    "svm.bound_support_vectors",
    "svm.unconverged_machines",
    "svm.predict_rows",
    "formats.bytes_read",
    "formats.bytes_written",
    "cli.failed_commands",
)


def _labels_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("labels")


def _count_fft(counts, args, kwargs, result):
    n = len(result)
    counts["signals.fft_calls"] += 1
    counts["signals.fft_points"] += n
    counts["signals.fft_flops"] += 5 * n * int(math.log2(n)) if n > 1 else 0
    counts[f"signals.fft_calls.n{n}" if n in FFT_LENGTHS else "signals.fft_calls.other"] += 1


def _count_fit(counts, args, kwargs, result):
    sizes = Counter(str(v) for v in _labels_arg(args, kwargs))
    for entry in result.pairwise:
        m = sizes[entry.class_a] + sizes[entry.class_b]
        counts["svm.machine_rows"] += m
        counts["svm.kernel_entries"] += m * m
        machine = entry.svm
        counts["svm.machines"] += 1
        counts["svm.support_vectors"] += len(machine.support_vectors)
        counts["svm.bound_support_vectors"] += int((abs(machine.coefficients) >= machine.c).sum())
        counts["svm.unconverged_machines"] += not machine.converged


def _count_window(counts, args, kwargs, result):
    counts["features.windows"] += 1
    counts["features.degenerate_windows"] += bool(result.degenerate)


def _count_record(counts, args, kwargs, result):
    counts["synth.records"] += 1
    counts["synth.samples"] += result.n_samples


def _count_bytes(key):
    def count(counts, args, kwargs, result):
        counts[key] += os.path.getsize(args[0] if args else kwargs["path"])
    return count


HOOKS = {
    "rng.Prng.u64_block": lambda c, a, k, r: c.update({"rng.values": len(r)}),
    "signals.fft_radix2": _count_fft,
    "features.extract_features": _count_window,
    "synth.generate": _count_record,
    "svm.fit_svm_model": _count_fit,
    "svm.predict_batch": lambda c, a, k, r: c.update({"svm.predict_rows": len(r)}),
    "cli.main": lambda c, a, k, r: c.update({"cli.failed_commands": int(r != 0)}),
    **{
        f"formats.{n}": _count_bytes("formats.bytes_read" if n.startswith("read_") else "formats.bytes_written")
        for n in BOUNDARIES["formats"]
    },
}


def _lookup(module, name: str):
    """(owner, attribute, function) of a boundary name such as ``Prng.below``."""
    owner_name, _, attr = name.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    if isinstance(owner, type):
        return owner, attr, owner.__dict__.get(attr)
    return owner, attr, getattr(owner, attr, None)


def check() -> list[str]:
    """Mismatches between ``BOUNDARIES`` and the imported package.

    A boundary that no longer exists would leave its layer's metrics at 0,
    and a new public function would hide its time in its caller's self time;
    either must be fixed here, in the same change as the package.
    """
    problems = []
    for layer, names in BOUNDARIES.items():
        module = sys.modules.get(f"spokesense.{layer}")
        if module is None:
            problems.append(f"module spokesense.{layer} is not imported")
            continue
        for name in names:
            if not callable(_lookup(module, name)[2]):
                problems.append(f"boundary {layer}.{name} is not a function of the package")
        known = set(names) | set(UNTRACED.get(layer, ()))
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not attr.startswith("_") and attr not in known):
                problems.append(f"public function {layer}.{attr} is neither a boundary nor untraced")
    return problems


class Tracer:
    """Wraps the layer boundaries of an imported ``spokesense`` package."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.outside_s = 0.0  # time inside operations with no span open
        self._idle_since = 0.0
        self._in_op = False
        self._stack: list[list] = []  # [layer, child time] per open span
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, layer: str, fn):
        clock = time.perf_counter
        stack = self._stack
        hook = HOOKS.get(span)
        by_length = span in BY_LENGTH
        entry_only = layer in ENTRY_ONLY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if entry_only and parent is not None and parent[0] == layer:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self.counts, args, kwargs, result)
                return result
            if parent is None and not self._in_op:
                raise RuntimeError(f"{span} called outside a timed operation")
            key = f"{span}.n{len(args[0])}" if by_length else span
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            if parent is None:
                self.outside_s += start - self._idle_since
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                self.calls[key] += 1
                self.total[key] += duration
                self.self_time[key] += duration - frame[1]
                if parent is None:
                    self._idle_since = end
                else:
                    parent[1] += duration
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "spokesense" or n.startswith("spokesense."))]
        for layer, names in BOUNDARIES.items():
            module = sys.modules[f"spokesense.{layer}"]
            for name in names:
                owner, attr, original = _lookup(module, name)
                wrapper = self._wrap(f"{layer}.{name}", layer, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def begin(self) -> None:
        """Mark the start of an operation; time outside spans counts from here."""
        self._in_op = True
        self._idle_since = time.perf_counter()

    def end(self) -> None:
        """Mark the end of an operation."""
        self._in_op = False
        self.outside_s += time.perf_counter() - self._idle_since

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def table(self) -> list[tuple[str, int, float, float]]:
        """(span, calls, total s, self s) for every span name, by self time."""
        rows = [(k, self.calls[k], self.total[k], self.self_time[k]) for k in self.calls]
        return sorted(rows, key=lambda row: -row[3])

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in BOUNDARIES}
        for span, value in self.self_time.items():
            out[span.split(".", 1)[0]] += value
        return out

    def report(self, traced_pass_s: float, scale: float) -> dict[str, float | int]:
        """Per-layer metrics of one traced pass whose operations took
        ``traced_pass_s``; times are multiplied by the calibration ``scale``."""
        # Spans, and the time between them, tile the operations exactly;
        # what is left is clock-reading slack.
        slack = traced_pass_s - self.outside_s - sum(self.self_time.values())
        if abs(slack) > 1e-3 * traced_pass_s + 1e-4:
            raise RuntimeError(f"tracer bookkeeping is off by {slack:.6f} s")
        calls = self.calls
        metrics: dict[str, float | int] = {
            "svm.fits": calls["svm.fit_svm_model"],
            "rng.calls": sum(n for span, n in calls.items() if span.startswith("rng.")),
            "signals.bandpass_calls": calls["signals.bandpass"],
            "eigen.signatures": calls["eigen.eigenvalues_sym3"],
            "similarity.libraries": calls["similarity.build_library"],
            "similarity.rankings": calls["similarity.rank_unknown"],
            "cli.commands": calls["cli.main"],
        }
        metrics.update({key: self.counts[key] for key in COUNTS})
        for metric, spans in SELF_GROUPS.items():
            metrics[metric] = scale * sum(
                (value for key, value in self.self_time.items()
                 if key in spans or key.rpartition(".")[0] in spans),
                0.0,
            )
        for n in FFT_LENGTHS:
            metrics[f"signals.fft_self_s.n{n}"] = scale * self.self_time[f"signals.fft_radix2.n{n}"]
        for layer, value in self.layer_self_s().items():
            metrics[f"{layer}.self_s"] = scale * value
        metrics["bench.self_s"] = scale * self.outside_s
        return metrics
