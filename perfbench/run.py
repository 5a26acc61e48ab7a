"""Benchmark of the spokesense pipeline.

Run from the root of a source tree; the package is imported from ./src.

One workload in this process:
    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 30 --trace 0
Every workload, untraced and traced, each in a fresh process:
    python3 perfbench/run.py --all --seed 1 --seconds 30

With ``--trace 0`` the passes run untraced and the last line of stdout is a
JSON object with the end-to-end metrics; with ``--trace 1`` untraced and
traced passes alternate and the JSON holds the per-layer metrics.  Metric
names and units come from BENCHMARK.json.  A readable report goes to stderr.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS/OpenMP to one thread before numpy is loaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
IMPORT_REPS = 10  # package imports timed for the import part of setup_s


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(np) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "spokesense").glob("*.py")):
        src_hash.update(path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": src_hash.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
    }


def clear_caches() -> None:
    """Empty the package's module-level caches so every set-up pays to fill them."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("spokesense") or module is None:
            continue
        for attr, value in vars(module).items():
            if attr.endswith("_CACHE") and isinstance(value, dict):
                value.clear()


def import_package() -> float:
    """Seconds to import the package afresh in this process, numpy already
    loaded; the modules the workload uses are put back afterwards."""
    def ours():
        return [n for n in sys.modules if n == "spokesense" or n.startswith("spokesense.")]

    saved = {n: sys.modules.pop(n) for n in ours()}
    start = time.perf_counter()
    importlib.import_module("spokesense")
    seconds = time.perf_counter() - start
    for n in ours():
        del sys.modules[n]
    sys.modules.update(saved)
    return seconds


def scale(probes, sensitivity: float) -> float:
    """Calibration scale: the kernel's reference time over its median time
    in ``probes``, to the power ``sensitivity`` (see calibration.py)."""
    return (calibration.REFERENCE_S / statistics.median(probes)) ** sensitivity


class Run:
    """Measurement of one workload in this process."""

    def __init__(self, workload, seconds: float, ops_class):
        self.wl = workload
        self.seconds = seconds
        self.ops_class = ops_class  # workloads.Ops
        self.probes: list[float] = []  # kernel times taken before the operations
        self.reference = None  # outputs of the first pass
        self.attempted = 0
        self.failed = 0
        self.quality: list = []

    def setup(self, rep: int) -> float:
        clear_caches()
        start = time.perf_counter()
        self.wl.setup(rep)
        return time.perf_counter() - start

    def timed_pass(self, tracer=None):
        """One pass; returns (Ops, PassResult), or None if it raised."""
        ops = self.ops_class(calibration.kernel, tracer)
        try:
            if tracer is not None:
                tracer.install()
            result = self.wl.run_pass(ops)
        except Exception:  # a failed operation ends the measurement, reported below
            traceback.print_exc()
            self.attempted += len(ops.op_s) + 1
            self.failed += 1
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
            self.probes += ops.probe_s
        self.attempted += len(ops.op_s)
        self.failed += result.failures
        self.quality += result.quality
        if self.reference is None:
            self.reference = result.outputs
        else:
            keys = set(self.reference) | set(result.outputs)
            self.failed += sum(self.reference.get(k) != result.outputs.get(k) for k in keys)
        return ops, result

    def untraced(self):
        """At least two passes; another only while it fits in the budget."""
        passes = []
        start = time.perf_counter()
        while True:
            done = self.timed_pass()
            if done is None:
                break
            passes.append(done)
            spent = time.perf_counter() - start
            if len(passes) >= 2 and spent + spent / len(passes) > self.seconds:
                break
        return passes

    def traced(self, spans):
        """Pairs of an untraced and a traced pass, at least two pairs."""
        plain, traced, tracers = [], [], []
        start = time.perf_counter()
        while True:
            done = self.timed_pass()
            if done is None:
                break
            tracer = spans.Tracer()
            done_traced = self.timed_pass(tracer)
            if done_traced is None:
                break
            plain.append(done[0])
            traced.append(done_traced[0])
            tracers.append(tracer)
            spent = time.perf_counter() - start
            if len(traced) >= 2 and spent + spent / len(traced) > self.seconds:
                break
        return plain, traced, tracers


def per_layer(plain, traced, tracers, run: Run) -> dict:
    """Layer times of the median traced pass; counts must repeat in every pass.

    Every time is calibrated with the scale of the kernel times taken
    before the operations.  The overhead is the median over pairs of a
    traced pass minus the untraced pass before it.
    """
    factor = scale(run.probes, run.wl.SENSITIVITY)
    plain_s = [sum(ops.op_s) for ops in plain]
    traced_s = [sum(ops.op_s) for ops in traced]
    reports = []
    for tracer, wall in zip(tracers, traced_s):
        reports.append(tracer.report(wall, factor))
        # Package work that no span wraps would hide in the benchmark's own time.
        run.failed += tracer.outside_s > 0.01 * wall
    mid = sorted(range(len(traced_s)), key=traced_s.__getitem__)[(len(traced_s) - 1) // 2]
    metrics = dict(reports[mid])
    for key, value in metrics.items():
        if isinstance(value, int):
            run.failed += sum(r[key] != value for r in reports)
    metrics["trace.pass_s"] = factor * traced_s[mid]
    metrics["trace.untraced_pass_s"] = factor * statistics.median(plain_s)
    metrics["trace.overhead_s"] = factor * statistics.median(t - p for p, t in zip(plain_s, traced_s))
    print(f"  {'span (median traced pass, wall)':<36} {'calls':>9} {'total_s':>10} {'self_s':>10}",
          file=sys.stderr)
    for span, calls, total, own in tracers[mid].table():
        print(f"  {span:<36} {calls:>9} {total:>10.4f} {own:>10.4f}", file=sys.stderr)
    return metrics


def end_to_end(wl, setup_s, passes, factor) -> tuple[dict, dict]:
    """Gated metrics, and the figures printed beside them.

    A pass's time is the sum of its operations' times.  The gated times are
    calibrated: multiplied by the ``factor`` of the kernel times taken before
    the operations.  The other figures are wall time.
    """
    wall = [sum(p[0].op_s) for p in passes]
    ops = [t for p in passes for t in p[0].op_s]
    items = passes[0][1].items
    pass_s = statistics.median(wall)
    metrics = {
        "setup_s": factor * setup_s,
        "pass_s.cal": factor * pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    p90 = statistics.quantiles(ops, n=10, method="inclusive")[8]
    extra = {
        "pass_times_s": [round(t, 4) for t in wall],
        "calibration_scale": factor,
        "pass_s": pass_s,
        f"{wl.items_label}_per_s": items / pass_s,
        f"{wl.items_label}_per_s.cal": items / metrics["pass_s.cal"],
        f"{wl.op_label}_s.p50": statistics.median(ops),
        f"{wl.op_label}_s.p90": p90,
        f"{wl.op_label}_samples": len(ops),
        f"{wl.op_label}_samples_beyond_p90": sum(t > p90 for t in ops),
        f"{wl.items_label}_per_pass": items,
    }
    return metrics, extra


def run_workload(args) -> int:
    if not (SRC / "spokesense" / "__init__.py").is_file():
        print(f"error: no spokesense package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import spokesense

    if Path(spokesense.__file__).resolve().parent != (SRC / "spokesense").resolve():
        print(f"error: spokesense was imported from {spokesense.__file__}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.trace:
        problems = spans.check()
        for problem in problems:
            print(f"error: {problem}; update BOUNDARIES in perfbench/spans.py", file=sys.stderr)
        if problems:
            return 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    first_import_s = time.perf_counter() - _START
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    run = Run(wl, args.seconds, workloads.Ops)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            setup_reps = [run.setup(rep) for rep in range(wl.setup_reps)]
            if args.trace:
                plain, traced, tracers = run.traced(spans)
            else:
                passes = run.untraced()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    report = {"workload": wl.name, "seed": args.seed, **environment(np)}
    report["warnings"] = len(caught)
    for w in caught[:5]:
        print(f"captured {w.category.__name__}: {w.message}", file=sys.stderr)
    if args.trace:
        if not tracers:
            print("error: no traced pass completed", file=sys.stderr)
            return 1
        metrics = per_layer(plain, traced, tracers, run)
        section = "per_layer"
        report["untraced_pass_times_s"] = [round(sum(ops.op_s), 4) for ops in plain]
        report["traced_pass_times_s"] = [round(sum(ops.op_s), 4) for ops in traced]
    else:
        if not passes:
            print("error: no pass completed", file=sys.stderr)
            return 1
        import_reps = [import_package() for _ in range(IMPORT_REPS)]
        setup_s = statistics.median(import_reps) + statistics.median(setup_reps)
        metrics, extra = end_to_end(wl, setup_s, passes, scale(run.probes, wl.SENSITIVITY))
        extra["package_import_reps_s"] = [round(t, 4) for t in import_reps]
        extra["setup_reps_s"] = [round(t, 4) for t in setup_reps]
        extra["calibration_s.p50"] = statistics.median(run.probes)
        extra["first_import_s"] = first_import_s  # numpy and the package, once, at start-up
        section = "end_to_end"
        report.update(extra)
        if run.quality:
            report[wl.quality_label] = statistics.fmean(run.quality)
    report["error_rate"] = run.failed / max(run.attempted, 1)
    for key, value in {**report, **metrics}.items():
        print(f"  {key:<36} {value}", file=sys.stderr)

    out = {}
    for entry in declared[section]:
        out[entry["name"]] = {"value": metrics[entry["name"]], "unit": entry["unit"]}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": out,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in fresh processes, untraced then traced; a combined table."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    rows = []
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            print(f"== {workload} trace={trace}", file=sys.stderr, flush=True)
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"error: {workload} trace={trace} exited {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            rows.append((workload, "error_rate", result["failed"] / result["attempted"], "1"))
            rows += [(workload, k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
    for workload, name, value, unit in rows:
        print(f"{workload:<10} {name:<36} {value:>16.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("evaluate", "identify", "cli-chain"))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
