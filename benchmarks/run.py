"""Benchmark of opinionlab: three closed-loop workloads in one process.

Run from the repository root:

    python3 benchmarks/run.py --workload ablation_consensus --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --smoke     # all workloads at reduced size, both modes

With `--trace 0` the run sets up the workload's inputs several times
(importing the package afresh each time), then runs operations one after
another until `--seconds` have passed and at least the workload's minimum
number of operations is done, and reports the end-to-end metrics.  Times
are scaled by a fixed reference loop timed around every operation, so a
drift in the host's speed does not read as a change in the package.

With `--trace 1` it runs operations untraced for part of the time, then
wraps the package's public functions (see spans.py) and replays the same
operations.  The replay must give bit-identical outputs; the run reports
per-layer metrics from the spans and `trace.overhead_share`.

Standard output ends with two JSON lines: a `detail` record (provenance,
operation counts, quality figures, failures), then the result
`{"correct", "attempted", "failed", "metrics"}`.  The exit code is 0 only
when every operation and check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread: the arrays here are at most a few hundred wide, and a
# second thread made the baselines pass slower and noisier on 2 cores.
# Must be set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import spans as tracing  # noqa: E402
from workloads import SMOKE, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The host's speed drifts: on a shared 2-vCPU host a fixed loop ran up to
# 1.7x slower for seconds to minutes at a time, and whole sets of runs
# shifted by 30%.  A fixed numpy loop, independent of the package and timed
# before and after every operation and around set-up, stands for the host's
# speed at that moment.  Times are scaled by REFERENCE_NOMINAL_S over the
# loop's time, i.e. to a host where the loop takes REFERENCE_NOMINAL_S
# (about an unloaded 2.1 GHz Xeon vCPU).  Raw wall-clock figures are in the
# detail record.
REFERENCE_ITERATIONS = 6000
REFERENCE_NOMINAL_S = 0.2
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 1.0     # cheap set-ups repeat more, for a steadier median
TRACE_MIN_OPS = 2           # the exact-counter check needs two operations
UNTRACED_SHARE = 0.45       # of --seconds, before the traced replay


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no package source)."""


def load_package():
    """Import opinionlab afresh from this checkout's src/ directory."""
    if not (SRC / "opinionlab" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'opinionlab'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "opinionlab" or n.startswith("opinionlab.")]:
        del sys.modules[name]
    package = importlib.import_module("opinionlab")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"opinionlab was imported from {package.__file__}, not {SRC}")
    modules = {layer: importlib.import_module(f"opinionlab.{layer}") for layer in tracing.LAYERS}
    return package, SimpleNamespace(**modules)


def reference_seconds() -> float:
    """Time the fixed reference loop: a small tanh MLP forward and backward."""
    rng = np.random.default_rng(0)
    weights = [rng.standard_normal((8, 8)) * 0.3 for _ in range(3)]
    x = rng.standard_normal((128, 8))
    start = time.perf_counter()
    for _ in range(REFERENCE_ITERATIONS):
        a, acts = x, []
        for w in weights:
            a = np.tanh(a @ w)
            acts.append(a)
        g = np.ones_like(a)
        for w, a in zip(reversed(weights), reversed(acts)):
            g = (g * (1.0 - a * a)) @ w.T
    return time.perf_counter() - start


def timed_setup(workload, seed: int):
    """Median time of (fresh package import + input generation).

    Repeats at least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS
    have been spent, at most SETUP_MAX_REPEATS times; the last repetition's
    package and inputs are the ones the run uses.  Returns the package,
    modules, inputs, the raw median and the reference times around it.
    """
    times = []
    refs = [reference_seconds()]
    while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS):
        start = time.perf_counter()
        package, ol = load_package()
        inputs = workload.setup(ol, seed)
        times.append(time.perf_counter() - start)
    refs.append(reference_seconds())
    return package, ol, inputs, statistics.median(times), refs


def run_op(workload, ol, inputs, seed: int, k: int, label: str):
    """One operation: (result or None, seconds, failure messages).

    An exception from the package counts the operation as failed.
    """
    start = time.perf_counter()
    try:
        result = workload.run_op(ol, inputs, seed, k)
        failures = [f"{label} {k}: {f}" for f in result.failures]
    except Exception as err:  # noqa: BLE001 - the loop must go on and report it
        traceback.print_exc(file=sys.stderr)
        result = None
        failures = [f"{label} {k}: {type(err).__name__}: {err}"]
    return result, time.perf_counter() - start, failures


def run_loop(workload, ol, inputs, seed: int, seconds: float, min_ops: int, tracer=None):
    """Closed loop: start the next operation when the previous one ends.

    Runs at least `min_ops` operations and stops starting new ones after
    `seconds`.  Returns the operations and the reference times taken before
    the first and after each one.  With a `tracer`, its spans are tagged
    with the operation number.
    """
    label = "op" if tracer is None else "traced op"
    ops, refs = [], [reference_seconds()]
    begin = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - begin < seconds:
        if tracer is not None:
            tracer.op = len(ops)
        ops.append(run_op(workload, ol, inputs, seed, len(ops), label))
        if tracer is not None:
            tracer.op = -1
        refs.append(reference_seconds())
    return ops, refs


def nominal(seconds: float, ref_before: float, ref_after: float) -> float:
    """`seconds` scaled to a host where the reference loop takes REFERENCE_NOMINAL_S."""
    return seconds * REFERENCE_NOMINAL_S * 2.0 / (ref_before + ref_after)


def quality_figures(ops, min_ops: int) -> dict:
    """Quality over the first `min_ops` operations, which every run completes."""
    first = [r for r, _, _ in ops[:min_ops] if r is not None]
    f1 = [r.quality for r in first if r.quality is not None]
    ode = [r.ode_residual for r in first if r.ode_residual is not None]
    return {
        "test_macro_f1": statistics.median(f1) if f1 else None,
        "ode_residual_final": statistics.median(ode) if ode else None,
        "criterion4_misses": [m for r, _, _ in ops if r is not None for m in r.criterion4_misses],
    }


def git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
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
    return None


def provenance(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }


def run_untraced(workload, seed: int, seconds: float):
    _, ol, inputs, setup_raw, setup_refs = timed_setup(workload, seed)
    ops, refs = run_loop(workload, ol, inputs, seed, seconds, workload.min_ops)
    done = [(r.posts, t, k) for k, (r, t, _) in enumerate(ops) if r is not None]
    rates = [p / nominal(t, refs[k], refs[k + 1]) for p, t, k in done]
    metrics = {
        "posts_per_s": (statistics.median(rates) if rates else 0.0, "posts/s"),
        "setup_s": (nominal(setup_raw, *setup_refs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"ops": len(ops), "op_seconds": [round(t, 3) for _, t, _ in ops],
              "reference_seconds": [round(r, 4) for r in refs],
              "wall_posts_per_s": statistics.median(p / t for p, t, _ in done) if done else 0.0,
              "wall_setup_s": setup_raw,
              **quality_figures(ops, workload.min_ops)}
    return ops, [], metrics, detail


def run_traced(workload, seed: int, seconds: float):
    package, ol, inputs, _, _ = timed_setup(workload, seed)
    plain, plain_refs = run_loop(workload, ol, inputs, seed, seconds * UNTRACED_SHARE,
                                 max(workload.min_ops, TRACE_MIN_OPS))
    tracer = tracing.Tracer()
    tracer.install(package, vars(ol))
    try:
        traced, traced_refs = run_loop(workload, ol, inputs, seed, 0.0, len(plain), tracer)
    finally:
        restored = tracer.restore()

    problems = [] if restored else ["a wrapped attribute was not restored"]
    for k, ((a, _, _), (b, _, _)) in enumerate(zip(plain, traced)):
        if a is not None and b is not None and a.digest != b.digest:
            problems.append(f"op {k}: traced outputs differ from untraced outputs")
    work = {k: r.work for k, (r, _, _) in enumerate(traced) if r is not None}
    table = tracing.SpanTable(tracer.names, tracer.spans)
    counters = tracing.op_counters(tracer, table, work)
    for name in tracing.EXACT_COUNTERS:
        values = {c[name] for c in counters.values()}
        if len(values) > 1:
            problems.append(f"{name} differs between operations: {sorted(values)}")

    quality = quality_figures(traced, workload.min_ops)
    layer = tracing.layer_metrics(tracer, table, work)
    for name in tracing.QUALITY_METRICS:
        layer[name] = 0.0
    layer[workload.quality_metric] = quality["test_macro_f1"] or 0.0
    layer["model.ode_residual_final"] = quality["ode_residual_final"] or 0.0
    plain_s = sum(nominal(t, plain_refs[k], plain_refs[k + 1]) for k, (_, t, _) in enumerate(plain))
    traced_s = sum(nominal(t, traced_refs[k], traced_refs[k + 1]) for k, (_, t, _) in enumerate(traced))
    layer["trace.overhead_share"] = 1.0 - plain_s / traced_s
    metrics = {name: (value, tracing.unit_of(name)) for name, value in layer.items()}
    detail = {"ops": len(plain), "spans": len(tracer.spans), "wrapped": len(tracer.names) - 1,
              "hook_errors": sum(v for (k, _), v in tracer.counts.items() if k == "hook_errors"),
              "exact_counters": next(iter(counters.values()), {}), **quality}
    return plain + traced, problems, metrics, detail


def run(workload, seed: int, seconds: float, traced: bool):
    """One benchmark run; returns (result, detail) as printed."""
    runner = run_traced if traced else run_untraced
    ops, problems, metrics, detail = runner(workload, seed, seconds)
    failures = [f for _, _, op_failures in ops for f in op_failures] + problems
    failed = sum(1 for _, _, op_failures in ops if op_failures) + len(problems)
    detail = {"provenance": provenance(workload.name, seed, seconds, traced),
              "ops_attempted": len(ops), "ops_failed": failed,
              "failures": failures[:20], **detail}
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, detail


def declared_metrics(section: str) -> dict:
    """{name: unit} of one metric list in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def smoke() -> int:
    """Every workload at reduced size, untraced and traced twice.

    Also checks that the counters repeat across the two traced runs and
    that the printed metrics are exactly those BENCHMARK.json declares.
    """
    ok = True
    end_to_end, per_layer = declared_metrics("end_to_end"), declared_metrics("per_layer")
    for name, workload in SMOKE.items():
        start = time.perf_counter()
        result, detail = run(workload, seed=0, seconds=0, traced=False)
        runs = [run(workload, seed=s, seconds=0, traced=True) for s in (0, 1)]
        counters = [d["exact_counters"] for _, d in runs]
        repeat = counters[0] == counters[1]
        declared = ({k: v["unit"] for k, v in result["metrics"].items()} == end_to_end
                    and all({k: v["unit"] for k, v in r["metrics"].items()} == per_layer for r, _ in runs))
        passed = result["correct"] and all(r["correct"] for r, _ in runs) and repeat and declared
        ok &= passed
        print(json.dumps({"smoke": name, "passed": passed, "seconds": round(time.perf_counter() - start, 2),
                          "counters_repeat": repeat, "metrics_as_declared": declared,
                          "exact_counters": counters[0],
                          "failures": detail["failures"] + [f for _, d in runs for f in d["failures"]]}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced-size run of every workload")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result, detail = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
