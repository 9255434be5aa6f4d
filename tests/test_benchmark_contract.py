"""The benchmark's workloads still run against the package.

`benchmarks/workloads.py` and `benchmarks/spans.py` are imported as they
are, and one operation of each reduced-size (SMOKE) workload runs through
the package, once plain and once with every public function traced.  A
renamed function, a changed signature or a failing output check shows here
rather than in a benchmark run.  So does a call that no longer passes the
tracer's hooks what they count, such as per-row times as the second
argument of `network.forward_with_time_derivative`.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import opinionlab

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(module)
    return module


workloads = load_benchmark_module("workloads")
spans = load_benchmark_module("spans")
LAYERS = {layer: importlib.import_module(f"opinionlab.{layer}") for layer in spans.LAYERS}


@pytest.mark.parametrize("name", sorted(workloads.SMOKE))
def test_smoke_workload_operation(name):
    workload = workloads.SMOKE[name]
    ol = SimpleNamespace(**LAYERS)
    inputs = workload.setup(ol, 0)
    plain = workload.run_op(ol, inputs, 0, 0)
    assert plain.failures == []
    assert plain.posts > 0

    tracer = spans.Tracer()
    tracer.install(opinionlab, LAYERS)
    try:
        traced = workload.run_op(ol, inputs, 0, 0)
    finally:
        assert tracer.restore()
    assert traced.failures == []
    assert traced.digest == plain.digest
    assert sum(v for (k, _), v in tracer.counts.items() if k == "hook_errors") == 0
    if isinstance(workload, workloads.TrainingWorkload):
        # Every regularized step evaluates all users at each collocation point.
        steps = math.ceil(len(inputs[0][0]) / workloads.BATCH_SIZE) * workload.epochs
        rows = sum(v for (k, _), v in tracer.counts.items() if k == "tangent_rows")
        assert rows == workload.num_users * workload.collocation * steps
