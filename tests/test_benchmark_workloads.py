"""Every benchmark workload runs one cycle of ops cleanly on the current code.

``test_public_surface.py`` checks only that names resolve; a pruned
parameter the harness still passes (such as ``TrainConfig(seed=...)``)
would otherwise show up only in a benchmark run.  This imports
``benchmarks/workloads.py`` by path and only reads it and ``BENCHMARK.json``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", ROOT / "benchmarks" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_cycle_passes_its_checks(name):
    workload = _workloads()[name](1)
    # Op 0 is the harness's warm-up; ops 1..cycle are one full cycle.
    failures = []
    for k in range(workload.cycle + 1):
        args = workload.inputs(k)
        failures.append(workload.check(args, workload.op(args)))
    assert [f for f in failures if f is not None] == []
    assert workload.finish() == []
