"""Self-tests of the benchmark at tiny input sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import run as bench  # noqa: E402
from perfbench.stats import quantile, tail_percentile  # noqa: E402
from perfbench.tracing import LAYERS, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(workload: str, trace: int):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_printed(workload):
    result = _result(workload, 0)
    assert _units(result) == {m["name"]: m["unit"]
                              for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_metrics_printed(workload):
    # ``correct`` also covers the span check and the traced digest.
    result = _result(workload, 1)
    assert _units(result) == {m["name"]: m["unit"]
                              for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tracing_leaves_simulation_bit_identical(workload):
    w = WORKLOADS[workload](5, "tiny")
    tracer = Tracer()
    plain, _ = bench.run_repeat(w)
    traced, wall = bench.run_repeat(w, tracer)
    assert traced.digest == plain.digest
    assert traced.sim_ns_per_op == plain.sim_ns_per_op
    assert traced.sim_quantiles() == plain.sim_quantiles()
    assert traced.failed == plain.failed == 0
    # Self times plus the time outside every span add up to the wall.
    assert tracer.check(wall) == []
    total = sum(tracer.self_s) + tracer.other_s(wall)
    assert total == pytest.approx(wall, rel=1e-9)
    assert len(tracer.span_start) > 0


def test_uninstall_restores_every_attribute():
    from repro.crashmc import explorer, systems
    from repro.pmem.device import PersistentMemory
    from repro.pmem.timing import SimClock

    before = (PersistentMemory.store, PersistentMemory.__init__,
              SimClock.charge, explorer.check_state, systems.recover)
    tracer = Tracer()
    tracer.install()
    try:
        assert PersistentMemory.store is not before[0]
        assert explorer.check_state is not before[3]
        assert systems.recover is not before[4]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = (PersistentMemory.store, PersistentMemory.__init__,
             SimClock.charge, explorer.check_state, systems.recover)
    assert after == before
    assert not tracer.installed


def test_every_layer_has_a_metric_in_the_spec():
    names = {m["name"] for m in SPEC["per_layer"]}
    assert {row[1] for row in LAYERS} <= names


def test_quantile_estimator():
    assert quantile([7.0] * 50, 0.5) == pytest.approx(7.0)
    xs = [float(i) for i in range(1001)]
    assert quantile(xs, 0.5) == pytest.approx(500.0)
    assert quantile(xs, 0.9) < quantile(xs, 0.99) < 1000.0
    assert tail_percentile(12480) == 99
    assert tail_percentile(120) == 91


def test_without_simulator_source_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("append-fsync", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
