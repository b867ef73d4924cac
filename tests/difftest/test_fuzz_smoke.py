"""Differential fuzzing: bounded tier-1 smoke plus the longer CI sweep.

The smoke test keeps `pytest -x -q` fast; the seeds-by-the-dozen sweep is
marked ``fuzz_slow`` and runs in the dedicated CI job (see ci.yml).
"""

from __future__ import annotations

import pytest

from repro.difftest import (generate_ops, run_crash_differential,
                            run_differential)
from repro.difftest.generator import FILE_PATHS
from repro.factory import SYSTEM_NAMES


def test_generation_is_pure_in_the_seed():
    assert generate_ops(5, 80) == generate_ops(5, 80)
    assert generate_ops(5, 80) != generate_ops(6, 80)


def test_smoke_seed7_is_clean_and_deterministic():
    ops = generate_ops(7, 60)
    a = run_differential(ops, seed=7)
    b = run_differential(ops, seed=7)
    assert a.ok, "\n" + a.format()
    assert a.format() == b.format()
    assert a.state_digest == b.state_digest


def test_generator_hits_the_edge_cases():
    ops = generate_ops(3, 400)
    calls = {op.call for op in ops}
    # The vocabulary the issue asks for must actually be exercised.
    for call in ("open", "write", "pwrite", "read", "pread", "rename",
                 "unlink", "ftruncate", "fsync", "lseek", "fail_alloc",
                 "clear_faults"):
        assert call in calls, f"generator never emitted {call}"
    paths = {op.path for op in ops if op.path}
    assert any(p in paths for p in FILE_PATHS)


def test_fault_windows_are_always_closed():
    for seed in range(6):
        ops = generate_ops(seed, 150)
        depth = 0
        for op in ops:
            if op.call == "fail_alloc":
                depth += 1
            elif op.call == "clear_faults":
                depth -= 1
        assert depth == 0, f"seed {seed} left the fault injector armed"


@pytest.mark.fuzz_slow
@pytest.mark.parametrize("seed", range(12))
def test_sweep_300_ops(seed):
    report = run_differential(generate_ops(seed, 300), seed=seed)
    assert report.ok, "\n" + report.format()


@pytest.mark.fuzz_slow
@pytest.mark.parametrize("seed", range(12))
def test_crash_sweep_300_ops(seed):
    reports = run_crash_differential(generate_ops(seed, 300),
                                     kinds=SYSTEM_NAMES, seed=seed)
    failed = [report.format() for report in reports.values() if not report.ok]
    assert not failed, "\n" + "\n".join(failed)
