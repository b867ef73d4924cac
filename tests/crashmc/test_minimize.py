"""ddmin workload minimisation and reproducer emission."""

import pytest

import repro.crashmc.explorer as explorer_mod
import repro.crashmc.oracles as oracles
from repro.cli import main
from repro.crashmc import KindProps, emit_reproducer, explore, minimize
from repro.crashmc.workload import Op, generate_workload


class TestMinimizePredicate:
    def test_minimizes_to_single_triggering_op(self):
        """With a synthetic predicate, ddmin must find the 1-op core."""
        ops = generate_workload(0, 6)
        assert any(o.kind == "append" for o in ops)

        def failing(report):
            return any(o.kind == "append" for o in report.ops)

        small = minimize("ext4dax", ops, failing=failing)
        assert len(small.ops) == 1
        assert small.ops[0].kind == "append"

    def test_passing_workload_rejected(self):
        ops = [Op("append", 0, size=10, fill=7)]
        with pytest.raises(ValueError):
            minimize("ext4dax", ops)


class TestBrokenOracle:
    def test_broken_oracle_yields_minimized_reproducer(self, monkeypatch):
        """Deliberately break the ext4dax oracle (claim synchronous data
        durability it does not provide): the explorer must flag violations
        and the minimizer must shrink the workload and emit a runnable
        reproducer script."""
        monkeypatch.setitem(
            oracles.KIND_PROPS, "ext4dax",
            KindProps(sync_data=True, atomic_ops=False, overwrites_sync=False))
        # ext4dax only fences at fsync; a crash during the first fsync's
        # journal commit finds the completed append not yet durable, which
        # the broken oracle (wrongly) flags.
        ops = [
            Op("append", 0, size=500, fill=1),
            Op("fsync", 0),
            Op("append", 0, size=700, fill=2),
            Op("overwrite", 0, offset=100, size=50, fill=3),
            Op("fsync", 0),
        ]
        report = explore("ext4dax", ops=ops, seed=3)
        assert not report.ok  # unsynced data now (wrongly) required durable

        small = minimize("ext4dax", ops, seed=3)
        # The 1-op cores cannot fail (a lone data op fences nothing, a lone
        # fsync has no data): ddmin must land on one data op + one fsync.
        assert len(small.ops) == 2
        assert small.ops[0].kind in ("append", "overwrite")
        assert small.ops[1].kind == "fsync"
        assert small.violations

        script = emit_reproducer(small)
        compile(script, "<reproducer>", "exec")  # must be valid python
        assert "explore(" in script
        assert f"SEED = 3" in script
        for op in small.ops:
            assert op.kind in script


class TestSweepOptions:
    def test_reorder_only_violation_minimizes_with_the_sweep_options(
            self, monkeypatch, capsys):
        """`repro crashmc --reorder 2 --minimize` must minimise under the
        sweep's options: a violation only reorder states expose vanishes
        from a plain re-exploration, and the reproducer must keep it."""
        real = explorer_mod._examine

        def examine(report, kind, machine, shadow, inflight, state, *rest):
            real(report, kind, machine, shadow, inflight, state, *rest)
            if " reorder " in state:
                report.violations.append(explorer_mod.Violation(
                    kind=kind, state=state, inflight=None,
                    messages=["synthetic reorder-only violation"]))

        monkeypatch.setattr(explorer_mod, "_examine", examine)
        assert explore("pmfs", nops=6).ok
        assert main(["crashmc", "--fs", "pmfs", "--ops", "6",
                     "--reorder", "2", "--minimize"]) == 1
        out = capsys.readouterr().out
        assert "minimized to 1 op(s)" in out
        script = out[out.index("#!/usr/bin/env python"):]
        assert "'reorder': 2" in script
        with pytest.raises(SystemExit) as exc:
            exec(compile(script, "<reproducer>", "exec"), {})
        assert exc.value.code == 1  # the reproducer still fails
