"""Bounded crash-state exploration: every kind, zero violations, pure."""

import pytest

from repro.crashmc import KIND_PROPS, explore, record_trace
from repro.crashmc.workload import generate_workload


class TestRecordTrace:
    def test_trace_has_fences_and_stores(self):
        ops = generate_workload(0, 4)
        trace = record_trace("splitfs-strict", ops)
        assert trace.fences > 0
        assert trace.stores > 0
        # One count per closed epoch plus the open one.
        assert len(trace.stores_per_epoch) == trace.fences + 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            explore("not-a-fs", nops=2)


class TestExplore:
    @pytest.mark.parametrize("kind", sorted(KIND_PROPS))
    def test_every_kind_bounded_smoke(self, kind):
        report = explore(kind, nops=4, seed=0, intra=2,
                         max_states=6)
        assert report.states_explored > 0
        assert report.ok, report.format()

    def test_exhaustive_fence_enumeration(self):
        """Without a bound, every fence of the trace yields one state."""
        report = explore("splitfs-posix", nops=5, seed=2)
        assert report.states_explored == report.trace.fences
        assert report.ok, report.format()

    def test_deterministic_bit_for_bit(self):
        a = explore("splitfs-strict", nops=4, seed=1, intra=3)
        b = explore("splitfs-strict", nops=4, seed=1, intra=3)
        assert a.format() == b.format()
        assert a.states_explored == b.states_explored


class TestExploreWithRAS:
    def test_media_faults_repaired_zero_violations(self):
        report = explore("ext4dax", nops=6, seed=0,
                         max_states=4, ras=True, media_rate=0.05)
        assert report.ok, report.format()
        t = report.ras_totals
        assert t["poisoned_lines"] > 0
        assert t["detected"] == t["repaired"] > 0
        assert t["unrecoverable"] == 0

    def test_ras_ledger_deterministic(self):
        a = explore("splitfs-posix", nops=4, seed=1,
                    max_states=4, ras=True, media_rate=0.05)
        b = explore("splitfs-posix", nops=4, seed=1,
                    max_states=4, ras=True, media_rate=0.05)
        assert a.ras_totals == b.ras_totals
        assert a.format() == b.format()

    def test_media_rate_requires_ras(self):
        with pytest.raises(ValueError):
            explore("ext4dax", nops=2, media_rate=0.01)
