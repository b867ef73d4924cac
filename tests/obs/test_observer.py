"""Span tracing and attribution invariants."""

import pytest

from repro.obs import NULL_OBSERVER, NullObserver, Observer
from repro.pmem.timing import Category, SimClock


def traced_clock(**kwargs):
    clock = SimClock()
    obs = Observer(**kwargs)
    obs.bind(clock)
    return clock, obs


class TestNullObserver:
    def test_disabled_and_shared_span(self):
        assert NULL_OBSERVER.enabled is False
        span = NULL_OBSERVER.span("anything", cat="x")
        assert span is NULL_OBSERVER.span("other")  # one shared singleton
        with span:
            pass  # no-op

    def test_bind_rejected(self):
        with pytest.raises(TypeError):
            NullObserver().bind(SimClock())

    def test_default_clock_observer_is_null(self):
        assert SimClock().obs is NULL_OBSERVER


class TestSpanNesting:
    def test_synthetic_nesting_self_child_and_fences(self):
        clock, obs = traced_clock()
        with obs.span("a", cat="x"):
            clock.charge(10, Category.CPU)
            obs.on_fence()
            with obs.span("b", cat="y"):
                clock.charge(5, Category.DATA)
            clock.charge(1, Category.META_IO)

        assert [s.name for s in obs.events] == ["b", "a"]  # completion order
        b, a = obs.events
        # Self/child decomposition is exact.
        assert a.self_cpu_ns == 10 and a.self_meta_ns == 1
        assert b.self_data_ns == 5 and b.self_ns == 5
        assert a.child_ns == b.duration_ns == 5
        assert a.duration_ns == a.self_ns + a.child_ns == 16
        # Depths reflect stack position.
        assert a.depth == 0 and b.depth == 1
        # Fence epochs: child window inside parent window, ordered.
        assert a.start_fences == 0 and a.end_fences == 1
        assert b.start_fences == 1 and b.end_fences == 1
        assert a.start_fences <= b.start_fences <= b.end_fences <= a.end_fences

    def test_charges_outside_spans_are_unattributed(self):
        clock, obs = traced_clock()
        clock.charge(7, Category.CPU)
        with obs.span("a", cat="x"):
            clock.charge(3, Category.CPU)
        assert obs.attribution["other"]["cpu"] == 7
        assert obs.attribution["x"]["cpu"] == 3
        assert obs.total_attributed_ns() == clock.now_ns == 10

    def test_span_exits_on_exception(self):
        clock, obs = traced_clock()
        with pytest.raises(RuntimeError):
            with obs.span("a", cat="x"):
                clock.charge(2, Category.CPU)
                raise RuntimeError("boom")
        assert not obs._stack  # stack unwound
        assert obs.events and obs.events[0].name == "a"

    def test_collapsed_stacks_accumulate_self_time(self):
        clock, obs = traced_clock()
        for _ in range(2):
            with obs.span("a", cat="x"):
                clock.charge(4, Category.CPU)
                with obs.span("b", cat="y"):
                    clock.charge(6, Category.DATA)
        assert obs.collapsed[("a",)] == 8
        assert obs.collapsed[("a", "b")] == 12

    def test_max_events_bounds_list_not_attribution(self):
        clock, obs = traced_clock(max_events=3)
        for _ in range(10):
            with obs.span("a", cat="x"):
                clock.charge(1, Category.CPU)
        assert len(obs.events) == 3
        assert obs.dropped_events == 7
        assert obs.attribution["x"]["cpu"] == 10  # never dropped

    def test_begin_zeroes_collected_state(self):
        clock, obs = traced_clock()
        with obs.span("a", cat="x"):
            clock.charge(5, Category.CPU)
        obs.on_fence()
        obs.begin()
        assert obs.events == [] and obs.attribution == {}
        assert obs.collapsed == {} and obs.fence_count == 0
        # Still live: new charges are collected afresh.
        with obs.span("z", cat="w"):
            clock.charge(2, Category.CPU)
        assert obs.attribution == {"w": {"data": 0.0, "meta_io": 0.0,
                                         "cpu": 2.0}}


WORKLOAD_SYSTEMS = ("ext4dax", "splitfs-strict")


def run_traced_append(system, total_kb=512):
    from repro.bench.harness import append_4k_workload

    obs = Observer()
    m = append_4k_workload(system, total_bytes=total_kb * 1024, observer=obs)
    return obs, m


class TestWorkloadInvariants:
    """Invariants over a real traced workload's full span population."""

    @pytest.mark.parametrize("system", WORKLOAD_SYSTEMS)
    def test_span_population_well_formed(self, system):
        obs, _ = run_traced_append(system)
        assert obs.events and not obs.dropped_events
        for s in obs.events:
            # Intervals are ordered on the simulated clock...
            assert s.start_ns <= s.end_ns
            # ...self time and child time decompose the duration exactly
            # (parent >= sum of children, with equality since every charge
            # lands either in self or in a descendant)...
            assert s.self_ns >= 0 and s.child_ns >= 0
            assert s.duration_ns == pytest.approx(s.self_ns + s.child_ns,
                                                  abs=1e-6)
            # ...and no span crosses a fence epoch backwards.
            assert s.start_fences <= s.end_fences <= obs.fence_count

    @pytest.mark.parametrize("system", WORKLOAD_SYSTEMS)
    def test_attribution_is_exact_partition(self, system):
        obs, m = run_traced_append(system)
        assert obs.total_attributed_ns() == pytest.approx(
            m.account.total_ns, abs=1e-3)
        # Per time-category sums match the measurement split too.
        for key, want in (("data", m.account.data_ns),
                          ("meta_io", m.account.meta_io_ns),
                          ("cpu", m.account.cpu_ns)):
            got = sum(b[key] for b in obs.attribution.values())
            assert got == pytest.approx(want, abs=1e-3), key

    def test_ext4dax_shows_kernel_cost_categories(self):
        """Paper Figure 1: trap, allocation and journaling are distinct
        nonzero contributors on the kernel FS path."""
        obs, _ = run_traced_append("ext4dax")
        totals = obs.attribution_totals()
        for cat in ("trap", "alloc", "journal", "fs"):
            assert totals.get(cat, 0.0) > 0.0, cat

    def test_splitfs_data_attributes_to_userspace(self):
        """SplitFS-POSIX appends stage in user space: the data bytes land
        in the staging category, not behind the kernel trap."""
        obs, m = run_traced_append("splitfs-posix")
        staging = obs.attribution.get("staging", {})
        assert staging.get("data", 0.0) == pytest.approx(
            m.account.data_ns, abs=1e-3)
        trap = obs.attribution.get("trap", {})
        assert trap.get("data", 0.0) == 0.0

    def test_syscall_spans_present_per_system(self):
        names = {s.name for s in run_traced_append("ext4dax")[0].events}
        assert "ext4.pwrite" in names and "kernel.trap" in names
        names = {s.name for s in run_traced_append("splitfs-strict")[0].events}
        assert "usplit.pwrite" in names and "usplit.stage_data" in names

    def test_fences_counted(self):
        obs, m = run_traced_append("ext4dax")
        assert obs.fence_count == m.io.fences
