"""Discrete-event scheduler: virtual timelines, simulated locks, determinism."""

import pytest

from repro.kernel.machine import Machine
from repro.kernel.sched import NULL_LOCK, SimLock
from repro.pmem.timing import Category

PM = 64 * 1024 * 1024
WORK_NS = 5000.0


def charge_task(machine, steps, ns=WORK_NS, lock=None, trace=None, label=None):
    """A task charging ``ns`` of CPU work per step, optionally under a lock."""

    def gen():
        for _ in range(steps):
            if lock is not None:
                with machine.lock(lock):
                    machine.clock.charge(ns, Category.CPU)
            else:
                machine.clock.charge(ns, Category.CPU)
            if trace is not None:
                trace.append(label)
            yield

    return gen()


class TestVirtualTimeline:
    def test_makespan_shrinks_with_cpus(self):
        def run(cpus):
            m = Machine(PM)
            sched = m.attach_scheduler(cpus)
            for i in range(4):
                sched.spawn(charge_task(m, 8), name=f"t{i}")
            return sched.run()

        one, four = run(1), run(4)
        assert four < one / 2
        # 4 independent tasks on 4 CPUs: perfect overlap, no switches.
        assert four == pytest.approx(8 * WORK_NS)

    def test_total_work_is_preserved(self):
        """The machine clock accumulates all work regardless of CPU count;
        only the context-switch overhead differs between CPU counts."""
        totals = []
        for cpus in (1, 4):
            m = Machine(PM)
            sched = m.attach_scheduler(cpus)
            for i in range(4):
                sched.spawn(charge_task(m, 8), name=f"t{i}")
            sched.run()
            totals.append(m.clock.now_ns - sched.stats.ctx_switch_ns)
        assert totals[0] == totals[1]

    def test_single_cpu_single_task_equals_serial(self):
        """The legacy-serial guard: one CPU, one task, locks wired — the
        machine clock must advance exactly as if no scheduler existed."""
        serial = Machine(PM)
        for _ in range(8):
            with serial.lock("l"):
                serial.clock.charge(WORK_NS, Category.CPU)
        scheduled = Machine(PM)
        sched = scheduled.attach_scheduler(1)
        sched.spawn(charge_task(scheduled, 8, lock="l"))
        makespan = sched.run()
        assert scheduled.clock.now_ns == serial.clock.now_ns
        assert makespan == pytest.approx(8 * WORK_NS)
        assert sched.stats.context_switches == 0
        assert sched.lock_stats.contended == 0
        assert sched.lock_stats.wait_ns == 0.0

    def test_determinism(self):
        def run():
            m = Machine(PM)
            sched = m.attach_scheduler(3)
            for i in range(5):
                sched.spawn(charge_task(m, 6, lock="shared"), name=f"t{i}")
            makespan = sched.run()
            return (makespan, m.clock.now_ns, sched.stats.context_switches,
                    sched.lock_stats.wait_ns, sched.lock_stats.contended)

        assert run() == run()

    def test_zero_quantum_round_robins_at_syscalls(self):
        m = Machine(PM)
        sched = m.attach_scheduler(1, quantum_ns=0.0)
        trace = []
        sched.spawn(charge_task(m, 3, trace=trace, label="a"))
        sched.spawn(charge_task(m, 3, trace=trace, label="b"))
        sched.run()
        assert trace == ["a", "b", "a", "b", "a", "b"]
        assert sched.stats.context_switches > 0

    def test_quantum_amortises_context_switches(self):
        def switches(quantum_ns):
            m = Machine(PM)
            sched = m.attach_scheduler(1, quantum_ns=quantum_ns)
            sched.spawn(charge_task(m, 8))
            sched.spawn(charge_task(m, 8))
            sched.run()
            return sched.stats.context_switches

        assert switches(quantum_ns=4 * WORK_NS) < switches(quantum_ns=0.0)

    def test_context_switch_charged_to_clock(self):
        m = Machine(PM)
        sched = m.attach_scheduler(1, quantum_ns=0.0)
        sched.spawn(charge_task(m, 2))
        sched.spawn(charge_task(m, 2))
        sched.run()
        expected = 4 * WORK_NS + sched.stats.ctx_switch_ns
        assert m.clock.now_ns == pytest.approx(expected)

    def test_spawn_mid_run_inherits_virtual_time(self):
        """Fork semantics: a task spawned from inside a step becomes
        runnable at the spawner's instant, not at virtual zero."""
        m = Machine(PM)
        sched = m.attach_scheduler(2)
        child_start = []

        def parent():
            m.clock.charge(WORK_NS, Category.CPU)
            yield
            t = sched.spawn(charge_task(m, 1), name="child", cpu=1)
            child_start.append(sched.vnow())
            yield

        sched.spawn(parent(), name="parent", cpu=0)
        sched.run()
        assert child_start[0] >= WORK_NS
        assert sched.stats.tasks_completed == 2

    def test_bad_cpu_pin_rejected(self):
        m = Machine(PM)
        sched = m.attach_scheduler(2)
        with pytest.raises(ValueError):
            sched.spawn(charge_task(m, 1), cpu=5)

    def test_zero_cpus_rejected(self):
        with pytest.raises(ValueError):
            Machine(PM).attach_scheduler(0)

    def test_stats_count_steps_and_lock_acquisitions(self):
        m = Machine(PM)
        sched = m.attach_scheduler(2)
        sched.spawn(charge_task(m, 4, lock="l"))
        sched.spawn(charge_task(m, 4, lock="l"))
        sched.run()
        assert sched.stats.steps == 8
        assert sched.lock_stats.acquisitions == 8


class TestSimLock:
    def test_contended_wait_and_ipi_metered(self):
        m = Machine(PM)
        sched = m.attach_scheduler(2)
        sched.spawn(charge_task(m, 4, lock="hot"), name="a")
        sched.spawn(charge_task(m, 4, lock="hot"), name="b")
        sched.run()
        stats = m.lock("hot").stats
        assert stats.acquisitions == 8
        assert stats.contended > 0
        assert stats.wait_ns > 0
        assert stats.hold_ns > 0
        # Contending tasks sit on different CPUs: handoffs cost IPIs.
        assert stats.handoff_ipis > 0
        assert sched.lock_stats.wait_ns == stats.wait_ns

    def test_contention_stretches_makespan(self):
        def makespan(lock):
            m = Machine(PM)
            sched = m.attach_scheduler(2)
            sched.spawn(charge_task(m, 8, lock=lock), name="a")
            sched.spawn(charge_task(m, 8, lock=lock), name="b")
            return sched.run()

        # Same work, but a shared lock serialises the critical sections.
        assert makespan("shared") > makespan(None)

    def test_sharded_by_cpu_never_contends(self):
        m = Machine(PM)
        sched = m.attach_scheduler(2)

        def worker():
            for _ in range(6):
                with m.sharded_lock("percpu"):
                    m.clock.charge(WORK_NS, Category.CPU)
                yield

        sched.spawn(worker(), name="a", cpu=0)
        sched.spawn(worker(), name="b", cpu=1)
        sched.run()
        assert sched.lock_stats.acquisitions == 12
        assert sched.lock_stats.contended == 0
        # Two distinct shards materialised.
        assert "percpu.cpu0" in m._locks and "percpu.cpu1" in m._locks

    def test_reentrant_acquire(self):
        m = Machine(PM)
        sched = m.attach_scheduler(1)

        def nested():
            with m.lock("r"):
                with m.lock("r"):
                    m.clock.charge(WORK_NS, Category.CPU)
            yield

        sched.spawn(nested())
        sched.run()
        # The inner acquire is free: one acquisition, no contention.
        assert m.lock("r").stats.acquisitions == 1
        assert m.lock("r").stats.contended == 0

    def test_noop_without_scheduler(self):
        m = Machine(PM)
        before = m.clock.now_ns
        with m.lock("idle"):
            pass
        assert m.clock.now_ns == before
        assert m.lock("idle").stats.acquisitions == 0

    def test_noop_outside_running_step(self):
        m = Machine(PM)
        m.attach_scheduler(2)  # attached but not running a step
        with m.lock("idle"):
            pass
        assert m.lock("idle").stats.acquisitions == 0

    def test_null_lock_is_free(self):
        with NULL_LOCK:
            pass
        NULL_LOCK.acquire()
        NULL_LOCK.release()

    def test_machine_lock_is_memoised(self):
        m = Machine(PM)
        assert m.lock("x") is m.lock("x")
        assert isinstance(m.lock("x"), SimLock)

    def test_forked_machine_gets_fresh_locks(self):
        m = Machine(PM)
        parent_lock = m.lock("x")
        parent_lock.free_at = 99.0
        child = m.fork()
        assert child.sched is None
        assert child.lock("x") is not parent_lock
        assert child.lock("x").free_at == 0.0

    def test_sharded_bad_key_rejected(self):
        m = Machine(PM)
        with pytest.raises(ValueError):
            m.sharded_lock("x", by="color")

    def test_lock_report_sorted(self):
        m = Machine(PM)
        sched = m.attach_scheduler(1)
        sched.spawn(charge_task(m, 1, lock="b"))
        sched.spawn(charge_task(m, 1, lock="a"))
        sched.run()
        assert list(sched.lock_report()) == ["a", "b"]
