"""A discrete-event scheduler: N simulated CPUs over one machine clock.

The machine's :class:`~repro.pmem.timing.SimClock` is a strictly monotonic
*work* accumulator — every nanosecond any CPU spends lands in it — so it
cannot double as N per-CPU timelines.  The scheduler therefore keeps its own
**virtual timeline**: each CPU has a virtual "free at" instant, tasks are
generators that run one *step* (the work between two ``yield``\\ s — a
syscall boundary) inline on the machine clock, and the step's charged
duration advances the owning CPU's virtual time.  Steps of tasks on
different CPUs overlap in virtual time even though Python executes them one
after another, so the **makespan** (the max virtual CPU time) shrinks as
CPUs are added while the clock keeps the total work honest.

Dispatch is an event heap ordered by ``(virtual ready time, seq)``: a task
that yields re-enters the heap at its step's virtual end, so runnable tasks
on one CPU naturally round-robin at syscall boundaries (cooperative
scheduling — there is no preemption, matching the syscall-granularity
interleavings the difftest sweep explores).  Dispatching a different task
than the one that last ran on a CPU charges ``SCHED_CONTEXT_SWITCH_NS``.

Locks (:class:`SimLock`) use a resource-availability model rather than
sleep/wake queues: a lock is a virtual instant ``free_at``; an acquire that
lands before it *waits* — the wait is charged to the machine clock (inside
whatever obs span is open, so lock waits show up in latency attribution)
and metered into ``sched.lock.*`` metrics.  A contended handoff from a
different CPU additionally charges an IPI.  When no scheduler is attached
or no task is current, every lock operation is a complete no-op — zero
cost, zero state — which is what keeps single-client goldens bit-identical.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from ..obs.metrics import counter_field
from ..pmem import constants as C
from ..pmem.timing import Category


@dataclass
class SchedStats:
    """Aggregate scheduler counters (metrics source ``sched.cpu``)."""

    tasks_spawned: int = counter_field()
    tasks_completed: int = counter_field()
    steps: int = counter_field()
    context_switches: int = counter_field()
    ipis: int = counter_field()
    busy_ns: float = counter_field()
    ctx_switch_ns: float = counter_field()


@dataclass
class LockStats:
    """Lock counters; the scheduler's aggregate instance is the metrics
    source ``sched.lock`` (per-lock instances live on each SimLock)."""

    acquisitions: int = counter_field()
    contended: int = counter_field()
    wait_ns: float = counter_field()
    hold_ns: float = counter_field()
    handoff_ipis: int = counter_field()


class _NullLock:
    """Free no-op lock for components built without a machine-backed lock."""

    __slots__ = ()

    def acquire(self) -> None:
        pass

    def release(self) -> None:
        pass

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc) -> None:
        pass


#: Shared do-nothing lock instance (safe to share: it has no state).
NULL_LOCK = _NullLock()


class SimLock:
    """A simulated mutex on the scheduler's virtual timeline.

    Reentrant for the owning task.  Use as a context manager.  Without an
    attached running scheduler, acquire/release are no-ops — uncontended
    and un-scheduled code paths must cost exactly zero.
    """

    __slots__ = ("name", "machine", "free_at", "last_cpu", "stats",
                 "_owner", "_depth", "_acquired_at")

    def __init__(self, name: str, machine) -> None:
        self.name = name
        self.machine = machine
        self.free_at = 0.0  # virtual ns at which the lock is next free
        self.last_cpu = -1  # CPU of the last owner (for IPI accounting)
        self.stats = LockStats()
        self._owner = None
        self._depth = 0
        self._acquired_at = 0.0

    def acquire(self) -> None:
        sched = self.machine.sched
        if sched is None or sched.current is None:
            return
        task = sched.current
        if self._owner is task:
            self._depth += 1
            return
        vnow = sched.vnow()
        self.stats.acquisitions += 1
        sched.lock_stats.acquisitions += 1
        if self.free_at > vnow:
            wait = self.free_at - vnow
            if 0 <= self.last_cpu != task.cpu:
                # Cross-CPU handoff: the wakeup/ownership transfer costs an
                # IPI on top of the wait itself.
                wait += sched.ipi_ns
                self.stats.handoff_ipis += 1
                sched.lock_stats.handoff_ipis += 1
                sched.stats.ipis += 1
            self.stats.contended += 1
            self.stats.wait_ns += wait
            sched.lock_stats.contended += 1
            sched.lock_stats.wait_ns += wait
            sched.clock.charge(wait, Category.CPU)
        self._owner = task
        self._depth = 1
        self._acquired_at = sched.vnow()
        self.last_cpu = task.cpu

    def release(self) -> None:
        sched = self.machine.sched
        if self._owner is None or sched is None or sched.current is not self._owner:
            return  # acquire was a no-op (or foreign unlock): mirror it
        if self._depth > 1:
            self._depth -= 1
            return
        vnow = sched.vnow()
        hold = vnow - self._acquired_at
        self.stats.hold_ns += hold
        sched.lock_stats.hold_ns += hold
        self.free_at = vnow
        self._owner = None
        self._depth = 0

    # Both are no-ops without a scheduler; skip the call then.

    def __enter__(self) -> "SimLock":
        if self.machine.sched is not None:
            self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        if self.machine.sched is not None:
            self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimLock({self.name!r}, free_at={self.free_at})"


class ShardedLock:
    """A family of SimLocks picked by the current task's CPU or identity.

    ``by="cpu"`` models per-CPU structures (NOVA's free lists): tasks on
    different CPUs hit different shards and never contend.  ``by="task"``
    models per-process structures (Strata's private logs).  Without a
    running scheduler everything maps to shard 0, which is a no-op lock
    anyway.
    """

    __slots__ = ("name", "machine", "by", "_entered")

    def __init__(self, name: str, machine, by: str = "cpu") -> None:
        if by not in ("cpu", "task"):
            raise ValueError(f"unknown shard key {by!r}")
        self.name = name
        self.machine = machine
        self.by = by
        self._entered: List[SimLock] = []

    def _pick(self) -> SimLock:
        sched = self.machine.sched
        if sched is None or sched.current is None:
            key = 0
        elif self.by == "cpu":
            key = sched.current.cpu
        else:
            key = sched.current.tid
        return self.machine.lock(f"{self.name}.{self.by}{key}")

    def __enter__(self) -> SimLock:
        lock = self._pick()
        lock.acquire()
        self._entered.append(lock)
        return lock

    def __exit__(self, *exc) -> None:
        self._entered.pop().release()


class Task:
    """One schedulable activity: a generator yielding at syscall boundaries."""

    __slots__ = ("tid", "name", "gen", "cpu", "done", "steps", "end_v")

    def __init__(self, tid: int, name: str, gen: Generator, cpu: int) -> None:
        self.tid = tid
        self.name = name
        self.gen = gen
        self.cpu = cpu
        self.done = False
        self.steps = 0
        self.end_v = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task({self.tid}, {self.name!r}, cpu={self.cpu})"


class Scheduler:
    """Cooperative multi-CPU discrete-event scheduler over one Machine.

    Fully deterministic: dispatch order depends only on virtual times and a
    monotone sequence number, virtual times depend only on charged
    simulated nanoseconds, and nothing reads wall clock or global RNG.
    """

    def __init__(self, machine, cpus: int = 1,
                 context_switch_ns: float = C.SCHED_CONTEXT_SWITCH_NS,
                 ipi_ns: float = C.SCHED_IPI_NS,
                 quantum_ns: float = C.SCHED_QUANTUM_NS) -> None:
        if cpus < 1:
            raise ValueError("need at least one CPU")
        self.machine = machine
        self.clock = machine.clock
        self.cpus = cpus
        self.context_switch_ns = context_switch_ns
        self.ipi_ns = ipi_ns
        self.quantum_ns = quantum_ns
        self.stats = SchedStats()
        self.lock_stats = LockStats()
        self.tasks: List[Task] = []
        self.cpu_now: List[float] = [0.0] * cpus
        self._cpu_last: List[Optional[Task]] = [None] * cpus
        self._heap: List[Tuple[float, int, Task]] = []
        self._seq = 0
        self._next_tid = 0
        self._rr = 0
        #: Task currently executing a step inline (None between steps).
        self.current: Optional[Task] = None
        self._step_origin_v = 0.0
        self._step_charge0 = 0.0
        # replace=True: attach_scheduler replaces any previous scheduler,
        # and the new one's stats must supersede the old export.
        machine.metrics.register_source("sched.cpu", self.stats, replace=True)
        machine.metrics.register_source("sched.lock", self.lock_stats,
                                        replace=True)

    # -- task management ------------------------------------------------------

    def spawn(self, gen: Generator, name: str = "", cpu: Optional[int] = None,
              ) -> Task:
        """Register a generator as a runnable task.

        ``cpu`` pins affinity; by default tasks round-robin across CPUs.
        A task spawned from inside a running step becomes runnable at the
        spawner's current virtual instant (fork semantics); tasks spawned
        before :meth:`run` are runnable at virtual time zero.
        """
        if cpu is None:
            cpu = self._rr % self.cpus
            self._rr += 1
        elif not 0 <= cpu < self.cpus:
            raise ValueError(f"cpu {cpu} out of range")
        task = Task(self._next_tid, name or f"task{self._next_tid}", gen, cpu)
        self._next_tid += 1
        self.tasks.append(task)
        self.stats.tasks_spawned += 1
        at = self.vnow() if self.current is not None else 0.0
        self._push(at, task)
        return task

    def _push(self, at_v: float, task: Task) -> None:
        heapq.heappush(self._heap, (at_v, self._seq, task))
        self._seq += 1

    def vnow(self) -> float:
        """The running step's current virtual instant (origin + charged ns)."""
        return self._step_origin_v + (self.clock.now_ns - self._step_charge0)

    # -- the event loop -------------------------------------------------------

    def run(self) -> float:
        """Drive all tasks to completion; returns the virtual makespan."""
        clock = self.clock
        telem = self.machine.telemetry
        while self._heap:
            at_v, _, task = heapq.heappop(self._heap)
            cpu = task.cpu
            start_v = max(at_v, self.cpu_now[cpu])
            if telem is not None:
                # Windows close on the dispatch instant of the virtual
                # timeline; runq depth is sampled per dispatch so each
                # window's gauge is the level at its closing dispatch.
                telem.advance(int(start_v))
                self._sample_runq()
            self.current = task
            self._step_origin_v = start_v
            self._step_charge0 = clock.now_ns
            prev = self._cpu_last[cpu]
            if prev is not None and prev is not task:
                self.stats.context_switches += 1
                self.stats.ctx_switch_ns += self.context_switch_ns
                clock.charge(self.context_switch_ns, Category.CPU)
            done = False
            slice_steps = 0
            try:
                # One dispatch runs a whole timeslice: the task keeps this
                # CPU across syscall boundaries until the quantum is spent
                # (or it exits), so context switches amortise realistically.
                # The step-count bound keeps zero-cost yield loops finite.
                while True:
                    next(task.gen)
                    task.steps += 1
                    self.stats.steps += 1
                    slice_steps += 1
                    dur = clock.now_ns - self._step_charge0
                    if dur >= self.quantum_ns or slice_steps >= 4096:
                        break
            except StopIteration:
                done = True
            finally:
                dur = clock.now_ns - self._step_charge0
                self.current = None
            end_v = start_v + dur
            self.cpu_now[cpu] = end_v
            self._cpu_last[cpu] = task
            self.stats.busy_ns += dur
            if done:
                task.done = True
                task.end_v = end_v
                self.stats.tasks_completed += 1
            else:
                self._push(end_v, task)
        return self.makespan()

    def _sample_runq(self) -> None:
        """Export run-queue depth gauges (total and per CPU).

        Only called when telemetry is attached — the O(heap) scan costs
        real wall time, and without a collector nobody reads the gauges.
        """
        metrics = self.machine.metrics
        per_cpu = [0] * self.cpus
        for _at, _seq, task in self._heap:
            per_cpu[task.cpu] += 1
        metrics.gauge("sched.runq.depth").set(float(len(self._heap)))
        for c, depth in enumerate(per_cpu):
            metrics.gauge(f"sched.runq.cpu{c}").set(float(depth))

    def makespan(self) -> float:
        """Max virtual CPU time — the concurrent run's elapsed time."""
        return max(self.cpu_now)

    def lock_report(self) -> Dict[str, LockStats]:
        """Per-lock stats for every lock this machine has materialised."""
        return {name: lk.stats for name, lk in sorted(self.machine._locks.items())}
