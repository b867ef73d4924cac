"""The simulated machine: one clock, one PM device, one VM subsystem."""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..pmem.cache import CrashPolicy
from ..pmem.device import PersistentMemory
from ..pmem.devmodel import DeviceModel
from ..pmem.faults import FaultInjector
from ..pmem.timing import SimClock
from .process import FIRST_PID, SharedMemoryStore
from .vm import VirtualMemory

#: The one default device size (192 MiB): the commands, the harness and the
#: examples run on it; ``bench --scaling`` needs a larger device and the RAS
#: report's degradation section a smaller one.  The paper suite was
#: recorded at this size and depends on it: ext4 starts a file's first
#: extent on a 2 MiB boundary when one is free, and at 512 MiB that moves
#: Figure 6's git/rsync rows and the aged-ext4 ablation.
DEFAULT_PM_SIZE = 192 * 1024 * 1024


class Machine:
    """Bundles the shared substrate a file system instance runs on.

    ``seed`` drives every probabilistic crash outcome on this machine: a
    :class:`~repro.pmem.cache.CrashPolicy` without an explicit seed gets one
    drawn from the machine's crash RNG, so any sequence of crashes is
    bit-for-bit replayable from ``Machine(seed=...)``.  Pass ``seed=None``
    to opt back into unseeded (irreproducible) crashes.
    """

    def __init__(self, pm_size: int = DEFAULT_PM_SIZE,
                 seed: Optional[int] = 0, observer=None) -> None:
        self.clock = SimClock()
        if observer is not None:
            observer.bind(self.clock)
        self.faults = FaultInjector()
        self.pm = PersistentMemory(pm_size, self.clock, faults=self.faults)
        self.vm = VirtualMemory(self.clock)
        self.seed = seed
        self._crash_rng = random.Random(seed) if seed is not None else None
        self.crashes = 0
        #: Optional :class:`~repro.ras.RASController`; ``None`` until
        #: :meth:`enable_ras` opts this machine into the RAS layer.
        self.ras = None
        #: Monotonic id source for components whose ids land in on-device
        #: names (SplitFS staging/oplog files).  Per-machine — not process-
        #: global — so a forked machine replays the exact ids a from-scratch
        #: replay would hand out, and ids stay unique within one image.
        self._next_instance_id = 0
        #: Machine-scoped pid source (same replay-determinism contract as
        #: instance ids: pids land in /dev/shm key names, so they must not
        #: drift with unrelated machines in the same interpreter).
        self._next_pid = FIRST_PID
        #: Machine-wide simulated /dev/shm (U-Split execve state).  One per
        #: machine, shared by every process on it — and *copied* on fork so
        #: sibling machines never alias blobs.
        self.shm = SharedMemoryStore()
        #: Optional :class:`~repro.kernel.sched.Scheduler`; ``None`` (the
        #: default) means single-client serial execution and makes every
        #: :class:`~repro.kernel.sched.SimLock` a free no-op.
        self.sched = None
        self._locks: Dict[str, "SimLock"] = {}

    def next_instance_id(self) -> int:
        """The next machine-scoped component instance id (see above)."""
        iid = self._next_instance_id
        self._next_instance_id += 1
        return iid

    def next_pid(self) -> int:
        """The next machine-scoped pid (see above)."""
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def lock(self, name: str) -> "SimLock":
        """Get-or-create the named simulated lock (see kernel/sched.py)."""
        lk = self._locks.get(name)
        if lk is None:
            from .sched import SimLock

            lk = self._locks[name] = SimLock(name, self)
        return lk

    def sharded_lock(self, name: str, by: str = "cpu"):
        """A lock family sharded per CPU (``by="cpu"``, NOVA free lists) or
        per task (``by="task"``, Strata private logs)."""
        from .sched import ShardedLock

        return ShardedLock(name, self, by=by)

    def attach_scheduler(self, cpus: int = 1, **kwargs):
        """Attach (and return) a discrete-event scheduler with ``cpus``
        simulated CPUs; replaces any previous scheduler."""
        from .sched import Scheduler

        self.sched = Scheduler(self, cpus, **kwargs)
        # Mirror onto the device so an attached bandwidth bucket refills on
        # the scheduler's virtual timeline (concurrent tasks share one
        # device); a no-op for machines without a device model.
        self.pm.sched = self.sched
        return self.sched

    @property
    def obs(self):
        """The observer bound to this machine's clock (NullObserver when off)."""
        return self.clock.obs

    def enable_ras(self, config=None):
        """Opt this machine into the online RAS layer (checksums, metadata
        replication, scrubbing).  Must be called before the file system is
        formatted/mounted so regions get registered; idempotent."""
        from ..ras import RASController

        if self.ras is None:
            self.ras = RASController(self.pm, config)
            self.pm.ras = self.ras
        elif config is not None:
            self.ras.config = config
        return self.ras

    def enable_device_model(self, profile="optane", numa_remote=False,
                            model=None):
        """Opt this machine into the calibrated device model.

        The profile's token bucket (shared-bandwidth queueing, refilled on
        the scheduler's virtual timeline under concurrency) plus its XPLine
        small-write curve, eADR flush economics, and optional NUMA-remote
        penalties.  ``profile`` is a name from
        :data:`~repro.pmem.devmodel.PROFILES` (``flat`` is the bucket alone)
        or a :class:`~repro.pmem.devmodel.DeviceProfile` instance; ``model``
        overrides with a pre-built :class:`~repro.pmem.devmodel.DeviceModel`.
        Off by default on every machine; returns the live model, whose
        ``bandwidth`` and ``numa`` stats count the bucket's stalls and the
        remote accesses.
        """
        if model is None:
            model = DeviceModel(profile=profile, numa_remote=numa_remote)
        self.pm.model = model
        self.pm.sched = self.sched
        return model

    def crash(self, policy: Optional[CrashPolicy] = None,
              survivors=None) -> None:
        """Power failure: PM loses its un-persisted lines.

        ``survivors`` (a set of cache-line indexes) selects the exact
        un-persisted lines that nevertheless reach the device — the
        deterministic reordering primitive the crash-state explorer uses;
        it is mutually exclusive with ``policy``.
        """
        self.crashes += 1
        if survivors is not None:
            if policy is not None:
                raise ValueError("pass either policy or survivors, not both")
            self.pm.domain.crash_with_survivors(survivors)
        else:
            if policy is not None and policy.seed is None and self._crash_rng is not None:
                policy = policy.with_seed(self._crash_rng.getrandbits(32))
            self.pm.crash(policy)
        if self.ras is not None:
            self.ras.on_crash()

    def fork(self, cow_stats=None) -> "Machine":
        """An O(1) copy-on-write fork of the whole machine at this instant.

        The child gets its own clock (same simulated time), a CoW view of
        the PM device (see :meth:`~repro.pmem.device.PersistentMemory.fork`),
        and independent copies of every piece of bookkeeping a replayed
        machine would have accumulated reaching this state: persistence-
        domain line maps, fault-injector plan and counters, RAS regions /
        checksums / scrub schedule, the crash RNG stream, and the VM
        state.  Exploring the child (crash, remount, recovery) is therefore
        bit-identical to replaying the workload from scratch on a fresh
        machine up to the same instant — without the replay.

        The parent must not run while the child is alive (CoW pause
        discipline, :mod:`repro.pmem.cow`).
        """
        child = object.__new__(Machine)
        child.clock = SimClock(account=self.clock.account.snapshot())
        child.faults = self.faults.fork()
        child.pm = self.pm.fork(child.clock, faults=child.faults,
                                cow_stats=cow_stats)
        child.vm = VirtualMemory(child.clock)
        vars(child.vm.stats).update(vars(self.vm.stats))
        child.seed = self.seed
        if self._crash_rng is not None:
            child._crash_rng = random.Random()
            child._crash_rng.setstate(self._crash_rng.getstate())
        else:
            child._crash_rng = None
        child.crashes = self.crashes
        child._next_instance_id = self._next_instance_id
        child._next_pid = self._next_pid
        # Independent /dev/shm: blobs written on one machine after the fork
        # must never surface on its siblings.
        child.shm = SharedMemoryStore(files=dict(self.shm.files))
        # The scheduler and lock table are runtime machinery, not machine
        # state: crash exploration runs the child serially.
        child.sched = None
        child._locks = {}
        child.ras = None
        if self.ras is not None:
            child.ras = self.ras.fork(child.pm)
            child.pm.ras = child.ras
        return child
