"""The simulated persistent-memory device.

:class:`PersistentMemory` is the byte-addressable device every file system in
this reproduction sits on.  It combines

* a :class:`~repro.pmem.cow.CowBuffer` holding the volatile view (as seen
  through the CPU cache): 64 KiB segments over an implicit zero base, so a
  device of any size allocates host memory only for the segments written,
* a :class:`~repro.pmem.cache.PersistenceDomain` tracking what a crash keeps,
* the Table-2 cost model: every load/store charges simulated nanoseconds to
  the machine's :class:`~repro.pmem.timing.SimClock`, and
* wear/IO counters (bytes read and written, split by data vs. metadata),
  which back the write-amplification experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

from . import constants as C
from .constants import CACHELINE_SIZE, PM_WRITE_NS_PER_BYTE, STORE_NS
from .cache import CrashPolicy, PersistenceDomain
from .cow import SEGMENT_MASK, SEGMENT_SHIFT, SEGMENT_SIZE, CowBuffer
from .timing import DATA, Category, SimClock


@dataclass
class DeviceStats:
    """Cumulative IO counters for one device."""

    bytes_written: int = 0
    bytes_read: int = 0
    data_bytes_written: int = 0
    meta_bytes_written: int = 0
    stores: int = 0
    loads: int = 0
    clwb_lines: int = 0
    fences: int = 0

    def snapshot(self) -> "DeviceStats":
        return DeviceStats(**vars(self))

    def delta_since(self, earlier: "DeviceStats") -> "DeviceStats":
        return DeviceStats(
            **{k: getattr(self, k) - getattr(earlier, k) for k in vars(self)}
        )


class PMError(Exception):
    """Raised on out-of-range device access."""


class PersistentMemory:
    """A simulated Intel-Optane-style persistent memory device."""

    def __init__(self, size: int, clock: Optional[SimClock] = None,
                 faults=None) -> None:
        if size <= 0 or size % C.BLOCK_SIZE:
            raise ValueError(f"size must be a positive multiple of {C.BLOCK_SIZE}")
        self.size = size
        self.clock = clock or SimClock()
        self.buf = CowBuffer(size)
        self.domain = PersistenceDomain(self.buf)
        self.stats = DeviceStats()
        #: Optional :class:`~repro.pmem.faults.FaultInjector` (set by Machine).
        self.faults = faults
        #: Optional :class:`~repro.ras.RASController` (set by
        #: ``machine.enable_ras()``); hooks loads, stores, and fences.
        self.ras = None
        #: Optional :class:`~repro.pmem.devmodel.DeviceModel` (set by
        #: ``machine.enable_device_model()``); charges token-bucket queueing
        #: delay on stores/loads once the sustained byte-rate is exceeded,
        #: plus the profile's small-write curve, eADR flush economics, and
        #: NUMA penalties.  ``None`` (the default) is the fixed-cost device
        #: — every charge stays bit-identical.
        self.model = None
        #: The machine's scheduler, mirrored here by ``attach_scheduler``
        #: so the bandwidth bucket can refill on the *virtual* timeline
        #: under concurrency (the clock is aggregate work, not elapsed
        #: time, once N CPUs run).  Only consulted when a device model is
        #: attached.
        self.sched = None

    def _device_now(self) -> float:
        """The device's notion of "now" for token-bucket refill.

        Under a running scheduler this is the current task's virtual
        instant, so concurrent tasks' draws serialize through the one
        bucket on the timeline they actually share; serially it is the
        machine clock, which reduces exactly to the legacy arithmetic.
        """
        sched = self.sched
        if sched is not None and sched.current is not None:
            return sched.vnow()
        return self.clock.now_ns

    # -- persistence-trace hooks ------------------------------------------------

    def attach_observer(self, observer) -> None:
        """Install a :class:`~repro.pmem.cache.DomainObserver` on the domain.

        The observer sees every store/clwb/fence in program order; the
        crash-model checker uses one to record traces and trigger crashes at
        chosen persistence events.  Observers chain: attaching a second one
        (e.g. a crashmc tracer while a RAS wear tracer is installed) keeps
        both live, fired in attach order.  Attaching the same observer twice
        raises ``ValueError``.
        """
        self.domain.add_observer(observer)

    def detach_observer(self, observer=None) -> None:
        """Detach ``observer``, or every attached observer when ``None``."""
        self.domain.remove_observer(observer)

    # -- helpers ---------------------------------------------------------------

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise PMError(f"access [{addr}, {addr + size}) outside device of {self.size}")

    # -- stores ------------------------------------------------------------------

    def store(
        self,
        addr: int,
        data: bytes,
        category: Category = Category.DATA,
        nontemporal: bool = True,
    ) -> None:
        """Write ``data`` at ``addr``.

        Non-temporal stores (the default — both SplitFS and the kernel FSes
        use ``movnt`` on their write paths) charge the calibrated streaming
        write cost and become durable at the next :meth:`sfence`.  Temporal
        stores are cheap but stay volatile until ``clwb`` + fence.
        """
        size = len(data)
        if addr < 0 or addr + size > self.size:
            raise PMError(f"access [{addr}, {addr + size}) outside device of {self.size}")
        if size == 0:
            return
        # One batched domain update covers the whole (possibly multi-line)
        # store; the line bookkeeping inside is range arithmetic, not a
        # per-line loop.
        self.domain.note_store(addr, size, nontemporal)
        self.buf.write(addr, data)
        stats = self.stats
        stats.stores += 1
        stats.bytes_written += size
        if category is DATA:
            stats.data_bytes_written += size
        else:
            stats.meta_bytes_written += size
        if nontemporal:
            transfer_ns = size * PM_WRITE_NS_PER_BYTE
        else:
            lines = (size + CACHELINE_SIZE - 1) // CACHELINE_SIZE
            transfer_ns = lines * STORE_NS
        self.clock.charge(transfer_ns, category)
        model = self.model
        if model is not None:
            if model.is_remote(self.sched):
                extra = transfer_ns * (model.remote_write_mult - 1.0)
                model.numa.remote_stores += 1
                model.numa.remote_extra_ns += extra
                self.clock.charge(extra, category)
            delay = model.bandwidth.acquire(model.effective_write_bytes(size),
                                            self._device_now())
            if delay:
                self.clock.charge(delay, category)
        faults = self.faults
        if faults is not None and faults.poisoned:
            # ``on_store`` returns at once when nothing is poisoned.
            faults.on_store(addr, size)
        if self.ras is not None:
            self.ras.on_store(addr, size)

    def persist(self, addr: int, data: bytes, category: Category = Category.META_IO) -> None:
        """Store + clwb + sfence: the 91 ns/line durable-write primitive."""
        self.store(addr, data, category=category, nontemporal=False)
        self.clwb(addr, len(data), category=category)
        self.sfence(category=category)

    # -- flushes -------------------------------------------------------------------

    def clwb(self, addr: int, size: int, category: Category = Category.META_IO) -> int:
        self._check(addr, size)
        flushed = self.domain.clwb(addr, size)
        self.stats.clwb_lines += flushed
        model = self.model
        if model is not None and model.eadr:
            # eADR: the CPU caches sit inside the persistence domain, so the
            # writeback itself costs nothing.  The domain bookkeeping above
            # is untouched (a crash keeps exactly what it kept before) and
            # ordering is still charged at the fence.
            return flushed
        self.clock.charge(flushed * C.CLWB_NS, category)
        return flushed

    def sfence(self, category: Category = Category.META_IO) -> int:
        drained = self.domain.sfence()
        self.stats.fences += 1
        self.clock.charge(C.SFENCE_NS, category)
        obs = self.clock.obs
        if obs.enabled:
            obs.on_fence()
        if self.ras is not None:
            self.ras.maybe_scrub()
        return drained

    # -- loads ---------------------------------------------------------------------

    def load(
        self,
        addr: int,
        size: int,
        category: Category = Category.DATA,
        random_access: bool = False,
    ) -> bytes:
        """Read ``size`` bytes; charges one access latency plus bandwidth."""
        self._check(addr, size)
        if self.faults is not None:
            try:
                self.faults.check_load(addr, size)
            except PMError:
                # A poisoned line: let the RAS layer try a replica repair
                # before the error surfaces as EIO.
                if self.ras is None or not self.ras.try_repair(addr, size):
                    raise
        if self.ras is not None:
            self.ras.verify_load(addr, size)
        self.stats.loads += 1
        self.stats.bytes_read += size
        latency = C.PM_RAND_READ_LATENCY_NS if random_access else C.PM_SEQ_READ_LATENCY_NS
        transfer_ns = latency + size * C.PM_READ_NS_PER_BYTE
        self.clock.charge(transfer_ns, category)
        model = self.model
        if model is not None:
            if model.is_remote(self.sched):
                extra = transfer_ns * (model.remote_read_mult - 1.0)
                model.numa.remote_loads += 1
                model.numa.remote_extra_ns += extra
                self.clock.charge(extra, category)
            # Reads draw through the same bucket at ``read_weight`` (Optane
            # read bandwidth is several times write bandwidth); the XPLine
            # round-up applies only to writes — reads of a partial line do
            # not cost a media read-modify-write.
            delay = model.bandwidth.acquire_read(size, self._device_now())
            if delay:
                self.clock.charge(delay, category)
        return self.buf.read(addr, addr + size)

    def load_nonzero(self, addrs: Sequence[int], size: int,
                     category: Category = DATA) -> Iterator[Tuple[int, bytes]]:
        """``load(addr, size, category)`` for each of ``addrs`` in order,
        as an iterator over ``(i, bytes)`` for the loads whose bytes are
        not all zero, ``i`` indexing ``addrs``.

        The recovery scans call this for runs of equal sequential loads
        that mostly find zeros: free inode slots, unused log pages.
        Without poison, RAS or a device model nothing differs between such
        loads, so the first ``next`` makes the bounds checks, counter
        updates and clock charges of all of them, which leaves every
        account bit-identical (:meth:`SimClock.charge_each`).  The bytes
        are then looked up in their buffer segment as items are consumed:
        a record in a zero segment costs nothing, and one in an owned
        segment is compared in place and copied only if it is not zero.
        For a ``range`` of addresses each segment is looked up once, and
        the addresses a zero segment holds are skipped by arithmetic; a
        record that straddles two segments is read on its own.
        Otherwise every load is a ``load`` call made as it is consumed, so
        the repairs, verifications and bandwidth charges interleave with
        the caller's other loads exactly as one ``load`` per address would.
        The caller must not store to the device while it iterates.
        """
        zeros = bytes(max(size, 0))
        faults = self.faults
        if (self.ras is not None or self.model is not None
                or (faults is not None and faults.poisoned)):
            for i, addr in enumerate(addrs):
                raw = self.load(addr, size, category)
                if raw != zeros:
                    yield i, raw
            return
        if type(addrs) is range:
            ends = (addrs[0], addrs[-1]) if addrs else ()
        else:
            addrs = ends = list(addrs)
        total = count = len(addrs)
        if count and (size < 0 or min(ends) < 0
                      or max(ends) + size > self.size):
            # Charge the loads before the first bad address, as the
            # separate calls would have, then raise at it.
            count = next(i for i, addr in enumerate(addrs)
                         if addr < 0 or size < 0 or addr + size > self.size)
        stats = self.stats
        stats.loads += count
        stats.bytes_read += count * size
        self.clock.charge_each(
            C.PM_SEQ_READ_LATENCY_NS + size * C.PM_READ_NS_PER_BYTE,
            category, count)
        buf = self.buf
        step = addrs.step if type(addrs) is range else 0
        n = -1
        seg = None
        i = 0
        while i < count:
            addr = addrs[i]
            off = addr & SEGMENT_MASK
            if off + size > SEGMENT_SIZE:  # straddles two segments
                raw = buf.read(addr, addr + size)
                if raw != zeros:
                    yield i, raw
                i += 1
                continue
            if addr >> SEGMENT_SHIFT != n:
                n = addr >> SEGMENT_SHIFT
                seg = buf.segment(n)
            if seg is None:
                # A zero segment: skip the loads of a range that lie in it.
                i += 1 + ((SEGMENT_SIZE - size - off) // step if step > 0
                          else off // -step if step else 0)
                continue
            if not seg.startswith(zeros, off):
                yield i, bytes(seg[off : off + size])
            i += 1
        if count < total:
            self._check(addrs[count], size)

    def peek(self, addr: int, size: int) -> bytes:
        """Read without charging time (for assertions and recovery scans that
        account their own costs)."""
        self._check(addr, size)
        return self.buf.read(addr, addr + size)

    def poke(self, addr: int, data: bytes) -> None:
        """Write without charging time, durable immediately (test setup only)."""
        self._check(addr, len(data))
        self.domain.note_store(addr, len(data), nontemporal=True)
        self.buf.write(addr, data)
        self.domain.sfence()
        if self.faults is not None:
            self.faults.on_store(addr, len(data))
        if self.ras is not None:
            self.ras.on_store(addr, len(data), charge=False)

    # -- crash ------------------------------------------------------------------------

    def crash(self, policy: Optional[CrashPolicy] = None) -> Tuple[int, int]:
        """Simulate a power failure: un-persisted lines revert (per policy)."""
        return self.domain.crash(policy)

    @property
    def unpersisted_lines(self) -> int:
        return self.domain.dirty_line_count

    # -- forking ----------------------------------------------------------------------

    def fork(self, clock: SimClock, faults=None, cow_stats=None) -> "PersistentMemory":
        """An O(1) copy-on-write fork of the device at this instant.

        The child's :class:`~repro.pmem.cow.CowBuffer` lies over the
        parent's (lazy 64 KiB segment copies on child writes), and the child
        gets independent copies of the persistence-domain line maps, IO
        counters, and — via ``faults``/``clock`` supplied by the
        machine-level fork — the fault-injection and timing state.
        Observers and the RAS hook are not inherited; the machine fork
        re-attaches a forked RAS controller.

        The parent must stay paused while the child is alive (see
        :mod:`repro.pmem.cow`); the crash-state explorer forks inside a
        persistence-event hook and finishes the child before resuming.
        """
        child = object.__new__(PersistentMemory)
        child.size = self.size
        child.clock = clock
        child.buf = CowBuffer(self.buf, stats=cow_stats)
        child.domain = self.domain.fork(child.buf)
        child.stats = self.stats.snapshot()
        child.faults = faults
        child.ras = None
        child.model = self.model.clone() if self.model is not None else None
        # The child runs serially (crash exploration); the parent's scheduler
        # is not its scheduler.
        child.sched = None
        return child
