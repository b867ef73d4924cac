"""Pre-optimization implementations of the simulator's hot paths.

Extent lookup/insert (``ext4/extents.py``) and persistence-domain line
bookkeeping (``pmem/cache.py``) run fast paths in production.  The
original code they replaced is kept here as the oracle they must match
bit-for-bit: the property tests drive both side by side, and
:func:`verify_equivalence` runs the wall-clock suite under
:func:`reference_mode` too.  Each extent function takes the instance
first, so it can be called directly or bound as a method; the persistence
domain's original is a whole class, :class:`LinePersistenceDomain`, one
dict entry per dirty line.

The ext4 and NOVA fsck checkers (``ext4/fsck.py``, ``nova/fsck.py``)
claim blocks by the range (``kernel/claims.py``);
:func:`ext4_fsck_claims` and :func:`nova_fsck_claims` are their per-block
loops over a dict, which the claim property test holds them to.

``Ext4DaxFS.fallocate`` (``ext4/filesystem.py``) allocates the holes
between a file's mapped ranges; :func:`ext4_fallocate` is the version
that looked up every block of the file.  ``ExtentMap.holes``, which
``fallocate`` and the write path's block provisioning use, lists the
holes in one pass; :func:`extent_holes` looks up every block.  The write
path's hole filler, ``KernelFS._ensure_blocks`` (``kernel/fsbase.py``),
which ext4, NOVA-relaxed and Strata share, finds the holes with
``ExtentMap.holes``; :func:`kernel_ensure_blocks` is the per-block scan
NOVA and Strata ran before.

The block allocator (``pmem/allocator.py``) bisects its free list for a
goal allocation, a free and a mount-time reserve; :func:`allocator_alloc_at`,
:func:`allocator_free_one` and :func:`allocator_reserve` are the linear
scans they replaced.

The device's batched recovery scan, ``PersistentMemory.load_nonzero``
(``pmem/device.py``), skips the addresses of a ``range`` that lie in a
zero segment by arithmetic; :func:`device_load_nonzero` tests every
address's segment.

The fault injector (``pmem/faults.py``) keeps its poison list sorted and
looks only at a bisected window of it; :class:`ListPoison` is the linear
scan it replaced.  The crash oracle's shadow (``crashmc/workload.py``)
keeps each file's durable floor as bytes plus a sparse map of extra
values; :class:`SetShadow` is the bookkeeping it replaced, one
allowed-value set per floor byte.  Their property tests hold the
production code to them after every step.

``SimClock.charge`` and ``charge_cpu`` (``pmem/timing.py``) end in the
observer hook, one ``obs.enabled`` test.  :func:`plain_charge` and
:func:`plain_charge_cpu` are the same methods without it, and
:func:`stripped_observer_hook` swaps them in: the disabled-mode tests
check that the hook changes no output and costs few bytecodes.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.bench.wallclock import WorkloadSpec, run_suite
from repro.crashmc.oracles import KindProps
from repro.crashmc.workload import NUM_FILES, Op
from repro.ext4.extents import ExtentMap, FileExtent
from repro.kernel.fsbase import KernelFS
from repro.pmem import constants as C
from repro.pmem import device
from repro.pmem.allocator import Extent, ExtentAllocator
from repro.pmem.cache import CrashPolicy, DomainObserver
from repro.pmem.constants import CACHELINE_SIZE
from repro.pmem.cow import SEGMENT_MASK, SEGMENT_SHIFT, SEGMENT_SIZE, CowBuffer
from repro.pmem.faults import MediaError
from repro.pmem.timing import CPU, DATA, META_IO, SimClock

# -- ext4 extent map: linear scans ---------------------------------------------


def extent_lookup_block(self: ExtentMap, logical: int) -> Optional[int]:
    for e in self.extents:
        if e.logical <= logical < e.logical_end:
            return e.phys + (logical - e.logical)
    return None


def extent_map_byte_range(
    self: ExtentMap, offset: int, size: int, block_size: int = C.BLOCK_SIZE
) -> List[Tuple[Optional[int], int]]:
    if offset < 0 or size < 0:
        raise ValueError("negative offset/size")
    out: List[Tuple[Optional[int], int]] = []
    pos = offset
    end = offset + size
    i = 0
    exts = self.extents
    while pos < end:
        while i < len(exts) and exts[i].logical_end * block_size <= pos:
            i += 1
        if i == len(exts) or exts[i].logical * block_size >= end:
            out.append((None, end - pos))
            break
        ext = exts[i]
        ext_start = ext.logical * block_size
        ext_end = ext.logical_end * block_size
        if pos < ext_start:
            out.append((None, ext_start - pos))
            pos = ext_start
        run = min(end, ext_end) - pos
        addr = ext.phys * block_size + (pos - ext_start)
        out.append((addr, run))
        pos += run
    return out


def extent_insert(self: ExtentMap, logical: int, phys: int,
                  length: int) -> None:
    if length <= 0:
        return
    new = FileExtent(logical, phys, length)
    for e in self.extents:
        if e.logical < new.logical_end and new.logical < e.logical_end:
            raise ValueError(f"insert {new} overlaps {e}")
    self.extents.append(new)
    self.extents.sort(key=lambda e: e.logical)
    merged: List[FileExtent] = []
    for e in self.extents:
        if (
            merged
            and merged[-1].logical_end == e.logical
            and merged[-1].phys_end == e.phys
        ):
            prev = merged.pop()
            merged.append(FileExtent(prev.logical, prev.phys, prev.length + e.length))
        else:
            merged.append(e)
    self.extents = merged
    self._reindex()


def extent_holes(self: ExtentMap, first: int,
                 end: int) -> List[Tuple[int, int]]:
    out: List[Tuple[int, int]] = []
    run_start = None
    for lb in range(first, end):
        if self.lookup_block(lb) is None:
            if run_start is None:
                run_start = lb
        elif run_start is not None:
            out.append((run_start, lb - run_start))
            run_start = None
    if run_start is not None:
        out.append((run_start, end - run_start))
    return out


# -- block allocator: linear scans of the free list ----------------------------


def allocator_alloc_at(self: ExtentAllocator, start: int,
                       nblocks: int) -> Optional[Extent]:
    if nblocks <= 0:
        raise ValueError("nblocks must be positive")
    self._charge()
    for i, free in enumerate(self._free):
        if free.start <= start and start + nblocks <= free.end:
            if start > free.start:
                head = Extent(free.start, start - free.start)
                tail_len = free.end - start
                self._free[i] = head
                self._free.insert(i + 1, Extent(start, tail_len))
                return self._carve(i + 1, self._free[i + 1], nblocks)
            return self._carve(i, free, nblocks)
        if free.start > start:
            return None
    return None


def allocator_free_one(self: ExtentAllocator, ext: Extent) -> None:
    if ext.length <= 0:
        return
    if ext.start < self.first_block or ext.end > self.first_block + self.total_blocks:
        raise ValueError(f"extent {ext} outside allocator range")
    starts = [e.start for e in self._free]
    i = bisect.bisect_left(starts, ext.start)
    if i > 0 and self._free[i - 1].end > ext.start:
        raise ValueError(f"double free: {ext} overlaps {self._free[i - 1]}")
    if i < len(self._free) and ext.end > self._free[i].start:
        raise ValueError(f"double free: {ext} overlaps {self._free[i]}")
    self._free.insert(i, ext)
    self._free_blocks += ext.length
    if i + 1 < len(self._free) and self._free[i].end == self._free[i + 1].start:
        right = self._free.pop(i + 1)
        self._free[i] = Extent(self._free[i].start, self._free[i].length + right.length)
    if i > 0 and self._free[i - 1].end == self._free[i].start:
        left = self._free.pop(i - 1)
        self._free[i - 1] = Extent(left.start, left.length + self._free[i - 1].length)


def allocator_reserve(self: ExtentAllocator, start: int, length: int) -> None:
    if length <= 0:
        return
    end = start + length
    i = 0
    while i < len(self._free) and start < end:
        free = self._free[i]
        if free.end <= start:
            i += 1
            continue
        if free.start >= end:
            break
        take_start = max(start, free.start)
        take_end = min(end, free.end)
        if take_start > start:
            raise ValueError(f"reserve: blocks [{start}, {take_start}) already in use")
        pieces = []
        if free.start < take_start:
            pieces.append(Extent(free.start, take_start - free.start))
        if take_end < free.end:
            pieces.append(Extent(take_end, free.end - take_end))
        self._free[i : i + 1] = pieces
        self._free_blocks -= take_end - take_start
        start = take_end
        i += len(pieces)
    if start < end:
        raise ValueError(f"reserve: blocks [{start}, {end}) already in use")


# -- device: the recovery scan, one segment test per address -------------------


def device_load_nonzero(self: device.PersistentMemory, addrs, size: int,
                        category=DATA) -> Iterator[Tuple[int, bytes]]:
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
        count = next(i for i, addr in enumerate(addrs)
                     if addr < 0 or size < 0 or addr + size > self.size)
    stats = self.stats
    stats.loads += count
    stats.bytes_read += count * size
    self.clock.charge_each(
        C.PM_SEQ_READ_LATENCY_NS + size * C.PM_READ_NS_PER_BYTE,
        category, count)
    buf = self.buf
    n = -1
    seg = None
    for i in range(count):
        addr = addrs[i]
        off = addr & SEGMENT_MASK
        if off + size > SEGMENT_SIZE:
            raw = buf.read(addr, addr + size)
            if raw != zeros:
                yield i, raw
            continue
        if addr >> SEGMENT_SHIFT != n:
            n = addr >> SEGMENT_SHIFT
            seg = buf.segment(n)
        if seg is not None and not seg.startswith(zeros, off):
            yield i, bytes(seg[off : off + size])
    if count < total:
        self._check(addrs[count], size)


# -- persistence domain: one Python loop per cache line ------------------------


class LinePersistenceDomain:
    """The persistence domain with one preimage per line in a dict, whose
    insertion order is first-dirtied order, and a set of flushed-but-unfenced
    lines, each updated by a loop over the lines of a store, flush or fence.

    :func:`reference_mode` makes :class:`~repro.pmem.device.PersistentMemory`
    build this class instead of the run-based
    :class:`~repro.pmem.cache.PersistenceDomain`.
    """

    def __init__(self, buf: CowBuffer) -> None:
        self.buf = buf
        # line index -> durable content of that line
        self._preimages: Dict[int, bytes] = {}
        # line indexes flushed (clwb/movnt) but not yet fenced
        self._pending_fence: Set[int] = set()
        self._observers: List[DomainObserver] = []

    def add_observer(self, obs: DomainObserver) -> None:
        if any(existing is obs for existing in self._observers):
            raise ValueError("observer is already attached")
        self._observers.append(obs)

    def remove_observer(self, obs: Optional[DomainObserver] = None) -> None:
        if obs is None:
            self._observers = []
            return
        for i, existing in enumerate(self._observers):
            if existing is obs:
                del self._observers[i]
                return
        raise ValueError("observer is not attached")

    def _line_range(self, addr: int, size: int) -> range:
        first = addr // CACHELINE_SIZE
        last = (addr + size - 1) // CACHELINE_SIZE
        return range(first, last + 1)

    def note_store(self, addr: int, size: int, nontemporal: bool) -> None:
        if size <= 0:
            return
        for obs in self._observers:
            obs.on_store(addr, size, nontemporal)
        for line in self._line_range(addr, size):
            if line not in self._preimages:
                start = line * CACHELINE_SIZE
                self._preimages[line] = bytes(self.buf[start : start + CACHELINE_SIZE])
            if nontemporal:
                self._pending_fence.add(line)
            else:
                self._pending_fence.discard(line)

    def clwb(self, addr: int, size: int) -> int:
        for obs in self._observers:
            obs.on_clwb(addr, size)
        flushed = 0
        for line in self._line_range(addr, size):
            if line in self._preimages and line not in self._pending_fence:
                self._pending_fence.add(line)
                flushed += 1
        return flushed

    def sfence(self) -> int:
        for obs in self._observers:
            obs.on_fence()
        drained = len(self._pending_fence)
        for line in self._pending_fence:
            self._preimages.pop(line, None)
        self._pending_fence.clear()
        return drained

    def fork(self, buf) -> "LinePersistenceDomain":
        child = LinePersistenceDomain(buf)
        child._preimages = dict(self._preimages)
        child._pending_fence = set(self._pending_fence)
        return child

    @property
    def dirty_line_count(self) -> int:
        return len(self._preimages)

    @property
    def pending_line_count(self) -> int:
        return len(self._pending_fence)

    def dirty_lines(self) -> Iterable[int]:
        return self._preimages.keys()

    def is_durable(self, addr: int, size: int) -> bool:
        return self._preimages.keys().isdisjoint(self._line_range(addr, size))

    def crash(self, policy: Optional[CrashPolicy] = None) -> Tuple[int, int]:
        policy = policy or CrashPolicy()
        rng = policy.rng()
        buf = self.buf
        lost = survived = 0
        for line, preimage in self._preimages.items():
            if line in self._pending_fence:
                p = policy.pending_survive_probability
            else:
                p = policy.survive_probability
            start = line * CACHELINE_SIZE
            if p > 0.0 and rng.random() < p:
                if policy.tear_lines:
                    for word in range(CACHELINE_SIZE // 8):
                        if rng.random() < 0.5:
                            buf.write(start + word * 8,
                                      preimage[word * 8 : word * 8 + 8])
                survived += 1
            else:
                buf.write(start, preimage)
                lost += 1
        self._preimages.clear()
        self._pending_fence.clear()
        return lost, survived

    def crash_with_survivors(self, survivors) -> Tuple[int, int]:
        lost = survived = 0
        buf = self.buf
        for line, preimage in self._preimages.items():
            if line in survivors:
                survived += 1
                continue
            buf.write(line * CACHELINE_SIZE, preimage)
            lost += 1
        self._preimages.clear()
        self._pending_fence.clear()
        return lost, survived


# -- fault injector: one unsorted poison list, scanned linearly ----------------


class ListPoison:
    """The fault injector's poison bookkeeping as one list in arming order,
    each query a scan over every entry."""

    def __init__(self) -> None:
        self.poisoned: List[Tuple[int, int]] = []
        self.media_faults_fired = 0
        self.poison_cleared_by_write = 0

    def poison(self, addr: int, size: int) -> None:
        self.poisoned.append((addr, addr + size))

    def poisoned_overlaps(self, addr: int, size: int) -> List[Tuple[int, int]]:
        out = []
        for start, end in self.poisoned:
            s, e = max(addr, start), min(addr + size, end)
            if s < e:
                out.append((s, e))
        out.sort()
        return out

    def is_poisoned(self, addr: int, size: int) -> bool:
        return any(addr < end and addr + size > start
                   for start, end in self.poisoned)

    def unpoison(self, addr: int, size: int) -> None:
        lo, hi = addr, addr + size
        updated: List[Tuple[int, int]] = []
        for start, end in self.poisoned:
            if end <= lo or start >= hi:
                updated.append((start, end))
                continue
            if start < lo:
                updated.append((start, lo))
            if end > hi:
                updated.append((hi, end))
        self.poisoned[:] = updated

    def check_load(self, addr: int, size: int) -> None:
        for start, end in self.poisoned:
            if addr < end and addr + size > start:
                self.media_faults_fired += 1
                raise MediaError(
                    f"uncorrectable media error reading [{addr}, {addr + size})"
                )

    def on_store(self, addr: int, size: int) -> None:
        if not self.poisoned or not self.is_poisoned(addr, size):
            return
        self.unpoison(addr, size)
        self.poison_cleared_by_write += 1


# -- crashmc shadow: one allowed-value set per durable-floor byte --------------


class SetShadow:
    """The crash oracle's shadow bookkeeping with per-byte allowed-value sets."""

    def __init__(self, props: KindProps, nfiles: int = NUM_FILES) -> None:
        self.props = props
        self.nfiles = nfiles
        self.content: Dict[int, bytearray] = {i: bytearray() for i in range(nfiles)}
        self.floor: Dict[int, bytearray] = {i: bytearray() for i in range(nfiles)}
        #: per byte position < len(floor): every value the byte may legally
        #: hold after a crash (the floor value plus later unfenced writes).
        self.allowed: Dict[int, List[set]] = {i: [] for i in range(nfiles)}
        #: is the file's existence guaranteed to survive a crash?
        self.exists_floor: Dict[int, bool] = {i: False for i in range(nfiles)}

    def _write(self, i: int, off: int, size: int, fill: int) -> None:
        buf = self.content[i]
        if off > len(buf):
            buf.extend(b"\x00" * (off - len(buf)))
        end = off + size
        if end > len(buf):
            buf.extend(b"\x00" * (end - len(buf)))
        buf[off:end] = bytes([fill]) * size
        # Bytes inside the durable floor may now also show the new value.
        for pos in range(off, min(end, len(self.floor[i]))):
            self.allowed[i][pos].add(fill)

    def _raise_floor(self, i: int) -> None:
        self.floor[i] = bytearray(self.content[i])
        self.allowed[i] = [{b} for b in self.floor[i]]
        self.exists_floor[i] = True

    def apply(self, op: Op) -> None:
        """Fold one *completed* operation into the shadow."""
        if op.kind == "append":
            self._write(op.file, len(self.content[op.file]), op.size, op.fill)
        elif op.kind == "overwrite":
            self._write(op.file, op.offset, op.size, op.fill)
        elif op.kind == "fsync":
            self._raise_floor(op.file)
            return
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
        if self.props.sync_data:
            # Every completed data op is durable.
            self._raise_floor(op.file)
        elif self.props.overwrites_sync and op.kind == "overwrite":
            # SplitFS POSIX/sync: the part of an overwrite landing inside
            # already-committed bytes is in-place and fenced before return.
            end = min(op.offset + op.size, len(self.floor[op.file]))
            for pos in range(op.offset, end):
                self.floor[op.file][pos] = op.fill
                self.allowed[op.file][pos] = {op.fill}


# -- ext4 fallocate: one extent lookup per block ---------------------------------


def ext4_fallocate(self, fd: int, length: int,
                   huge_aligned: bool = False) -> None:
    self._trap()
    of = self._writable_of(fd)
    inode = self.inodes[of.ino]
    nblocks = (length + C.BLOCK_SIZE - 1) // C.BLOCK_SIZE
    missing = [
        lb for lb in range(nblocks) if inode.extmap.lookup_block(lb) is None
    ]
    if missing and huge_aligned and not inode.extmap.extents:
        ext = self.alloc.alloc_aligned(nblocks, C.BLOCKS_PER_HUGE_PAGE)
        if ext is not None:
            inode.extmap.insert(0, ext.start, ext.length)
            missing = []
    i = 0
    while i < len(missing):
        run_start = missing[i]
        run_len = 1
        while (i + run_len < len(missing)
               and missing[i + run_len] == run_start + run_len):
            run_len += 1
        cursor = run_start
        for ext in self.alloc.alloc(run_len):
            inode.extmap.insert(cursor, ext.start, ext.length)
            cursor += ext.length
        i += run_len
    if length > inode.size:
        inode.size = length
    self._journal_inode(inode)


# -- the write path's hole filler: one extent lookup per block -------------------


def kernel_ensure_blocks(self, inode, offset: int, size: int) -> bool:
    end = offset + size
    first = offset // C.BLOCK_SIZE
    last = (end - 1) // C.BLOCK_SIZE
    extmap = inode.extmap
    log = self._log_fresh_extent
    allocated = False
    lb = first
    while lb <= last:
        if extmap.lookup_block(lb) is not None:
            lb += 1
            continue
        run_start = lb
        while lb <= last and extmap.lookup_block(lb) is None:
            lb += 1
        for ext in self._alloc_hole(extmap, run_start, lb - run_start):
            extmap.insert(run_start, ext.start, ext.length)
            # Fresh blocks the write covers only partly are zeroed first.
            if (run_start == first and offset % C.BLOCK_SIZE) or (
                run_start + ext.length - 1 >= last and end % C.BLOCK_SIZE
            ):
                self.pm.store(ext.start * C.BLOCK_SIZE,
                              b"\x00" * (ext.length * C.BLOCK_SIZE),
                              category=DATA)
            if log is not None:
                log(inode, run_start, ext)
            run_start += ext.length
            allocated = True
    return allocated


# -- fsck block claims: one dict entry per block --------------------------------

#: A claim as the checkers make it: ``(block, length, ino, what)``.
Claim = Tuple[int, int, int, str]


def ext4_fsck_claims(claims: Iterable[Claim], data_start: int,
                     total_blocks: int) -> Tuple[List[str], int, int]:
    """``(errors, blocks_claimed, blocks with an owner)`` of ext4's fsck."""
    errors: List[str] = []
    claimed: Dict[int, int] = {}  # physical block -> owning ino
    blocks_claimed = 0
    for block, length, ino, what in claims:
        for b in range(block, block + length):
            if b < data_start or b >= total_blocks:
                errors.append(f"ino {ino}: {what} block {b} outside data region")
                continue
            owner = claimed.get(b)
            if owner is not None and owner != ino:
                errors.append(
                    f"block {b} claimed by both ino {owner} and ino {ino} ({what})"
                )
            claimed[b] = ino
            blocks_claimed += 1
    return errors, blocks_claimed, len(claimed)


def nova_fsck_claims(claims: Iterable[Claim], data_start: int,
                     total_blocks: int) -> Tuple[List[str], int]:
    """``(errors, blocks with an owner)`` of NOVA's fsck, whose owner is
    the claim's ``f"ino {ino} {what}"``."""
    errors: List[str] = []
    claimed: Dict[int, str] = {}
    for block, length, ino, what in claims:
        what = f"ino {ino} {what}"
        for b in range(block, block + length):
            if b < data_start or b >= total_blocks:
                errors.append(f"{what}: block {b} outside data region")
                continue
            if b in claimed:
                errors.append(f"block {b} claimed by {claimed[b]} and {what}")
            claimed[b] = what
    return errors, len(claimed)


# -- SimClock: charges without the observer hook ------------------------------


def plain_charge(self: SimClock, ns: float, category=CPU) -> None:
    """``SimClock.charge`` without the observer hook: the same account
    and scope updates, no ``obs.enabled`` test."""
    if ns < 0:
        raise ValueError(f"negative charge: {ns}")
    account = self.account
    if category is DATA:
        account.data_ns += ns
    elif category is META_IO:
        account.meta_io_ns += ns
    else:
        account.cpu_ns += ns
    if self._scopes:
        for scope in self._scopes:
            scope.charge(ns, category)


def plain_charge_cpu(self: SimClock, ns: float) -> None:
    """``SimClock.charge_cpu`` without the observer hook."""
    if ns < 0:
        raise ValueError(f"negative charge: {ns}")
    self.account.cpu_ns += ns
    if self._scopes:
        for scope in self._scopes:
            scope.charge(ns, CPU)


@contextmanager
def stripped_observer_hook() -> Iterator[None]:
    """Run ``SimClock.charge``/``charge_cpu`` without the observer hook."""
    saved = SimClock.charge, SimClock.charge_cpu
    SimClock.charge, SimClock.charge_cpu = plain_charge, plain_charge_cpu
    try:
        yield
    finally:
        SimClock.charge, SimClock.charge_cpu = saved


#: (class or module, attribute, reference implementation) for
#: :func:`reference_mode`.
SWAPS = (
    (ExtentMap, "lookup_block", extent_lookup_block),
    (ExtentMap, "map_byte_range", extent_map_byte_range),
    (ExtentMap, "insert", extent_insert),
    (ExtentMap, "holes", extent_holes),
    (KernelFS, "_ensure_blocks", kernel_ensure_blocks),
    (ExtentAllocator, "alloc_at", allocator_alloc_at),
    (ExtentAllocator, "_free_one", allocator_free_one),
    (ExtentAllocator, "reserve", allocator_reserve),
    (device.PersistentMemory, "load_nonzero", device_load_nonzero),
    (device, "PersistenceDomain", LinePersistenceDomain),
)


@contextmanager
def reference_mode() -> Iterator[None]:
    """Swap in the reference implementations, class-wide.

    Affects every instance used inside the ``with`` block: linear extent
    lookup/insert, per-block hole search (in ``ExtentMap.holes`` and in
    the write path's hole filler), linear free-list scans and a segment
    test per address in the recovery scan; devices built inside it keep
    per-line persistence bookkeeping.
    """
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in SWAPS]
    try:
        for cls, name, impl in SWAPS:
            setattr(cls, name, impl)
        yield
    finally:
        for cls, name, impl in saved:
            setattr(cls, name, impl)


def verify_equivalence(specs: Optional[List[WorkloadSpec]] = None,
                       ) -> List[str]:
    """Run the wall-clock suite under the fast paths and under
    :func:`reference_mode`.

    Returns a list of human-readable mismatch descriptions; empty means
    every workload's simulated results are bit-identical across the two
    implementations.
    """
    fast = run_suite(specs)
    with reference_mode():
        ref = run_suite(specs)
    return [f"{name}: fast {result} != reference {ref[name]}"
            for name, result in fast.items() if result != ref[name]]
