"""Extent-based PM block allocator.

Every file system in this reproduction allocates 4 KB blocks from its device
region through this allocator.  It keeps a sorted free list of extents,
serves allocations first-fit (contiguous when possible), coalesces on free,
and exposes fragmentation metrics — fragmentation is what breaks huge-page
mapping in the paper's Section 4, so it must be observable.

Allocation charges :data:`~repro.pmem.constants.ALLOC_CPU_NS` of CPU time per
call through the machine clock.
"""

from __future__ import annotations

import bisect
from operator import attrgetter
from typing import List, NamedTuple, Optional

from . import constants as C
from ..kernel.sched import NULL_LOCK
from ..posix.errors import NoSpaceFSError
from .timing import SimClock


class Extent(NamedTuple):
    """A contiguous run of blocks: ``[start, start + length)``.

    A named tuple, not a frozen dataclass: the allocator and the extent
    maps make several per append, and a tuple is built without running a
    Python ``__init__`` per field.
    """

    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length


_START = attrgetter("start")


class OutOfSpaceError(NoSpaceFSError):
    """The allocator cannot satisfy the request (an ENOSPC condition)."""


class ExtentAllocator:
    """First-fit extent allocator over a block range."""

    def __init__(
        self,
        total_blocks: int,
        clock: Optional[SimClock] = None,
        first_block: int = 0,
        faults=None,
        lock=None,
    ) -> None:
        if total_blocks <= 0:
            raise ValueError("total_blocks must be positive")
        self.total_blocks = total_blocks
        self.first_block = first_block
        self.clock = clock
        #: Optional :class:`~repro.pmem.faults.FaultInjector` consulted before
        #: every allocation (forced-ENOSPC experiments).
        self.faults = faults
        #: The allocator lock: kernel FSes hand in a machine-backed SimLock
        #: (or a per-CPU sharded family for NOVA-style free lists) so
        #: concurrent allocations serialise on the scheduler's timeline.
        self.lock = lock if lock is not None else NULL_LOCK
        # Sorted, non-overlapping, coalesced free extents.
        self._free: List[Extent] = [Extent(first_block, total_blocks)]
        self._free_blocks = total_blocks

    # -- accounting ------------------------------------------------------------

    def _charge(self) -> None:
        # The lock brackets the charged allocator work, so under the
        # scheduler its hold time equals the allocation's CPU cost and
        # concurrent allocators queue on it.
        with self.lock:
            if self.clock is not None:
                obs = self.clock.obs
                if obs.enabled:
                    with obs.span("pmem.alloc", cat="alloc"):
                        self.clock.charge_cpu(C.ALLOC_CPU_NS)
                else:
                    self.clock.charge_cpu(C.ALLOC_CPU_NS)
        if self.faults is not None:
            self.faults.on_alloc()

    @property
    def free_blocks(self) -> int:
        return self._free_blocks

    @property
    def used_blocks(self) -> int:
        return self.total_blocks - self._free_blocks

    def largest_free_extent(self) -> int:
        return max((e.length for e in self._free), default=0)

    def fragmentation(self) -> float:
        """1 - (largest free extent / total free); 0 when unfragmented."""
        if self._free_blocks == 0:
            return 0.0
        return 1.0 - self.largest_free_extent() / self._free_blocks

    # -- allocation --------------------------------------------------------------

    def alloc(self, nblocks: int, contiguous: bool = False) -> List[Extent]:
        """Allocate ``nblocks`` blocks, as few extents as possible.

        With ``contiguous=True`` the request fails unless a single free extent
        can satisfy it.
        """
        if nblocks <= 0:
            raise ValueError("nblocks must be positive")
        self._charge()
        if nblocks > self._free_blocks:
            raise OutOfSpaceError(f"want {nblocks} blocks, {self._free_blocks} free")

        if contiguous:
            ext = self._take_contiguous(nblocks, align=1)
            if ext is None:
                raise OutOfSpaceError(f"no contiguous run of {nblocks} blocks")
            return [ext]

        allocated: List[Extent] = []
        remaining = nblocks
        # Prefer a single extent when one exists.
        single = self._take_contiguous(nblocks, align=1)
        if single is not None:
            return [single]
        while remaining > 0:
            free = self._free[0]
            take = min(free.length, remaining)
            allocated.append(self._carve(0, free, take))
            remaining -= take
        return allocated

    def alloc_at(self, start: int, nblocks: int) -> Optional[Extent]:
        """Allocate exactly ``[start, start+nblocks)`` if it is free.

        Used as ext4's allocation *goal*: a file's next allocation tries to
        continue right after its last block, keeping files contiguous.
        """
        if nblocks <= 0:
            raise ValueError("nblocks must be positive")
        self._charge()
        # Only the last free extent starting at or before ``start`` can
        # hold it: the free list is sorted and disjoint.
        i = bisect.bisect_right(self._free, start, key=_START) - 1
        if i < 0:
            return None
        free = self._free[i]
        free_end = free.start + free.length
        if start + nblocks > free_end:
            return None
        if start > free.start:
            self._free[i] = Extent(free.start, start - free.start)
            i += 1
            free = Extent(start, free_end - start)
            self._free.insert(i, free)
        return self._carve(i, free, nblocks)

    def alloc_aligned(self, nblocks: int, align: int) -> Optional[Extent]:
        """Allocate one extent whose start block is a multiple of ``align``.

        Returns ``None`` when fragmentation leaves no aligned run — the
        huge-page failure mode the paper describes.
        """
        if align <= 0:
            raise ValueError("align must be positive")
        self._charge()
        return self._take_contiguous(nblocks, align=align)

    def _take_contiguous(self, nblocks: int, align: int) -> Optional[Extent]:
        for i, free in enumerate(self._free):
            start = free.start
            if align > 1:
                rem = start % align
                if rem:
                    start += align - rem
            if start + nblocks <= free.end:
                if start > free.start:
                    # Split off the unaligned head first.
                    head = Extent(free.start, start - free.start)
                    tail_len = free.end - start
                    self._free[i] = head
                    self._free.insert(i + 1, Extent(start, tail_len))
                    return self._carve(i + 1, self._free[i + 1], nblocks)
                return self._carve(i, free, nblocks)
        return None

    def _carve(self, index: int, free: Extent, take: int) -> Extent:
        """Take ``take`` blocks off the front of free extent ``index``."""
        taken = Extent(free.start, take)
        if take == free.length:
            del self._free[index]
        else:
            self._free[index] = Extent(free.start + take, free.length - take)
        self._free_blocks -= take
        return taken

    def reserve(self, start: int, length: int) -> None:
        """Remove a specific block range from the free list.

        Used when rebuilding allocator state at mount time from the extents
        recorded in on-device metadata.  Raises if any block in the range is
        already allocated.
        """
        if length <= 0:
            return
        end = start + length
        # Free extents before the last one starting at or before ``start``
        # end before it.
        i = max(bisect.bisect_right(self._free, start, key=_START) - 1, 0)
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
            # Split the free extent around the taken range.
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

    # -- free ------------------------------------------------------------------------

    def free(self, extents: List[Extent]) -> None:
        for ext in extents:
            self._free_one(ext)

    def _free_one(self, ext: Extent) -> None:
        if ext.length <= 0:
            return
        if ext.start < self.first_block or ext.end > self.first_block + self.total_blocks:
            raise ValueError(f"extent {ext} outside allocator range")
        i = bisect.bisect_left(self._free, ext.start, key=_START)
        # Overlap checks against neighbours.
        if i > 0 and self._free[i - 1].end > ext.start:
            raise ValueError(f"double free: {ext} overlaps {self._free[i - 1]}")
        if i < len(self._free) and ext.end > self._free[i].start:
            raise ValueError(f"double free: {ext} overlaps {self._free[i]}")
        self._free.insert(i, ext)
        self._free_blocks += ext.length
        # Coalesce with right neighbour, then left.
        if i + 1 < len(self._free) and self._free[i].end == self._free[i + 1].start:
            right = self._free.pop(i + 1)
            self._free[i] = Extent(self._free[i].start, self._free[i].length + right.length)
        if i > 0 and self._free[i - 1].end == self._free[i].start:
            left = self._free.pop(i - 1)
            self._free[i - 1] = Extent(left.start, left.length + self._free[i - 1].length)
