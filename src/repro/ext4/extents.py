"""Logical→physical extent maps for ext4-style inodes.

An :class:`ExtentMap` maps logical file blocks to physical device blocks as a
sorted list of non-overlapping extents.  The SplitFS relink primitive is pure
extent-map surgery — punching a logical range out of one inode and splicing
the physical blocks into another — so this module is where relink's atomicity
unit lives.

Lookups are hot: every read, write, and mmap-establishment resolves offsets
through the extent map.  They run in O(log n) via :mod:`bisect` over a
maintained array of extent start blocks, with a last-hit cursor that makes
sequential access O(1).  Inserts splice into the sorted list in place
(coalescing with at most the two neighbours) instead of re-sorting the whole
list.  The original linear implementations live in the test suite
(``tests/reference_impls.py``) as oracles: the property tests and the
wall-clock bench tests assert the fast paths agree with them bit-for-bit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, NamedTuple, Optional, Tuple

from ..pmem import constants as C
from ..pmem.allocator import Extent


class FileExtent(NamedTuple):
    """``length`` blocks mapping logical block ``logical`` → physical ``phys``."""

    logical: int
    phys: int
    length: int

    @property
    def logical_end(self) -> int:
        return self.logical + self.length

    @property
    def phys_end(self) -> int:
        return self.phys + self.length


class ExtentMap:
    """Sorted, non-overlapping logical→physical block map."""

    def __init__(self, extents: Optional[List[FileExtent]] = None) -> None:
        self.extents: List[FileExtent] = list(extents or [])
        self._validate()

    def _validate(self) -> None:
        self.extents.sort(key=lambda e: e.logical)
        for a, b in zip(self.extents, self.extents[1:]):
            if a.logical_end > b.logical:
                raise ValueError(f"overlapping extents {a} and {b}")
        self._reindex()

    def _reindex(self) -> None:
        """Rebuild the bisect index; call after any out-of-band mutation."""
        self._starts: List[int] = [e.logical for e in self.extents]
        self._cursor: int = 0

    def __iter__(self) -> Iterator[FileExtent]:
        return iter(self.extents)

    def __len__(self) -> int:
        return len(self.extents)

    @property
    def blocks_used(self) -> int:
        return sum(e.length for e in self.extents)

    def copy(self) -> "ExtentMap":
        return ExtentMap(list(self.extents))

    # -- lookup ------------------------------------------------------------------

    def _find(self, logical: int) -> int:
        """Index of the extent containing ``logical``, or -1 for a hole.

        Checks the last-hit cursor (and its successor, for sequential scans)
        before falling back to a bisect over the start-block index.
        """
        exts = self.extents
        i = self._cursor
        if i < len(exts):
            e = exts[i]
            if e.logical <= logical:
                if logical < e.logical + e.length:
                    return i
                if i + 1 < len(exts):
                    e = exts[i + 1]
                    if e.logical <= logical < e.logical + e.length:
                        self._cursor = i + 1
                        return i + 1
        i = bisect_right(self._starts, logical) - 1
        if i >= 0:
            e = exts[i]
            if logical < e.logical + e.length:
                self._cursor = i
                return i
        return -1

    def lookup_block(self, logical: int) -> Optional[int]:
        """Physical block for ``logical``, or None for a hole."""
        i = self._find(logical)
        if i < 0:
            return None
        e = self.extents[i]
        return e.phys + (logical - e.logical)

    def map_byte_range(
        self, offset: int, size: int, block_size: int = C.BLOCK_SIZE
    ) -> List[Tuple[Optional[int], int]]:
        """Resolve ``[offset, offset+size)`` to ``(device_byte_addr, run)`` pieces.

        Holes come back as ``(None, run)``.  Runs never cross extent
        boundaries but do span whole extents.
        """
        if offset < 0 or size < 0:
            raise ValueError("negative offset/size")
        exts = self.extents
        if not exts or not size:
            return [(None, size)] if size else []
        end = offset + size
        # Start at the cursor's extent when it holds ``offset``, else at
        # the last extent starting at or before it (bisect): no extent
        # before that one reaches ``offset``.
        i = self._cursor
        if i < len(exts):
            ext = exts[i]
            ext_start = ext.logical * block_size
            ext_end = ext_start + ext.length * block_size
        else:
            ext_start = ext_end = -1
        if not ext_start <= offset < ext_end:
            i = bisect_right(self._starts, offset // block_size) - 1
            if i < 0:
                i = 0
            ext = exts[i]
            ext_start = ext.logical * block_size
            ext_end = ext_start + ext.length * block_size
        if ext_start <= offset and end <= ext_end:
            # The whole range inside one extent: the common case.
            self._cursor = i
            return [(ext.phys * block_size + (offset - ext_start), size)]
        out: List[Tuple[Optional[int], int]] = []
        pos = offset
        n = len(exts)
        while pos < end:
            while i < n and (exts[i].logical + exts[i].length) * block_size <= pos:
                i += 1
            if i == n or exts[i].logical * block_size >= end:
                out.append((None, end - pos))
                break
            ext = exts[i]
            ext_start = ext.logical * block_size
            ext_end = (ext.logical + ext.length) * block_size
            if pos < ext_start:
                out.append((None, ext_start - pos))
                pos = ext_start
            run = min(end, ext_end) - pos
            addr = ext.phys * block_size + (pos - ext_start)
            out.append((addr, run))
            pos += run
        self._cursor = min(i, n - 1)
        return out

    def holes(self, first: int, end: int) -> List[Tuple[int, int]]:
        """The unmapped runs of logical blocks ``[first, end)``, in order,
        as ``(first block, length)``."""
        out: List[Tuple[int, int]] = []
        if first >= end:
            return out
        exts = self.extents
        n = len(exts)
        i = bisect_right(self._starts, first) - 1
        if i < 0 or exts[i].logical + exts[i].length <= first:
            i += 1
        pos = first
        while i < n:
            e = exts[i]
            if e.logical >= end:
                break
            if e.logical > pos:
                out.append((pos, e.logical - pos))
            pos = e.logical + e.length
            if pos >= end:
                return out
            i += 1
        out.append((pos, end - pos))
        return out

    # -- mutation --------------------------------------------------------------------

    def insert(self, logical: int, phys: int, length: int) -> None:
        """Insert a mapping; the logical range must currently be a hole."""
        if length <= 0:
            return
        exts = self.extents
        starts = self._starts
        i = bisect_right(starts, logical)
        end = logical + length
        # exts[i-1] starts at or before `logical`; exts[i] starts after it.
        left = exts[i - 1] if i > 0 else None
        right = exts[i] if i < len(exts) else None
        if left is not None and left.logical + left.length > logical:
            raise ValueError(
                f"insert {FileExtent(logical, phys, length)} overlaps {left}"
            )
        if right is not None and right.logical < end:
            raise ValueError(
                f"insert {FileExtent(logical, phys, length)} overlaps {right}"
            )
        merge_left = (
            left is not None
            and left.logical + left.length == logical
            and left.phys + left.length == phys
        )
        merge_right = (
            right is not None
            and right.logical == end
            and right.phys == phys + length
        )
        if merge_left and merge_right:
            exts[i - 1] = FileExtent(
                left.logical, left.phys, left.length + length + right.length
            )
            del exts[i]
            del starts[i]
        elif merge_left:
            exts[i - 1] = FileExtent(left.logical, left.phys, left.length + length)
        elif merge_right:
            exts[i] = FileExtent(logical, phys, length + right.length)
            starts[i] = logical
        else:
            exts.insert(i, FileExtent(logical, phys, length))
            starts.insert(i, logical)
        if self._cursor >= len(exts):
            self._cursor = 0

    def punch(self, logical: int, length: int) -> List[Extent]:
        """Remove mappings for logical blocks ``[logical, logical+length)``.

        Returns the physical extents that were mapped there (for the caller
        to free, or to splice into another inode).
        """
        if length <= 0:
            return []
        exts = self.extents
        if not exts:
            return []
        end = logical + length
        # Affected slice: every extent overlapping [logical, end).
        lo = bisect_right(self._starts, logical) - 1
        if lo < 0 or exts[lo].logical_end <= logical:
            lo += 1
        hi = bisect_left(self._starts, end)
        if lo >= hi:
            return []
        replacement: List[FileExtent] = []
        removed: List[Extent] = []
        for e in exts[lo:hi]:
            # Head piece survives.
            if e.logical < logical:
                replacement.append(FileExtent(e.logical, e.phys, logical - e.logical))
            # Tail piece survives.
            if e.logical_end > end:
                off = end - e.logical
                replacement.append(
                    FileExtent(end, e.phys + off, e.logical_end - end)
                )
            cut_start = max(e.logical, logical)
            cut_end = min(e.logical_end, end)
            removed.append(
                Extent(e.phys + (cut_start - e.logical), cut_end - cut_start)
            )
        exts[lo:hi] = replacement
        self._starts[lo:hi] = [e.logical for e in replacement]
        self._cursor = 0
        return removed

    def slice_mappings(self, logical: int, length: int) -> List[FileExtent]:
        """The mapped pieces of logical range (no holes), without mutating."""
        exts = self.extents
        if length <= 0 or not exts:
            return []
        end = logical + length
        lo = bisect_right(self._starts, logical) - 1
        if lo < 0 or exts[lo].logical_end <= logical:
            lo += 1
        hi = bisect_left(self._starts, end)
        out: List[FileExtent] = []
        for e in exts[lo:hi]:
            cut_start = max(e.logical, logical)
            cut_end = min(e.logical_end, end)
            out.append(
                FileExtent(cut_start, e.phys + (cut_start - e.logical), cut_end - cut_start)
            )
        return out

    def truncate_blocks(self, nblocks: int) -> List[Extent]:
        """Drop every mapping at or beyond logical block ``nblocks``."""
        tail = self.extents[-1].logical_end if self.extents else 0
        if tail <= nblocks:
            return []
        return self.punch(nblocks, tail - nblocks)

    def physical_extents(self) -> List[Extent]:
        """All physical extents backing this map (for dealloc at unlink)."""
        return [Extent(e.phys, e.length) for e in self.extents]
