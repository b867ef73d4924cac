"""The device buffer: 64 KiB segments over a zero base or a parent buffer.

Every :class:`~repro.pmem.device.PersistentMemory` keeps its bytes in a
:class:`CowBuffer`.  A root device's buffer lies over an implicit zero
base: building it allocates nothing, a segment nobody has written reads as
zeros, and the first write to a segment allocates it zero-filled.  A device
of any size therefore costs host memory only for the segments its file
system has touched.

:meth:`~repro.pmem.device.PersistentMemory.fork` hands out a child device
in O(1) by layering a child buffer over the parent's: the child *shares*
the parent's segments and copies one out only when the child first writes
to it (crash rollback, journal recovery, RAS repair).  The parent's buffer
is never touched through the child.

Discipline: a fork is taken while the parent is **paused** (the explorer
forks inside a persistence-event hook, explores the child to completion,
and only then resumes the parent).  A parent store while a child is alive
would leak into the child's unshared segments; ``CowBuffer`` therefore
snapshots nothing eagerly and the explorer guarantees the pause.  This is
the same one-sided overlay real CoW snapshots use when the origin is
frozen for the snapshot's lifetime.

``CowStats`` counts forks, lazy segment copies, and copied/shared bytes;
the explorer registers one under ``crashmc.fork`` in the metrics registry
so deep sweeps report how much state was shared instead of copied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from ..obs.metrics import counter_field

#: Copy granularity: 64 KiB segments (1024 cache lines).  Crash rollback
#: touches clustered lines, so one segment copy typically covers a whole
#: rollback cluster while still sharing the untouched bulk of the device.
SEGMENT_SHIFT = 16
SEGMENT_SIZE = 1 << SEGMENT_SHIFT
SEGMENT_MASK = SEGMENT_SIZE - 1


@dataclass
class CowStats:
    """Fork/CoW counters (registered as ``crashmc.fork.*``)."""

    forks: int = counter_field()
    cow_copies: int = counter_field()
    cow_bytes_copied: int = counter_field()
    bytes_shared: int = counter_field()


class CowBuffer:
    """A byte buffer of private 64 KiB segments over a base it never writes.

    ``base`` is either the parent buffer to overlay (a fork) or a size in
    bytes, for a root buffer over an implicit zero base.  Reads of a
    segment this buffer has not written fall through to the base (zeros
    for a root); the first write to a segment copies it out of the base,
    after which the segment is private.

    Besides :meth:`read`/:meth:`write` for the device hot paths, it
    supports the ``bytearray`` protocol the RAS layer and tests use:
    ``len(buf)``, ``bytes(buf)``, ``buf[i]``, ``buf[a:b]`` and their
    assignments (which never change the length).
    """

    __slots__ = ("base", "size", "_own", "stats")

    def __init__(self, base: Union[int, "CowBuffer"],
                 stats: Optional[CowStats] = None) -> None:
        if isinstance(base, int):
            self.base: Optional[CowBuffer] = None
            self.size = base
        else:
            self.base = base
            self.size = base.size
        self._own: Dict[int, bytearray] = {}
        self.stats = stats
        if stats is not None:
            stats.forks += 1
            stats.bytes_shared += self.size

    def __len__(self) -> int:
        return self.size

    # -- segment plumbing ---------------------------------------------------

    def _own_segment(self, seg: int) -> bytearray:
        """Make segment ``seg`` private: a copy of the base's bytes."""
        start = seg << SEGMENT_SHIFT
        end = min(start + SEGMENT_SIZE, self.size)
        base = self.base
        if base is None:
            own = bytearray(end - start)
        else:
            own = bytearray(base.read(start, end))
        self._own[seg] = own
        stats = self.stats
        if stats is not None:
            stats.cow_copies += 1
            stats.cow_bytes_copied += end - start
            stats.bytes_shared -= end - start
        return own

    # -- bulk access --------------------------------------------------------

    def read(self, start: int, stop: int) -> bytes:
        """Bytes of ``[start, stop)``, from private segments or the base."""
        if start >= stop:
            return b""
        first = start >> SEGMENT_SHIFT
        if first == (stop - 1) >> SEGMENT_SHIFT:
            seg_own = self._own.get(first)
            if seg_own is not None:
                off = start & SEGMENT_MASK
                return bytes(seg_own[off : off + stop - start])
            base = self.base
            if base is None:
                return bytes(stop - start)
            return base.read(start, stop)
        parts = []
        pos = start
        while pos < stop:
            seg_stop = min(((pos >> SEGMENT_SHIFT) + 1) << SEGMENT_SHIFT, stop)
            parts.append(self.read(pos, seg_stop))
            pos = seg_stop
        return b"".join(parts)

    def write(self, start: int, data: bytes) -> None:
        """Write ``data`` at ``start``, privatising the segments it touches."""
        size = len(data)
        if size == 0:
            return
        stop = start + size
        first = start >> SEGMENT_SHIFT
        if first == (stop - 1) >> SEGMENT_SHIFT:
            try:
                seg_own = self._own[first]
            except KeyError:  # first write to this segment
                seg_own = self._own_segment(first)
            off = start & SEGMENT_MASK
            seg_own[off : off + size] = data
            return
        pos = start
        while pos < stop:
            seg_stop = min(((pos >> SEGMENT_SHIFT) + 1) << SEGMENT_SHIFT, stop)
            self.write(pos, data[pos - start : seg_stop - start])
            pos = seg_stop

    def __bytes__(self) -> bytes:
        """The whole buffer (tests and digests only)."""
        return self.read(0, self.size)

    # -- bytearray-compatible subscripting ----------------------------------

    def _index(self, key: int) -> int:
        index = key + self.size if key < 0 else key
        if not 0 <= index < self.size:
            raise IndexError("CowBuffer index out of range")
        return index

    def __getitem__(self, key):
        if type(key) is slice:
            start, stop, step = key.indices(self.size)
            if step != 1:
                raise ValueError("CowBuffer slices must be contiguous")
            return self.read(start, stop)
        index = self._index(key)
        return self.read(index, index + 1)[0]

    def __setitem__(self, key, value) -> None:
        if type(key) is slice:
            start, stop, step = key.indices(self.size)
            if step != 1:
                raise ValueError("CowBuffer slices must be contiguous")
            if len(value) != stop - start:
                raise ValueError(
                    f"CowBuffer slice assignment must preserve length "
                    f"({stop - start} != {len(value)})")
            self.write(start, bytes(value))
            return
        self.write(self._index(key), bytes((value,)))
