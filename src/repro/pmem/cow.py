"""The device buffer: 64 KiB segments over a zero base or a parent buffer.

Every :class:`~repro.pmem.device.PersistentMemory` keeps its bytes in a
:class:`CowBuffer`.  A root device's buffer lies over an implicit zero
base: building it allocates nothing, a segment nobody has written reads as
zeros, and the first write to a segment allocates it.  A device of any
size therefore costs host memory only for the segments its file system
has touched.

:meth:`~repro.pmem.device.PersistentMemory.fork` hands out a child device
in O(1) by layering a child buffer over the parent's: the child *shares*
the parent's segments and owns one only once the child writes to it
(crash rollback, journal recovery, RAS repair).  The parent's buffer is
never touched through the child.

A segment can also be a *zero segment*, which reads as zeros and holds no
bytes.  A write that covers a whole segment replaces it without reading
its old bytes, and an all-zero one makes it a zero segment: a root simply
drops the segment, so zeroing a segment frees its memory, and a fork
records ``None``, which shadows whatever its base holds there.  Only a
write to part of a segment copies the segment's old bytes, once.
:meth:`CowBuffer.segment` resolves a segment through the fork chain
without copying, so a scan can skip zero segments and compare records in
place (:meth:`~repro.pmem.device.PersistentMemory.load_nonzero`).

Discipline: a fork is taken while the parent is **paused** (the explorer
forks inside a persistence-event hook, explores the child to completion,
and only then resumes the parent).  A parent store while a child is alive
would leak into the child's unshared segments; ``CowBuffer`` therefore
snapshots nothing eagerly and the explorer guarantees the pause.  This is
the same one-sided overlay real CoW snapshots use when the origin is
frozen for the snapshot's lifetime.

``CowStats`` counts forks, segment copies, and copied/shared bytes; the
explorer registers one under ``crashmc.fork`` in the metrics registry so
deep sweeps report how much state was shared instead of copied.
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

#: What a zero segment reads as; shared, never written.
_ZERO_SEGMENT = bytes(SEGMENT_SIZE)
_ZERO_VIEW = memoryview(_ZERO_SEGMENT)


@dataclass
class CowStats:
    """Fork/CoW counters (registered as ``crashmc.fork.*``).

    ``bytes_shared`` starts at the device size at each fork and falls by a
    segment's size the first time the fork owns that segment, whichever
    write made it so.  ``cow_copies`` and ``cow_bytes_copied`` count only
    the segments whose old bytes were copied, which a write to part of a
    segment does; a write of a whole segment copies nothing.
    """

    forks: int = counter_field()
    cow_copies: int = counter_field()
    cow_bytes_copied: int = counter_field()
    bytes_shared: int = counter_field()


class CowBuffer:
    """A byte buffer of owned 64 KiB segments over a base it never writes.

    ``base`` is either the parent buffer to overlay (a fork) or a size in
    bytes, for a root buffer over an implicit zero base.  ``_own`` maps a
    segment number to its bytes, or, in a fork, to ``None`` for a zero
    segment; a segment missing from ``_own`` reads from the base (zeros
    for a root).  A write to part of a segment first copies what the
    segment reads, once; a write of a whole segment replaces it without a
    copy, and an all-zero one makes it a zero segment.  :meth:`segment`
    hands out what a segment reads from without copying it.

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
        self._own: Dict[int, Optional[bytearray]] = {}
        self.stats = stats
        if stats is not None:
            stats.forks += 1
            stats.bytes_shared += self.size

    def __len__(self) -> int:
        return self.size

    # -- segment plumbing ---------------------------------------------------

    def segment(self, n: int) -> Optional[bytearray]:
        """The bytes segment ``n`` reads from, or ``None`` if it reads as
        zeros.  Nothing is copied: callers must not mutate the result, nor
        keep it across a write to this buffer."""
        own = self._own
        if n in own:
            return own[n]
        base = self.base
        return None if base is None else base.segment(n)

    def _own_segment(self, n: int) -> bytearray:
        """Segment ``n`` as owned bytes, for a write to part of it: one copy
        of what it reads."""
        own = self._own
        length = min(SEGMENT_SIZE, self.size - (n << SEGMENT_SHIFT))
        if n in own:  # a zero segment of this fork
            seg = own[n] = bytearray(length)
            return seg
        base = self.base
        old = None if base is None else base.segment(n)
        seg = own[n] = bytearray(length) if old is None else bytearray(old)
        stats = self.stats
        if stats is not None:
            stats.cow_copies += 1
            stats.cow_bytes_copied += length
            stats.bytes_shared -= length
        return seg

    def _replace_segment(self, n: int, data, off: int) -> None:
        """Make segment ``n`` hold ``data[off : off + SEGMENT_SIZE]``,
        without reading its old bytes."""
        own = self._own
        stats = self.stats
        if stats is not None and n not in own:
            stats.bytes_shared -= SEGMENT_SIZE
        if data.startswith(_ZERO_SEGMENT, off):
            if self.base is None:
                own.pop(n, None)
            else:
                own[n] = None
        else:
            own[n] = bytearray(memoryview(data)[off : off + SEGMENT_SIZE])

    # -- bulk access --------------------------------------------------------

    def read(self, start: int, stop: int) -> bytes:
        """Bytes of ``[start, stop)``, from owned segments or the base."""
        if start >= stop:
            return b""
        off = start & SEGMENT_MASK
        if off + stop - start <= SEGMENT_SIZE:  # inside one segment
            seg = self._own.get(start >> SEGMENT_SHIFT)
            if seg is None:
                if self.base is None:
                    return bytes(stop - start)
                seg = self.segment(start >> SEGMENT_SHIFT)
                if seg is None:
                    return bytes(stop - start)
            return bytes(memoryview(seg)[off : off + stop - start])
        parts = []
        nonzero = False
        pos = start
        while pos < stop:
            n = pos >> SEGMENT_SHIFT
            seg_stop = min((n + 1) << SEGMENT_SHIFT, stop)
            seg = self.segment(n)
            if seg is None:
                parts.append(_ZERO_VIEW[: seg_stop - pos])
            else:
                nonzero = True
                off = pos & SEGMENT_MASK
                parts.append(memoryview(seg)[off : off + seg_stop - pos])
            pos = seg_stop
        return b"".join(parts) if nonzero else bytes(stop - start)

    def write(self, start: int, data: bytes) -> None:
        """Write ``data`` at ``start``: each whole 64 KiB segment it covers
        is replaced, and each part of one is written into the segment's
        owned copy."""
        size = len(data)
        if size == 0:
            return
        off = start & SEGMENT_MASK
        if off + size <= SEGMENT_SIZE and size < SEGMENT_SIZE:
            # Part of one segment.
            seg = self._own.get(start >> SEGMENT_SHIFT)
            if seg is None:
                seg = self._own_segment(start >> SEGMENT_SHIFT)
            seg[off : off + size] = data
            return
        stop = start + size
        view = memoryview(data)
        pos = start
        while pos < stop:
            n = pos >> SEGMENT_SHIFT
            seg_start = n << SEGMENT_SHIFT
            seg_stop = min(seg_start + SEGMENT_SIZE, stop)
            if seg_stop - pos == SEGMENT_SIZE:
                self._replace_segment(n, data, pos - start)
            else:
                seg = self._own.get(n)
                if seg is None:
                    seg = self._own_segment(n)
                off = pos - seg_start
                seg[off : off + seg_stop - pos] = view[pos - start
                                                       : seg_stop - start]
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
