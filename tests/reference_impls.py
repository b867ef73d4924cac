"""Pre-optimization implementations of the simulator's hot paths.

Extent lookup/insert (``ext4/extents.py``), persistence-domain line
bookkeeping (``pmem/cache.py``) and VFS path resolution (``kernel/vfs.py``)
run fast paths in production.  The original code they replaced is kept
here, verbatim, as the oracle they must match bit-for-bit: the property
tests drive both side by side, and :func:`verify_equivalence` runs the
wall-clock suite under :func:`reference_mode` too.  Each function takes
the instance first, so it can be called directly or bound as a method.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

from repro.bench.wallclock import WorkloadSpec, run_suite, sim_signature
from repro.ext4.extents import ExtentMap, FileExtent
from repro.kernel.vfs import VFS
from repro.pmem import constants as C
from repro.pmem.cache import PersistenceDomain
from repro.pmem.constants import CACHELINE_SIZE
from repro.posix.api import FileSystemAPI
from repro.posix.errors import InvalidArgumentFSError

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


# -- persistence domain: one Python loop per cache line ------------------------


def domain_note_store(self: PersistenceDomain, addr: int, size: int,
                      nontemporal: bool) -> None:
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


def domain_clwb(self: PersistenceDomain, addr: int, size: int) -> int:
    for obs in self._observers:
        obs.on_clwb(addr, size)
    flushed = 0
    for line in self._line_range(addr, size):
        if line in self._preimages and line not in self._pending_fence:
            self._pending_fence.add(line)
            flushed += 1
    return flushed


def domain_sfence(self: PersistenceDomain) -> int:
    for obs in self._observers:
        obs.on_fence()
    drained = len(self._pending_fence)
    for line in self._pending_fence:
        self._preimages.pop(line, None)
    self._pending_fence.clear()
    return drained


# -- VFS: uncached longest-prefix resolution -----------------------------------


def vfs_resolve(self: VFS, path: str) -> Tuple[FileSystemAPI, str]:
    if not path.startswith("/"):
        raise InvalidArgumentFSError(f"path must be absolute: {path!r}")
    best = "/"
    for mp in self._mounts:
        if mp != "/" and (path == mp or path.startswith(mp + "/")):
            if len(mp) > len(best):
                best = mp
    fs = self._mounts[best]
    inner = path if best == "/" else path[len(best):] or "/"
    return fs, inner


#: (class, method name, reference implementation) for :func:`reference_mode`.
SWAPS = (
    (ExtentMap, "lookup_block", extent_lookup_block),
    (ExtentMap, "map_byte_range", extent_map_byte_range),
    (ExtentMap, "insert", extent_insert),
    (PersistenceDomain, "note_store", domain_note_store),
    (PersistenceDomain, "clwb", domain_clwb),
    (PersistenceDomain, "sfence", domain_sfence),
    (VFS, "resolve", vfs_resolve),
)


@contextmanager
def reference_mode() -> Iterator[None]:
    """Swap in the reference implementations, class-wide.

    Affects every instance used inside the ``with`` block: linear extent
    lookup/insert, per-line persistence bookkeeping, and uncached VFS path
    resolution.
    """
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in SWAPS]
    try:
        for cls, name, impl in SWAPS:
            setattr(cls, name, impl)
        yield
    finally:
        for cls, name, impl in saved:
            setattr(cls, name, impl)


def verify_equivalence(repeats: int = 1,
                       specs: Optional[List[WorkloadSpec]] = None,
                       ) -> List[str]:
    """Run the wall-clock suite under the fast paths and under
    :func:`reference_mode`.

    Returns a list of human-readable mismatch descriptions; empty means
    every workload's simulated results are bit-identical across the two
    implementations.
    """
    fast = run_suite(repeats, specs)
    with reference_mode():
        ref = run_suite(repeats, specs)
    mismatches: List[str] = []
    for name, fast_result in fast.items():
        a, b = sim_signature(fast_result), sim_signature(ref[name])
        if a != b:
            mismatches.append(f"{name}: fast {a} != reference {b}")
    return mismatches
