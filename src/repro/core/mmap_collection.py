"""The SplitFS collection of memory-mappings.

U-Split serves data operations through ``mmap``s of the underlying files.
A logical file's data may live across several physical files (the original
file plus staging files), so U-Split keeps a *collection* of mappings keyed
by ``(inode, region)`` where a region is ``map_size`` bytes (2 MB default —
huge-page sized, created with ``MAP_POPULATE``).

Mappings are cached until ``unlink`` (paper Section 3.5), which is what keeps
page faults off the steady-state data path.  After a relink, the physical
blocks that held staged data become part of the target file *without moving*,
so the collection simply re-registers the covered regions for the target at
zero cost — the paper's "existing memory mappings remain valid" property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..kernel.vm import VirtualMemory
from ..ext4.extents import ExtentMap
from ..pmem import constants as C
from ..pmem.allocator import Extent


@dataclass
class MmapStats:
    regions_mapped: int = 0
    regions_adopted: int = 0
    regions_unmapped: int = 0
    lookup_hits: int = 0


class MmapCollection:
    """Cost model of U-Split's cached file mappings.

    Correctness of address translation is handled by the file systems'
    extent maps; this class charges the *costs* mappings incur — VMA setup,
    populate faults (huge or 4 KB), munmap at unlink — exactly once per
    region, mirroring ``MAP_POPULATE`` + the mapping cache.
    """

    def __init__(
        self,
        vm: VirtualMemory,
        map_size: int = C.HUGE_PAGE_SIZE,
        want_huge: bool = True,
    ) -> None:
        if map_size % C.HUGE_PAGE_SIZE:
            raise ValueError("map_size must be a multiple of 2 MB")
        self.vm = vm
        self.map_size = map_size
        self.want_huge = want_huge
        self._regions: Dict[Tuple[int, int], object] = {}
        self.stats = MmapStats()

    def ensure(self, ino: int, offset: int, length: int, extmap: ExtentMap) -> None:
        """Make sure every region under ``[offset, offset+length)`` is mapped.

        On a miss the 2 MB region surrounding the offset is mmap()ed with
        MAP_POPULATE (charging VMA setup and populate faults); on a hit only
        the lookup cost is charged by the caller.
        """
        map_size = self.map_size
        first = offset // map_size
        last = max(offset, offset + length - 1) // map_size
        regions = self._regions
        for region in range(first, last + 1):
            key = (ino, region)
            if key in regions:
                self.stats.lookup_hits += 1
                continue
            start_block = region * (self.map_size // C.BLOCK_SIZE)
            nblocks = self.map_size // C.BLOCK_SIZE
            pieces = extmap.slice_mappings(start_block, nblocks)
            extents = [Extent(p.phys, p.length) for p in pieces]
            mapping = self.vm.mmap_extents(extents, want_huge=self.want_huge)
            self._regions[key] = mapping
            self.stats.regions_mapped += 1

    def adopt(self, ino: int, offset: int, length: int) -> None:
        """Register regions as mapped at **zero cost** (post-relink).

        The staged blocks were already mapped (and populated) through the
        staging file; relink makes them part of ``ino`` without moving them,
        so their mappings remain valid.
        """
        if length <= 0:
            return
        first = offset // self.map_size
        last = (offset + length - 1) // self.map_size
        for region in range(first, last + 1):
            key = (ino, region)
            if key not in self._regions:
                self._regions[key] = "adopted"
                self.stats.regions_adopted += 1

    def drop_file(self, ino: int) -> int:
        """Unmap every region of a file (on unlink); returns regions dropped."""
        doomed = [key for key in self._regions if key[0] == ino]
        for key in doomed:
            mapping = self._regions.pop(key)
            if hasattr(mapping, "unmap"):
                mapping.unmap()
            else:
                self.vm.clock.charge_cpu(C.MUNMAP_NS)
            self.stats.regions_unmapped += 1
        return len(doomed)

    def region_count(self) -> int:
        return len(self._regions)

    def dram_footprint_bytes(self) -> int:
        """Approximate DRAM used for mapping bookkeeping (≈64 B per region)."""
        return 64 * len(self._regions)
