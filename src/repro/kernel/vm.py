"""Virtual-memory subsystem: VMAs, page faults, huge pages.

SplitFS's data path lives or dies by this machinery: U-Split ``mmap``s 2 MB
file regions with ``MAP_POPULATE`` and serves reads/overwrites with loads and
stores, so the costs that remain are page faults at mapping time.  The paper
(Section 4) stresses two properties this model reproduces:

* page faults are a dominant cost once device IO is fast, and
* huge pages need both the *virtual* and *physical* 2 MB alignment, so PM
  fragmentation silently degrades mappings to 4 KB pages (halving read
  performance in the paper's experience).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..pmem import constants as C
from ..pmem.allocator import Extent
from ..pmem.timing import SimClock


@dataclass
class VMStats:
    faults_4k: int = 0
    faults_huge: int = 0
    vmas_created: int = 0
    vmas_destroyed: int = 0
    huge_mappings: int = 0
    small_mappings: int = 0


@dataclass
class Segment:
    """A physically contiguous piece of a mapping."""

    map_offset: int  # offset within the mapping
    device_addr: int  # byte address on the PM device
    length: int  # bytes


class Mapping:
    """One VMA: a virtual window onto (possibly several) device extents,
    its pages faulted in when it was created (``MAP_POPULATE``)."""

    def __init__(
        self,
        vm: "VirtualMemory",
        segments: List[Segment],
        huge: bool,
    ) -> None:
        self._vm = vm
        self.segments = segments
        self.length = sum(s.length for s in segments)
        self.huge = huge
        self.active = True

    def unmap(self) -> None:
        if self.active:
            self.active = False
            self._vm._destroy(self)


class VirtualMemory:
    """Per-machine VM subsystem; charges mapping and fault costs."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self.stats = VMStats()

    # -- internal charging ----------------------------------------------------

    def _charge_fault(self, huge: bool) -> None:
        obs = self.clock.obs
        if huge:
            self.stats.faults_huge += 1
            if obs.enabled:
                with obs.span("vm.fault.huge", cat="fault"):
                    self.clock.charge_cpu(C.PAGE_FAULT_HUGE_NS)
            else:
                self.clock.charge_cpu(C.PAGE_FAULT_HUGE_NS)
        else:
            self.stats.faults_4k += 1
            if obs.enabled:
                with obs.span("vm.fault.4k", cat="fault"):
                    self.clock.charge_cpu(C.PAGE_FAULT_4K_NS)
            else:
                self.clock.charge_cpu(C.PAGE_FAULT_4K_NS)

    def _destroy(self, mapping: Mapping) -> None:
        self.stats.vmas_destroyed += 1
        with self.clock.obs.span("vm.munmap", cat="vm"):
            self.clock.charge_cpu(C.MUNMAP_NS)

    # -- public API ---------------------------------------------------------------

    def mmap_extents(
        self,
        extents: List[Extent],
        want_huge: bool = True,
        block_size: int = C.BLOCK_SIZE,
    ) -> Mapping:
        """Create a mapping over device ``extents`` (in logical order) and
        take every page fault up front, as ``MAP_POPULATE`` does.

        Huge pages are used only when the paper's conditions hold: the whole
        mapping is one physically contiguous run whose device address and
        length are 2 MB-aligned.  Otherwise the mapping silently falls back
        to 4 KB pages (more populate faults).
        """
        with self.clock.obs.span("vm.mmap", cat="vm"):
            self.clock.charge_cpu(C.VMA_SETUP_NS)
        self.stats.vmas_created += 1

        segments: List[Segment] = []
        pos = 0
        for ext in extents:
            addr = ext.start * block_size
            length = ext.length * block_size
            if segments and segments[-1].device_addr + segments[-1].length == addr:
                prev = segments[-1]
                segments[-1] = Segment(prev.map_offset, prev.device_addr, prev.length + length)
            else:
                segments.append(Segment(pos, addr, length))
            pos += length
        total = pos

        huge = (
            want_huge
            and len(segments) == 1
            and total >= C.HUGE_PAGE_SIZE
            and segments[0].device_addr % C.HUGE_PAGE_SIZE == 0
            and total % C.HUGE_PAGE_SIZE == 0
        )
        if huge:
            self.stats.huge_mappings += 1
        else:
            self.stats.small_mappings += 1

        mapping = Mapping(self, segments, huge=huge)
        page = C.HUGE_PAGE_SIZE if huge else C.BLOCK_SIZE
        for _ in range((total + page - 1) // page):
            self._charge_fault(huge)
        return mapping
