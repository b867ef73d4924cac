"""Unit tests for the VM subsystem (mmap, page faults, huge pages)."""

import pytest

from repro.kernel.vm import VirtualMemory
from repro.pmem import constants as C
from repro.pmem.allocator import Extent
from repro.pmem.timing import SimClock


@pytest.fixture
def vm():
    return VirtualMemory(SimClock())


HUGE_BLOCKS = C.BLOCKS_PER_HUGE_PAGE


class TestHugeEligibility:
    def test_aligned_contiguous_2mb_uses_huge(self, vm):
        m = vm.mmap_extents([Extent(HUGE_BLOCKS, HUGE_BLOCKS)])
        assert m.huge
        assert vm.stats.faults_huge == 1
        assert vm.stats.faults_4k == 0

    def test_unaligned_physical_falls_back(self, vm):
        m = vm.mmap_extents([Extent(HUGE_BLOCKS + 1, HUGE_BLOCKS)])
        assert not m.huge
        assert vm.stats.faults_4k == HUGE_BLOCKS

    def test_fragmented_extents_fall_back(self, vm):
        m = vm.mmap_extents(
            [Extent(HUGE_BLOCKS, HUGE_BLOCKS // 2), Extent(4 * HUGE_BLOCKS, HUGE_BLOCKS // 2)]
        )
        assert not m.huge

    def test_sub_2mb_mapping_uses_small_pages(self, vm):
        m = vm.mmap_extents([Extent(0, 16)])
        assert not m.huge
        assert vm.stats.faults_4k == 16

    def test_want_huge_false_forces_small(self, vm):
        m = vm.mmap_extents([Extent(HUGE_BLOCKS, HUGE_BLOCKS)], want_huge=False)
        assert not m.huge

    def test_adjacent_extents_coalesce_into_one_segment(self, vm):
        m = vm.mmap_extents(
            [Extent(HUGE_BLOCKS, HUGE_BLOCKS // 2),
             Extent(HUGE_BLOCKS + HUGE_BLOCKS // 2, HUGE_BLOCKS // 2)]
        )
        assert len(m.segments) == 1
        assert m.huge


class TestPopulate:
    def test_populate_charges_all_faults_up_front(self, vm):
        before = vm.clock.now_ns
        vm.mmap_extents([Extent(0, 8)])
        cost = vm.clock.now_ns - before
        assert cost == pytest.approx(C.VMA_SETUP_NS + 8 * C.PAGE_FAULT_4K_NS)

    def test_huge_fault_cost_vs_small(self, vm):
        c0 = vm.clock.now_ns
        vm.mmap_extents([Extent(HUGE_BLOCKS, HUGE_BLOCKS)])
        huge_cost = vm.clock.now_ns - c0
        c1 = vm.clock.now_ns
        vm.mmap_extents([Extent(HUGE_BLOCKS + 1, HUGE_BLOCKS)])
        small_cost = vm.clock.now_ns - c1
        # The paper: losing huge pages cost ~50% read performance; here one
        # huge fault must be far cheaper than 512 small faults.
        assert huge_cost * 10 < small_cost


class TestUnmap:
    def test_unmap_charges_and_counts(self, vm):
        m = vm.mmap_extents([Extent(0, 1)])
        before = vm.clock.now_ns
        m.unmap()
        assert vm.clock.now_ns - before == pytest.approx(C.MUNMAP_NS)
        assert vm.stats.vmas_destroyed == 1

    def test_double_unmap_is_noop(self, vm):
        m = vm.mmap_extents([Extent(0, 1)])
        m.unmap()
        m.unmap()
        assert vm.stats.vmas_destroyed == 1
