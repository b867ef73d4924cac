"""Tests for the wall-clock bench harness (small, fast workloads), and the
check that every fast path is bit-identical to its reference."""

from repro.bench import wallclock as wc
from repro.ext4.extents import ExtentMap
from repro.kernel.fsbase import KernelFS
from repro.pmem import device
from repro.pmem.cache import PersistenceDomain
from tests import reference_impls as ref_impl

SMALL = [
    wc.WorkloadSpec("seq-write", "io", "splitfs-strict", "seq-write",
                    file_bytes=256 * 1024),
    wc.WorkloadSpec("rand-read", "io", "ext4dax", "rand-read",
                    file_bytes=256 * 1024),
]


class TestReferenceMode:
    def test_swaps_and_restores(self):
        fast_lookup = ExtentMap.lookup_block
        fast_fill = KernelFS._ensure_blocks
        fast_scan = device.PersistentMemory.load_nonzero
        with ref_impl.reference_mode():
            assert ExtentMap.lookup_block is ref_impl.extent_lookup_block
            assert KernelFS._ensure_blocks is ref_impl.kernel_ensure_blocks
            assert (device.PersistentMemory.load_nonzero
                    is ref_impl.device_load_nonzero)
            pm = device.PersistentMemory(1 << 16)
            assert type(pm.domain) is ref_impl.LinePersistenceDomain
            assert type(pm.fork(pm.clock).domain) is type(pm.domain)
        assert ExtentMap.lookup_block is fast_lookup
        assert KernelFS._ensure_blocks is fast_fill
        assert device.PersistentMemory.load_nonzero is fast_scan
        assert device.PersistenceDomain is PersistenceDomain

    def test_restores_on_exception(self):
        fast_lookup = ExtentMap.lookup_block
        try:
            with ref_impl.reference_mode():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert ExtentMap.lookup_block is fast_lookup


class TestSuite:
    def test_verify_equivalence_small(self):
        assert ref_impl.verify_equivalence(specs=SMALL) == []

    def test_every_workload_is_bit_identical_to_the_reference(self):
        # The full suite, including the crashmc sweep: each fast path must
        # leave every simulated result unchanged.
        assert ref_impl.verify_equivalence() == []
