"""Tests for the wall-clock bench harness (small, fast workloads), and the
check that every fast path is bit-identical to its reference."""

from repro.bench import wallclock as wc
from repro.ext4.extents import ExtentMap
from repro.kernel.vfs import VFS
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
        fast_note = PersistenceDomain.note_store
        fast_resolve = VFS.resolve
        with ref_impl.reference_mode():
            assert ExtentMap.lookup_block is ref_impl.extent_lookup_block
            assert (PersistenceDomain.note_store
                    is ref_impl.domain_note_store)
            assert VFS.resolve is ref_impl.vfs_resolve
        assert ExtentMap.lookup_block is fast_lookup
        assert PersistenceDomain.note_store is fast_note
        assert VFS.resolve is fast_resolve

    def test_restores_on_exception(self):
        fast_lookup = ExtentMap.lookup_block
        try:
            with ref_impl.reference_mode():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert ExtentMap.lookup_block is fast_lookup


class TestSuite:
    def test_run_workload_repeats_are_deterministic(self):
        result = wc.run_workload(SMALL[0], repeats=2)
        assert result["total_ns"] > 0
        assert result["wall_s"] > 0

    def test_verify_equivalence_small(self):
        assert ref_impl.verify_equivalence(repeats=1, specs=SMALL) == []

    def test_every_workload_is_bit_identical_to_the_reference(self):
        # The full suite, including the crashmc sweep: each fast path must
        # leave every simulated result unchanged.
        assert ref_impl.verify_equivalence(repeats=1) == []

    def test_sim_signature_excludes_wall(self):
        result = wc.run_workload(SMALL[0], repeats=1)
        sig = wc.sim_signature(result)
        assert "wall_s" not in sig
        assert set(sig) == set(wc.SIM_KEYS)


class TestGolden:
    def test_check_passes_on_identical_results(self):
        results = wc.run_suite(repeats=1, specs=SMALL)
        golden = wc.emit_golden(results)
        assert wc.check_against_golden(results, golden) == []

    def test_check_catches_simulated_change(self):
        results = wc.run_suite(repeats=1, specs=SMALL)
        golden = wc.emit_golden(
            {k: dict(v) for k, v in results.items()})
        golden["current"]["seq-write"]["cpu_ns"] += 1.0
        problems = wc.check_against_golden(results, golden)
        assert len(problems) == 1 and "seq-write" in problems[0]

    def test_check_ignores_wall_numbers(self):
        results = wc.run_suite(repeats=1, specs=SMALL)
        golden = wc.emit_golden({k: dict(v) for k, v in results.items()})
        golden["current"]["seq-write"]["wall_s"] = 9999.0
        assert wc.check_against_golden(results, golden) == []

    def test_emit_records_speedup_vs_reference(self):
        results = wc.run_suite(repeats=1, specs=SMALL)
        reference = {k: {**v, "wall_s": v["wall_s"] * 2}
                     for k, v in results.items()}
        doc = wc.emit_golden(results, reference)
        assert doc["reference"] is reference
        for name in results:
            assert doc["wall_speedup_vs_reference"][name] == 2.0
