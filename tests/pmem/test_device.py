"""Unit tests for the PersistentMemory device model."""

import pytest

from repro.pmem import constants as C
from repro.pmem.cow import SEGMENT_SIZE
from repro.pmem.device import PersistentMemory, PMError
from repro.pmem.timing import Category, SimClock


@pytest.fixture
def pm():
    return PersistentMemory(1 << 20, SimClock())


class TestGeometry:
    def test_size_must_be_block_multiple(self):
        with pytest.raises(ValueError):
            PersistentMemory(1000)

    def test_out_of_range_store(self, pm):
        with pytest.raises(PMError):
            pm.store(pm.size - 4, b"12345678")

    def test_out_of_range_load(self, pm):
        with pytest.raises(PMError):
            pm.load(pm.size, 1)


class TestStoreLoad:
    def test_round_trip(self, pm):
        pm.store(4096, b"hello world")
        assert pm.load(4096, 11) == b"hello world"

    def test_nontemporal_store_charges_write_bandwidth(self, pm):
        pm.store(0, b"x" * C.BLOCK_SIZE)
        assert pm.clock.account.data_ns == pytest.approx(C.PM_WRITE_4K_NS)

    def test_temporal_store_is_cheap(self, pm):
        pm.store(0, b"x" * 64, nontemporal=False)
        assert pm.clock.account.data_ns == pytest.approx(C.STORE_NS)

    def test_load_charges_latency_plus_bandwidth(self, pm):
        pm.load(0, C.BLOCK_SIZE)
        expected = C.PM_SEQ_READ_LATENCY_NS + C.BLOCK_SIZE * C.PM_READ_NS_PER_BYTE
        assert pm.clock.account.data_ns == pytest.approx(expected)

    def test_random_load_charges_higher_latency(self, pm):
        pm.load(0, 64, random_access=True)
        assert pm.clock.account.data_ns == pytest.approx(
            C.PM_RAND_READ_LATENCY_NS + 64 * C.PM_READ_NS_PER_BYTE
        )

    def test_category_routing(self, pm):
        pm.store(0, b"m" * 64, category=Category.META_IO)
        assert pm.clock.account.meta_io_ns > 0
        assert pm.clock.account.data_ns == 0

    def test_empty_store_is_noop(self, pm):
        pm.store(0, b"")
        assert pm.clock.now_ns == 0


class TestPersistPrimitive:
    def test_persist_costs_about_91ns_per_line(self, pm):
        """Table 2: store + flush + fence = 91 ns."""
        pm.persist(0, b"x" * 64)
        assert pm.clock.account.meta_io_ns == pytest.approx(
            C.PM_STORE_FLUSH_FENCE_NS, rel=0.05
        )

    def test_persist_survives_crash(self, pm):
        pm.persist(128, b"durable!")
        pm.crash()
        assert pm.peek(128, 8) == b"durable!"


class TestCrashSemantics:
    def test_unfenced_movnt_lost(self, pm):
        pm.store(0, b"y" * 4096)
        pm.crash()
        assert pm.peek(0, 4096) == b"\x00" * 4096

    def test_fenced_movnt_survives(self, pm):
        pm.store(0, b"y" * 4096)
        pm.sfence()
        pm.crash()
        assert pm.peek(0, 4096) == b"y" * 4096

    def test_poke_is_immediately_durable(self, pm):
        pm.poke(0, b"setup")
        assert pm.clock.now_ns == 0
        pm.crash()
        assert pm.peek(0, 5) == b"setup"

    def test_unpersisted_lines_counter(self, pm):
        pm.store(0, b"z" * 128, nontemporal=False)
        assert pm.unpersisted_lines == 2
        pm.clwb(0, 128)
        pm.sfence()
        assert pm.unpersisted_lines == 0


class TestStats:
    def test_write_read_counters(self, pm):
        pm.store(0, b"a" * 100)
        pm.load(0, 50)
        assert pm.stats.bytes_written == 100
        assert pm.stats.bytes_read == 50
        assert pm.stats.stores == 1
        assert pm.stats.loads == 1

    def test_data_vs_meta_written(self, pm):
        pm.store(0, b"a" * 10, category=Category.DATA)
        pm.store(64, b"b" * 20, category=Category.META_IO)
        assert pm.stats.data_bytes_written == 10
        assert pm.stats.meta_bytes_written == 20

    def test_stats_delta(self, pm):
        pm.store(0, b"a" * 10)
        snap = pm.stats.snapshot()
        pm.store(0, b"b" * 30)
        delta = pm.stats.delta_since(snap)
        assert delta.bytes_written == 30


class TestZeroBase:
    def test_fresh_device_owns_nothing_and_reads_zeros(self):
        pm = PersistentMemory(512 * 1024 * 1024, SimClock())
        assert pm.buf._own == {}
        assert pm.load(0, 64) == bytes(64)
        assert pm.load(pm.size - 4096, 4096) == bytes(4096)
        assert pm.peek(SEGMENT_SIZE - 8, 16) == bytes(16)
        assert pm.buf._own == {}  # reads privatise nothing

    def test_stores_privatise_only_the_segments_they_touch(self):
        pm = PersistentMemory(512 * 1024 * 1024, SimClock())
        pm.store(3 * SEGMENT_SIZE + 5, b"x")
        assert sorted(pm.buf._own) == [3]
        pm.store(10 * SEGMENT_SIZE - 2, b"abcd")  # crosses into segment 10
        assert sorted(pm.buf._own) == [3, 9, 10]
        assert pm.load(10 * SEGMENT_SIZE - 3, 6) == b"\0abcd\0"

    def test_out_of_range_store_privatises_nothing(self):
        pm = PersistentMemory(512 * 1024 * 1024, SimClock())
        with pytest.raises(PMError):
            pm.store(pm.size - 2, b"abcd")
        assert pm.buf._own == {}

    def test_crash_reverts_unfenced_store_to_zeros_across_segments(self):
        pm = PersistentMemory(512 * 1024 * 1024, SimClock())
        pm.persist(7 * SEGMENT_SIZE, b"kept")
        pm.store(5 * SEGMENT_SIZE - 64, b"y" * 128)  # never fenced
        pm.crash()
        assert pm.peek(5 * SEGMENT_SIZE - 64, 128) == bytes(128)
        assert pm.peek(7 * SEGMENT_SIZE, 4) == b"kept"

    def test_fork_of_fresh_device_writes_only_its_own_segments(self):
        pm = PersistentMemory(512 * 1024 * 1024, SimClock())
        pm.persist(0, b"parent")
        child = pm.fork(SimClock())
        assert child.buf._own == {}
        assert child.peek(0, 6) == b"parent"
        assert child.peek(2 * SEGMENT_SIZE, 8) == bytes(8)
        child.store(2 * SEGMENT_SIZE, b"child")
        assert sorted(child.buf._own) == [2]
        assert sorted(pm.buf._own) == [0]
        assert pm.peek(2 * SEGMENT_SIZE, 5) == bytes(5)
        assert child.peek(2 * SEGMENT_SIZE, 5) == b"child"
