"""Unit tests for the SplitFS operation log."""

import pytest

from repro.core.oplog import (
    ENTRY_SIZE,
    MAX_LOG_NAME,
    OP_APPEND,
    OP_CREATE,
    OP_RENAME_FROM,
    DataEntry,
    LogFullError,
    NamespaceEntry,
    OperationLog,
    decode_entry,
    encode_data_entry,
    encode_ns_entry,
)
from repro.pmem import constants as C
from repro.pmem.device import PersistentMemory
from repro.pmem.timing import Category, SimClock


@pytest.fixture
def pm():
    return PersistentMemory(4 * 1024 * 1024, SimClock())


@pytest.fixture
def log(pm):
    log = OperationLog(pm, base_addr=0, size=64 * 1024)
    log.initialize()
    return log


class TestEntryEncoding:
    def test_data_entry_round_trip(self):
        e = DataEntry(OP_APPEND, seq=7, target_ino=3, staging_ino=9,
                      size=4096, target_off=12288, staging_off=65536)
        raw = encode_data_entry(e)
        assert len(raw) == ENTRY_SIZE
        assert decode_entry(raw) == e

    def test_ns_entry_round_trip(self):
        e = NamespaceEntry(OP_CREATE, seq=3, parent_ino=1, child_ino=44,
                           name="wal-000123.log")
        assert decode_entry(encode_ns_entry(e)) == e

    def test_zero_slot_decodes_to_none(self):
        assert decode_entry(b"\x00" * ENTRY_SIZE) is None

    def test_torn_entry_rejected_by_checksum(self):
        raw = bytearray(encode_data_entry(
            DataEntry(OP_APPEND, 1, 2, 3, 4, 5, 6)))
        raw[20] ^= 0xFF
        assert decode_entry(bytes(raw)) is None

    def test_name_too_long_rejected(self):
        with pytest.raises(ValueError):
            encode_ns_entry(NamespaceEntry(OP_RENAME_FROM, 1, 1, 0,
                                           "n" * (MAX_LOG_NAME + 1)))

    def test_max_name_fits(self):
        e = NamespaceEntry(OP_CREATE, 1, 1, 2, "n" * MAX_LOG_NAME)
        assert decode_entry(encode_ns_entry(e)) == e


class TestLogging:
    def test_append_uses_exactly_one_fence(self, pm, log):
        fences_before = pm.stats.fences
        log.append(DataEntry(OP_APPEND, 1, 2, 3, 4096, 0, 0))
        assert pm.stats.fences - fences_before == 1

    def test_append_writes_exactly_one_cacheline(self, pm, log):
        written = pm.stats.bytes_written
        log.append(DataEntry(OP_APPEND, 1, 2, 3, 4096, 0, 0))
        assert pm.stats.bytes_written - written == C.CACHELINE_SIZE

    def test_log_cost_is_under_100ns(self, pm, log):
        """Paper: one 64B write + one fence ≈ a single persist (~91 ns),
        4x cheaper than NOVA's two-line two-fence logging."""
        before = pm.clock.now_ns
        log.append(DataEntry(OP_APPEND, 1, 2, 3, 4096, 0, 0))
        assert pm.clock.now_ns - before < 200

    def test_log_full_raises(self, pm):
        log = OperationLog(pm, 0, C.BLOCK_SIZE)  # 64 slots
        log.initialize()
        for i in range(64):
            log.append(DataEntry(OP_APPEND, i, 2, 3, 1, 0, 0))
        with pytest.raises(LogFullError):
            log.append(DataEntry(OP_APPEND, 99, 2, 3, 1, 0, 0))

    def test_reset_after_checkpoint_reuses_slots(self, pm):
        log = OperationLog(pm, 0, C.BLOCK_SIZE)
        log.initialize()
        for i in range(64):
            log.append(DataEntry(OP_APPEND, i, 2, 3, 1, 0, 0))
        log.reset_after_checkpoint()
        log.append(DataEntry(OP_APPEND, 100, 2, 3, 1, 0, 0))
        assert log.checkpoints == 1
        assert log.tail == 1


class TestRecoveryScan:
    def test_scan_returns_entries_in_seq_order(self, pm, log):
        for seq in (5, 6, 7):
            log.append(DataEntry(OP_APPEND, seq, 2, 3, 10, seq * 100, 0))
        entries = log.scan()
        assert [e.seq for e in entries] == [5, 6, 7]

    def test_scan_skips_torn_entry(self, pm, log):
        log.append(DataEntry(OP_APPEND, 1, 2, 3, 10, 0, 0))
        log.append(DataEntry(OP_APPEND, 2, 2, 3, 10, 0, 0))
        # Corrupt the second slot in place (simulating a torn line).
        pm.poke(ENTRY_SIZE + 8, b"\xde\xad")
        entries = log.scan()
        assert [e.seq for e in entries] == [1]

    def test_unfenced_entry_lost_at_crash(self, pm, log):
        log.append(DataEntry(OP_APPEND, 1, 2, 3, 10, 0, 0))
        # Write a second entry with NO fence by bypassing append:
        raw = encode_data_entry(DataEntry(OP_APPEND, 2, 2, 3, 10, 0, 0))
        pm.store(log.base + ENTRY_SIZE, raw, category=Category.META_IO)
        pm.crash()
        entries = log.scan()
        assert [e.seq for e in entries] == [1]

    def test_mixed_entry_types_scan(self, pm, log):
        log.append(NamespaceEntry(OP_CREATE, 1, 1, 5, "f"))
        log.append(DataEntry(OP_APPEND, 2, 5, 9, 100, 0, 4096))
        entries = log.scan()
        assert isinstance(entries[0], NamespaceEntry)
        assert isinstance(entries[1], DataEntry)


class TestScanSkipsDecodingNeverLoading:
    """The scan decodes only non-zero pages, but loads and charges every one."""

    LOG_SIZE = 2 * 1024 * 1024

    def _log(self):
        pm = PersistentMemory(4 * 1024 * 1024, SimClock())
        log = OperationLog(pm, base_addr=C.BLOCK_SIZE, size=self.LOG_SIZE)
        log.initialize()
        return pm, log

    def test_entry_on_the_last_page_is_found(self):
        pm, log = self._log()
        entry = DataEntry(OP_APPEND, 9, 2, 3, 10, 0, 0)
        # The log's very last slot, after 511 zero pages.
        pm.poke(log.base + log.size - ENTRY_SIZE, encode_data_entry(entry))
        assert log.size // C.BLOCK_SIZE == 512
        assert log.scan() == [entry]

    def test_torn_entry_alone_on_its_page_is_discarded(self):
        pm, log = self._log()
        log.append(DataEntry(OP_APPEND, 1, 2, 3, 10, 0, 0))
        raw = bytearray(encode_data_entry(DataEntry(OP_APPEND, 2, 2, 3, 10, 0, 0)))
        raw[20] ^= 0xFF
        pm.poke(log.base + 7 * C.BLOCK_SIZE + 3 * ENTRY_SIZE, bytes(raw))
        assert [e.seq for e in log.scan()] == [1]

    def test_scan_costs_the_same_as_scanning_an_empty_log(self):
        pm, log = self._log()
        empty_pm, empty_log = self._log()
        # poke() charges nothing, so both clocks stand at the same instant.
        for seq, page in enumerate((0, 0, 1, 300, 511)):
            pm.poke(log.base + page * C.BLOCK_SIZE + seq * ENTRY_SIZE,
                    encode_ns_entry(NamespaceEntry(OP_CREATE, seq, 1, 5, "f")))
        assert pm.clock.account == empty_pm.clock.account
        loads, empty_loads = pm.stats.loads, empty_pm.stats.loads

        assert [e.seq for e in log.scan()] == [0, 1, 2, 3, 4]
        assert empty_log.scan() == []
        assert pm.stats.loads - loads == self.LOG_SIZE // C.BLOCK_SIZE
        assert empty_pm.stats.loads - empty_loads == self.LOG_SIZE // C.BLOCK_SIZE
        assert pm.clock.account == empty_pm.clock.account
