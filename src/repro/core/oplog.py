"""The SplitFS operation log (strict mode).

Design points straight from paper Section 3.3 ("Optimized logging"):

* one 64-byte log entry per common operation, written with non-temporal
  stores and made durable with a **single** fence (NOVA needs two entries
  and two fences — the 4× logging-speed claim);
* a 4-byte transactional checksum inside the entry distinguishes valid from
  torn entries, removing the second fence;
* the tail lives **only in DRAM** — recovery identifies valid entries by
  scanning for non-zero slots and checking checksums, so the tail never has
  to be persisted;
* the log file is zeroed at initialization; when it fills up, SplitFS
  checkpoints (relinks all open staged files) and zeroes it for reuse;
* entries carry logical pointers to staged data, never the data itself.

Entry layouts (64 B)::

    data ops   : magic u16, type u8, flags u8, seq u32, target_ino u32,
                 staging_ino u32, size u32, target_off u64, staging_off u64,
                 crc u32
    namespace  : magic u16, type u8, name_len u8, seq u32, parent_ino u32,
                 child_ino u32, crc u32, name (<= 44 bytes)
"""

from __future__ import annotations

import struct
import zlib
from functools import lru_cache
from typing import List, NamedTuple, Optional, Union

from ..pmem import constants as C
from ..pmem.device import PersistentMemory
from ..pmem.timing import META_IO, Category

ENTRY_SIZE = C.CACHELINE_SIZE
_MAGIC = 0x5346  # "SF"

OP_APPEND = 1
OP_OVERWRITE = 2
OP_CREATE = 3
OP_UNLINK = 4
OP_RENAME_FROM = 5
OP_RENAME_TO = 6
OP_TRUNCATE = 7
OP_MKDIR = 8
OP_RMDIR = 9

_DATA_OPS = (OP_APPEND, OP_OVERWRITE, OP_TRUNCATE)
_DATA_FMT = "<HBBIIIIQQI"  # magic,type,flags,seq,tino,sino,size,toff,soff,crc
_NS_FMT = "<HBBIIII"  # magic,type,name_len,seq,parent,child,crc
MAX_LOG_NAME = ENTRY_SIZE - struct.calcsize(_NS_FMT)

_ZERO_SLOT = bytes(ENTRY_SIZE)

_pack_data = struct.Struct(_DATA_FMT).pack
_pack_data_crc = struct.Struct("<BIIIIQQ").pack
#: What follows a data entry's fields in its slot.
_DATA_PAD = bytes(ENTRY_SIZE - struct.calcsize(_DATA_FMT))


@lru_cache(maxsize=4)
def _zero_image(size: int) -> bytes:
    """One shared image of a zeroed log region per log size."""
    return bytes(size)


# Named tuples, not frozen dataclasses: strict mode builds one entry per
# data operation, and a tuple is built without a Python ``__init__``.


class DataEntry(NamedTuple):
    op: int
    seq: int
    target_ino: int
    staging_ino: int
    size: int
    target_off: int
    staging_off: int


class NamespaceEntry(NamedTuple):
    op: int
    seq: int
    parent_ino: int
    child_ino: int
    name: str


LogEntryT = Union[DataEntry, NamespaceEntry]


def _crc_data(op: int, seq: int, tino: int, sino: int, size: int,
              toff: int, soff: int) -> int:
    return zlib.crc32(_pack_data_crc(op, seq, tino, sino, size,
                                     toff, soff)) & 0xFFFFFFFF


def _crc_ns(op: int, seq: int, parent: int, child: int, name: bytes) -> int:
    return zlib.crc32(struct.pack("<BIII", op, seq, parent, child) + name) & 0xFFFFFFFF


def encode_data_entry(e: DataEntry) -> bytes:
    crc = _crc_data(e.op, e.seq, e.target_ino, e.staging_ino, e.size,
                    e.target_off, e.staging_off)
    return _pack_data(_MAGIC, e.op, 0, e.seq, e.target_ino, e.staging_ino,
                      e.size, e.target_off, e.staging_off, crc) + _DATA_PAD


def encode_ns_entry(e: NamespaceEntry) -> bytes:
    name = e.name.encode()
    if len(name) > MAX_LOG_NAME:
        raise ValueError(f"name too long for a log entry: {e.name!r}")
    crc = _crc_ns(e.op, e.seq, e.parent_ino, e.child_ino, name)
    raw = struct.pack(_NS_FMT, _MAGIC, e.op, len(name), e.seq,
                      e.parent_ino, e.child_ino, crc) + name
    return raw + b"\x00" * (ENTRY_SIZE - len(raw))


def decode_entry(raw: bytes) -> Optional[LogEntryT]:
    """Parse and checksum-validate a 64 B slot; None if torn or empty."""
    if raw == _ZERO_SLOT:
        return None
    magic, op = struct.unpack_from("<HB", raw)
    if magic != _MAGIC:
        return None
    if op in _DATA_OPS:
        (_, _, _, seq, tino, sino, size, toff, soff, crc) = struct.unpack_from(
            _DATA_FMT, raw
        )
        if crc != _crc_data(op, seq, tino, sino, size, toff, soff):
            return None
        return DataEntry(op, seq, tino, sino, size, toff, soff)
    if op in (OP_CREATE, OP_UNLINK, OP_RENAME_FROM, OP_RENAME_TO, OP_MKDIR, OP_RMDIR):
        (_, _, name_len, seq, parent, child, crc) = struct.unpack_from(_NS_FMT, raw)
        off = struct.calcsize(_NS_FMT)
        name_raw = raw[off : off + name_len]
        if crc != _crc_ns(op, seq, parent, child, name_raw):
            return None
        return NamespaceEntry(op, seq, parent, child, name_raw.decode(errors="replace"))
    return None


class LogFullError(Exception):
    """The operation log is out of slots: time to checkpoint."""


class OperationLog:
    """Per-U-Split-instance operation log over a PM region."""

    def __init__(self, pm: PersistentMemory, base_addr: int, size: int,
                 two_fence: bool = False) -> None:
        """``two_fence=True`` selects NOVA-style logging (entry + persistent
        tail, two cache lines, two fences) for the logging ablation."""
        if size % C.BLOCK_SIZE:
            raise ValueError("log size must be block aligned")
        self.pm = pm
        self.base = base_addr
        self.size = size
        self.two_fence = two_fence
        self.capacity = size // ENTRY_SIZE
        if two_fence:
            self.capacity //= 2  # every entry consumes a tail slot too
        self.tail = 0  # DRAM-only tail (paper: never persisted)
        self.seq = 1
        self.appends = 0
        self.checkpoints = 0

    def initialize(self) -> None:
        """Zero the log region so recovery can identify valid entries."""
        self.pm.store(self.base, _zero_image(self.size),
                      category=Category.META_IO)
        self.pm.sfence(category=Category.META_IO)
        self.tail = 0

    # -- logging (hot path) -------------------------------------------------

    def append(self, entry: LogEntryT) -> None:
        """Write one 64 B entry with a single fence.

        Raises :class:`LogFullError` when the log is full; the caller
        checkpoints (relink everything, zero the log) and retries.
        """
        if self.tail >= self.capacity:
            raise LogFullError
        raw = (
            encode_data_entry(entry)
            if isinstance(entry, DataEntry)
            else encode_ns_entry(entry)
        )
        pm = self.pm
        pm.clock.charge_cpu(C.USPLIT_LOG_COMPOSE_NS)
        if self.two_fence:
            # Ablation: NOVA-style — entry, fence, persistent tail, fence.
            addr = self.base + (2 * self.tail) * ENTRY_SIZE
            pm.store(addr, raw, META_IO)
            pm.sfence(META_IO)
            tail_line = raw[:8] + b"\x00" * (ENTRY_SIZE - 8)
            pm.persist(addr + ENTRY_SIZE, tail_line, META_IO)
        else:
            pm.store(self.base + self.tail * ENTRY_SIZE, raw, META_IO)
            pm.sfence(META_IO)  # the one and only fence
        self.tail += 1
        self.appends += 1

    def next_seq(self) -> int:
        s = self.seq
        self.seq += 1
        return s

    def reset_after_checkpoint(self) -> None:
        self.initialize()
        self.checkpoints += 1

    # -- recovery -----------------------------------------------------------------

    def scan(self) -> List[LogEntryT]:
        """Recovery scan: all valid entries, in sequence order.

        Non-zero slots are candidates; the embedded checksum rejects torn
        entries.  Replay is idempotent, so over-approximation is safe.
        """
        entries: List[LogEntryT] = []
        # The scan streams the region page by page (sequential bandwidth,
        # not per-line latency).  Every page is loaded and charged; only a
        # non-zero page has slots worth decoding.
        pages = self.pm.load_nonzero(
            range(self.base, self.base + self.size, C.BLOCK_SIZE),
            C.BLOCK_SIZE, META_IO)
        for _, raw in pages:
            for slot_off in range(0, C.BLOCK_SIZE, ENTRY_SIZE):
                entry = decode_entry(raw[slot_off : slot_off + ENTRY_SIZE])
                if entry is not None:
                    entries.append(entry)
        entries.sort(key=lambda e: e.seq)
        return entries
