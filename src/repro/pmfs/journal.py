"""PMFS-style fine-grained undo journal.

PMFS (EuroSys '14) journals metadata at cache-line granularity with *undo*
records: before a metadata line is modified in place, its old contents are
logged; a transaction that did not reach its done-marker is rolled back at
recovery.  Compared to ext4's block journaling this writes far fewer bytes
per operation — the reason PMFS sits between ext4 and NOVA in Table 1.

Region layout (reusing the journal region of the shared layout)::

    block 0    done-generation marker (64 B, persisted per transaction)
    block 1..  undo records of the *current* transaction (2 lines each)

Record: line 0 = header (magic, gen, target addr), line 1 = old contents.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Tuple

from ..kernel.sched import NULL_LOCK
from ..pmem import constants as C
from ..pmem.device import PersistentMemory
from ..pmem.timing import Category

_REC_MAGIC = 0x504D4653  # "PMFS"
_HDR_FMT = "<IIQI"  # magic, gen, target line addr, crc32
_DONE_FMT = "<IQ"  # magic, done generation
_DONE_MAGIC = 0x444F4E45  # "DONE"
_REC_SIZE = 2 * C.CACHELINE_SIZE


def _rec_crc(gen: int, line_addr: int, old_line: bytes) -> int:
    """Checksum binding a record header to its old-content line.

    Record slots are reused across transactions and a crash can tear or
    drop individual 8-byte words, so a header from the interrupted
    transaction may sit next to a content line from an older one (or a
    torn mixture).  Rolling a line back to such content corrupts durable
    state; the checksum lets recovery reject any record that is not
    intact end to end.
    """
    return zlib.crc32(struct.pack("<IQ", gen, line_addr) + old_line)


class UndoJournal:
    """Per-operation undo journaling of metadata cache lines."""

    def __init__(self, pm: PersistentMemory, start_block: int, nblocks: int) -> None:
        self.pm = pm
        self.start = start_block * C.BLOCK_SIZE
        self.capacity = (nblocks - 1) * C.BLOCK_SIZE // _REC_SIZE
        self.gen = 1
        self._tx_depth = 0
        self._tx_records = 0
        #: The global journal lock (PMFS has one undo journal per mount);
        #: the owning FS replaces this with a machine-backed SimLock.  Held
        #: across a whole begin/commit transaction — reentrant, so nested
        #: brackets and per-update acquires collapse into the outermost one.
        self.lock = NULL_LOCK

    def format(self) -> None:
        self.gen = 1
        self._persist_done(0)

    def _persist_done(self, gen: int) -> None:
        raw = struct.pack(_DONE_FMT, _DONE_MAGIC, gen)
        raw += b"\x00" * (C.CACHELINE_SIZE - len(raw))
        self.pm.persist(self.start, raw, category=Category.META_IO)

    # -- transaction --------------------------------------------------------

    def begin(self) -> None:
        """Open (or nest into) an operation-level transaction.

        Updates applied before the matching :meth:`commit` share one
        generation and one done marker, so a crash anywhere inside the
        operation rolls *all* of them back — real PMFS journals a whole
        metadata operation atomically, not each touched structure.
        """
        self.lock.acquire()
        self._tx_depth += 1

    def commit(self) -> None:
        """Close the transaction; outermost commit persists the done marker."""
        if self._tx_depth <= 0:
            raise ValueError("commit without begin")
        self._tx_depth -= 1
        if self._tx_depth == 0 and self._tx_records:
            self._persist_done(self.gen)
            self.gen += 1
            self._tx_records = 0
        self.lock.release()

    def apply_update(self, addr: int, new_content: bytes) -> int:
        """Atomically update ``[addr, addr+len)`` in place.

        Diffs the new content against the device image, undo-logs each
        changed cache line, fences, applies the changed lines in place, and
        fences.  Outside a :meth:`begin`/:meth:`commit` bracket the done
        marker is bumped immediately (a single-update transaction); inside
        one, the records accumulate until the outermost commit.  Returns
        lines changed.
        """
        with self.lock, self.pm.clock.obs.span("pmfs.undo_update", cat="journal"):
            return self._apply_update_locked(addr, new_content)

    def _apply_update_locked(self, addr: int, new_content: bytes) -> int:
        if addr % C.CACHELINE_SIZE:
            raise ValueError("metadata updates must be line aligned")
        old = self.pm.peek(addr, len(new_content))
        changed: List[Tuple[int, bytes, bytes]] = []
        for off in range(0, len(new_content), C.CACHELINE_SIZE):
            old_line = old[off : off + C.CACHELINE_SIZE]
            new_line = new_content[off : off + C.CACHELINE_SIZE]
            if old_line != new_line:
                changed.append((addr + off, old_line, new_line))
        if not changed:
            return 0
        if self._tx_records + len(changed) > self.capacity:
            raise ValueError("transaction exceeds undo journal capacity")
        # 1. undo records, then fence
        rec_addr = self.start + C.BLOCK_SIZE + self._tx_records * _REC_SIZE
        for line_addr, old_line, _ in changed:
            hdr = struct.pack(_HDR_FMT, _REC_MAGIC, self.gen, line_addr,
                              _rec_crc(self.gen, line_addr, old_line))
            hdr += b"\x00" * (C.CACHELINE_SIZE - len(hdr))
            self.pm.store(rec_addr, hdr + old_line, category=Category.META_IO)
            rec_addr += _REC_SIZE
        self.pm.sfence(category=Category.META_IO)
        # 2. in-place updates, then fence
        for line_addr, _, new_line in changed:
            self.pm.store(line_addr, new_line, category=Category.META_IO)
        self.pm.sfence(category=Category.META_IO)
        if self._tx_depth == 0:
            # 3. done marker (commit point: records no longer roll back)
            self._persist_done(self.gen)
            self.gen += 1
        else:
            self._tx_records += len(changed)
        return len(changed)

    #: The metadata sink ext4's writers call on a jbd2 transaction: PMFS
    #: hands this journal to them as its running ``txn``.
    add_block = apply_update

    # -- recovery ------------------------------------------------------------------

    def recover(self) -> int:
        """Roll back any transaction that did not reach its done marker.

        Returns the number of lines rolled back.
        """
        with self.lock, self.pm.clock.obs.span("pmfs.undo_recover", cat="journal"):
            return self._recover_locked()

    def _recover_locked(self) -> int:
        raw = self.pm.load(self.start, struct.calcsize(_DONE_FMT),
                           category=Category.META_IO)
        magic, done_gen = struct.unpack(_DONE_FMT, raw)
        if magic != _DONE_MAGIC:
            raise ValueError("undo journal not formatted")
        rec_addr = self.start + C.BLOCK_SIZE
        # Records of the interrupted transaction all carry gen done_gen + 1.
        pending: List[Tuple[int, bytes]] = []
        while True:
            raw = self.pm.load(rec_addr, _REC_SIZE, category=Category.META_IO)
            magic, gen, line_addr, crc = struct.unpack_from(_HDR_FMT, raw)
            old_line = raw[C.CACHELINE_SIZE:]
            if magic != _REC_MAGIC or gen != done_gen + 1:
                break
            if crc != _rec_crc(gen, line_addr, old_line):
                # Torn record: its batch never reached the record fence, so
                # the in-place updates it guards never executed.  Everything
                # at or past this slot is from the same unfenced batch.
                break
            pending.append((line_addr, old_line))
            rec_addr += _REC_SIZE
        # Roll back newest-first: a line updated twice in one transaction
        # must end at its oldest (pre-transaction) image.
        for line_addr, old_line in reversed(pending):
            self.pm.store(line_addr, old_line, category=Category.META_IO)
        rolled = len(pending)
        self.pm.sfence(category=Category.META_IO)
        self.gen = done_gen + 1
        self._persist_done(done_gen)  # re-arm at the same generation
        return rolled
