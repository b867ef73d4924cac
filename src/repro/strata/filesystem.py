"""Strata: a user-space file system with a private log and digest.

Strata (SOSP '17) is the paper's strict-mode comparison point with a very
different architecture: every operation is appended — *with its data* — to a
process-private PM log (synchronous, atomic, one fence), and a background
*digest* later coalesces the log and copies live data into the shared area.

The properties the SplitFS paper leans on are reproduced mechanistically:

* writes go to the log first and to the shared area at digest ⇒ append-heavy
  workloads write their data **twice** (up to 2× PM wear, Section 2.3);
* data in the log is private until digested — other processes see it only
  after the digest (visibility contrast in Section 3.2);
* ``fsync`` is a no-op; operation latency is one log append + fence.

Device layout::

    block 0        superblock
    blocks 1..L    private operation log
    blocks L+1..T  shared inode table (ext4-style records, one per block)
    blocks T+1..   shared data area
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Dict, List, Optional, Tuple

from ..ext4.dirent import DirData
from ..ext4.inode import (Inode, cont_blocks_needed, load_inode_table,
                          serialize_inode)
from ..kernel.fsbase import ROOT_INO, KernelFS, OpenFile
from ..kernel.machine import Machine
from ..pmem import constants as C
from ..pmem.allocator import Extent
from ..pmem.timing import Category
from ..posix import flags as F
from ..posix.api import Stat
from ..posix.errors import (
    DirectoryNotEmptyFSError,
    FileExistsFSError,
    FileNotFoundFSError,
    InvalidArgumentFSError,
    IsADirectoryFSError,
    NoSpaceFSError,
    NotADirectoryFSError,
)
from . import log as L

_SB_MAGIC = 0x53545241  # "STRA"
# magic, total_blocks, log_start, log_blocks, itable_start, max_inodes, log_epoch
_SB_FMT = "<IQIIIII"
#: Digest the private log once it is this full.
DIGEST_THRESHOLD = 0.8


class StrataConfig:
    def __init__(self, log_blocks: int = 4096, max_inodes: int = 1024) -> None:
        self.log_blocks = log_blocks  # 16 MB private log by default
        self.max_inodes = max_inodes


class StrataFS(KernelFS):
    """The simulated Strata instance (single process-private log)."""

    SPAN_PREFIX = "strata"

    def __init__(self, machine: Machine) -> None:
        super().__init__(machine)
        self.config = StrataConfig()
        self.log_start = 0
        # Shared-area state (authoritative after digest), with ``inodes``:
        self.dirs: Dict[int, DirData] = {}
        # Private-log overlay state (DRAM):
        self.overlay: Dict[int, List[Tuple[int, int, int]]] = {}  # ino -> [(off, size, log_addr)]
        self.sizes: Dict[int, int] = {}  # runtime sizes including logged appends
        self.log_tail = 0  # byte offset within the log region
        #: Current digest generation.  Digest resets the log in place, so
        #: CRC-valid records of an earlier generation may still sit past
        #: the new tail; replay accepts only records stamped with this
        #: epoch (persisted in the superblock before the log is reused).
        self.log_epoch = 0
        self.digests = 0
        # ``orphans`` do not survive a crash: replay drops them with the
        # T_UNLINK record.

    # ------------------------------------------------------------------
    # format / mount
    # ------------------------------------------------------------------

    @classmethod
    def format(cls, machine: Machine, config: Optional[StrataConfig] = None) -> "StrataFS":
        fs = cls(machine)
        fs.config = config or StrataConfig()
        fs.total_blocks = machine.pm.size // C.BLOCK_SIZE
        fs.log_start = 1
        fs.itable_start = fs.log_start + fs.config.log_blocks
        hp = C.BLOCKS_PER_HUGE_PAGE
        fs.data_start = (fs.itable_start + fs.config.max_inodes + hp - 1) // hp * hp
        if fs.data_start + 16 > fs.total_blocks:
            raise ValueError("device too small for this StrataConfig")
        sb = struct.pack(
            _SB_FMT, _SB_MAGIC, fs.total_blocks, fs.log_start,
            fs.config.log_blocks, fs.itable_start, fs.config.max_inodes, 0,
        )
        machine.pm.poke(0, sb)
        machine.pm.poke(fs._log_addr(0), b"\x00" * C.BLOCK_SIZE)
        fs._new_alloc(machine.lock("strata.alloc"))
        root = Inode(ino=ROOT_INO, mode=0o755, is_dir=True, nlink=2)
        fs.inodes[ROOT_INO] = root
        fs.dirs[ROOT_INO] = DirData()
        fs.sizes[ROOT_INO] = 0
        machine.pm.poke(fs._inode_addr(ROOT_INO), serialize_inode(root)[0])
        fs.free_inos = list(range(fs.config.max_inodes - 1, ROOT_INO, -1))
        return fs

    @classmethod
    def mount(cls, machine: Machine) -> "StrataFS":
        fs = cls(machine)
        raw = machine.pm.load(0, struct.calcsize(_SB_FMT), category=Category.META_IO)
        magic, total, log_start, log_blocks, itable_start, max_inodes, epoch = (
            struct.unpack(_SB_FMT, raw)
        )
        if magic != _SB_MAGIC:
            raise ValueError("not a Strata image")
        fs.config = StrataConfig(log_blocks=log_blocks, max_inodes=max_inodes)
        fs.log_epoch = epoch
        fs.total_blocks = total
        fs.log_start = log_start
        fs.itable_start = itable_start
        hp = C.BLOCKS_PER_HUGE_PAGE
        fs.data_start = (itable_start + max_inodes + hp - 1) // hp * hp
        fs._new_alloc(machine.lock("strata.alloc"))
        fs.inodes, fs.dirs, fs.free_inos = load_inode_table(
            machine.pm, itable_start, max_inodes, fs.alloc)
        fs.sizes = {ino: inode.size for ino, inode in fs.inodes.items()}
        fs._replay_log()
        return fs

    # ------------------------------------------------------------------
    # private log
    # ------------------------------------------------------------------

    def _log_addr(self, offset: int) -> int:
        return self.log_start * C.BLOCK_SIZE + offset

    @property
    def log_capacity(self) -> int:
        return self.config.log_blocks * C.BLOCK_SIZE

    def _log_append(self, record: L.Record, payload: bytes = b"") -> int:
        """Append one record; returns the log byte offset of the payload.

        The log lock is sharded per task: Strata logs are process-private,
        so concurrent appenders never contend on each other's logs — only
        the digest into the shared area (``strata.digest``) serialises.
        """
        with self.machine.sharded_lock("strata.log", by="task"), \
                self.clock.obs.span("strata.log_append", cat="journal"):
            return self._log_append_locked(record, payload)

    def _log_append_locked(self, record: L.Record, payload: bytes = b"") -> int:
        record = dataclasses.replace(record, epoch=self.log_epoch)
        raw = L.encode(record, payload)
        if self.log_tail + len(raw) + C.CACHELINE_SIZE > self.log_capacity:
            self.digest()
            if self.log_tail + len(raw) + C.CACHELINE_SIZE > self.log_capacity:
                raise NoSpaceFSError("operation larger than the Strata log")
        addr = self._log_addr(self.log_tail)
        # The 64 B record header is metadata; the payload is file data.
        self.pm.store(addr, raw[:C.CACHELINE_SIZE], category=Category.META_IO)
        if len(raw) > C.CACHELINE_SIZE:
            self.pm.store(addr + C.CACHELINE_SIZE, raw[C.CACHELINE_SIZE:],
                          category=Category.DATA)
        self.pm.sfence(category=Category.META_IO)
        payload_off = self.log_tail + C.CACHELINE_SIZE
        self.log_tail += len(raw)
        return payload_off

    def _replay_log(self) -> None:
        """Rebuild the DRAM overlay from the persistent private log."""
        with self.clock.obs.span("strata.log_replay", cat="journal"):
            self._replay_log_locked()

    def _replay_log_locked(self) -> None:
        pos = 0
        while pos + C.CACHELINE_SIZE <= self.log_capacity:
            hdr = self.pm.load(self._log_addr(pos), C.CACHELINE_SIZE,
                               category=Category.META_IO)
            parsed = L.decode_header(hdr)
            if parsed is None:
                break
            rec, payload_len = parsed
            if rec.epoch != self.log_epoch:
                break  # leftover from before the last digest
            payload = b""
            if payload_len:
                padded = self.pm.load(self._log_addr(pos + C.CACHELINE_SIZE),
                                      payload_len, category=Category.META_IO)
                payload = padded[: rec.size]
            if not L.verify(hdr, payload):
                break  # torn record: end of valid log
            self._apply_record(rec, pos + C.CACHELINE_SIZE)
            pos += C.CACHELINE_SIZE + payload_len
        self.log_tail = pos

    def _apply_record(self, rec: L.Record, payload_off: int) -> None:
        if rec.rtype == L.T_WRITE:
            if rec.ino not in self.inodes:
                # Data logged through an orphan descriptor (write after
                # unlink); the orphan died with the crash.
                return
            self.overlay.setdefault(rec.ino, []).append(
                (rec.offset, rec.size, payload_off)
            )
            self.sizes[rec.ino] = max(
                self.sizes.get(rec.ino, 0), rec.offset + rec.size
            )
        elif rec.rtype == L.T_CREATE:
            inode = Inode(ino=rec.ino, mode=0o644)
            self.inodes[rec.ino] = inode
            self.sizes[rec.ino] = 0
            if rec.ino in self.free_inos:
                self.free_inos.remove(rec.ino)
            if self.dirs[rec.parent].lookup(rec.name) is None:
                self.dirs[rec.parent].add(rec.name, rec.ino)
        elif rec.rtype == L.T_MKDIR:
            inode = Inode(ino=rec.ino, mode=0o755, is_dir=True, nlink=2)
            self.inodes[rec.ino] = inode
            self.dirs[rec.ino] = DirData()
            self.sizes[rec.ino] = 0
            if rec.ino in self.free_inos:
                self.free_inos.remove(rec.ino)
            self.dirs[rec.parent].add(rec.name, rec.ino)
        elif rec.rtype == L.T_UNLINK:
            d = self.dirs[rec.parent]
            ino = d.lookup(rec.name)
            if ino is not None:
                d.remove(rec.name)
                # A rename is logged as LINK(new) + UNLINK(old): drop the
                # inode only when no other name still references it.
                still_linked = any(
                    entry_ino == ino
                    for dd in self.dirs.values()
                    for (_, entry_ino) in dd.slots.values()
                )
                if not still_linked and ino in self.inodes:
                    self.dirs.pop(ino, None)
                    self._drop_inode(ino)
        elif rec.rtype == L.T_LINK:
            self.dirs[rec.parent].add(rec.name, rec.ino)
        elif rec.rtype == L.T_TRUNCATE:
            if rec.ino in self.inodes:
                self._apply_truncate(rec.ino, rec.size)

    def _apply_truncate(self, ino: int, length: int) -> None:
        """Apply a truncate: clip the DRAM overlay and scrub shared blocks.

        POSIX requires bytes past a truncated EOF to read zero if the file
        later grows again, so overlay intervals are clipped to ``length``
        (not just filtered by start offset) and stale shared-area bytes
        beyond the new EOF are zeroed.  The T_TRUNCATE record is fenced
        into the log before this runs, and re-applying during replay is
        idempotent, so the scrub is crash-safe at any interleaving.
        """
        self.sizes[ino] = length
        self.overlay[ino] = [
            (off, min(size, length - off), addr)
            for off, size, addr in self.overlay.get(ino, [])
            if off < length
        ]
        inode = self.inodes.get(ino)
        if inode is None or inode.is_dir:
            return
        mapped_end = max(
            (e.logical_end for e in inode.extmap), default=0
        ) * C.BLOCK_SIZE
        if mapped_end > length:
            for addr, run in inode.extmap.map_byte_range(
                length, mapped_end - length
            ):
                if addr is not None:
                    self.pm.store(addr, b"\x00" * run, category=Category.DATA)
            self.pm.sfence(category=Category.META_IO)
        if inode.size > length:
            inode.size = length

    def _drop_inode(self, ino: int) -> None:
        inode = self.inodes.pop(ino, None)
        if inode is not None:
            freed = inode.extmap.physical_extents()
            if freed:
                self.alloc.free(freed)
            if inode.cont_blocks:
                self.alloc.free([Extent(b, 1) for b in inode.cont_blocks])
        self.overlay.pop(ino, None)
        self.sizes.pop(ino, None)
        self.free_inos.append(ino)

    # ------------------------------------------------------------------
    # digest
    # ------------------------------------------------------------------

    def digest(self) -> None:
        """Coalesce the private log into the shared area.

        Live logged data is copied into shared blocks (the second write that
        gives Strata its append write-amplification), shared metadata is
        persisted, and the log is reset.
        """
        with self.machine.lock("strata.digest"), \
                self.clock.obs.span("strata.digest", cat="journal"):
            self._digest_locked()

    def _digest_locked(self) -> None:
        self.digests += 1
        touched: List[int] = []
        for ino, intervals in self.overlay.items():
            inode = self.inodes.get(ino)
            if inode is None:
                continue
            # Coalesce: later intervals override earlier ones.
            size = self.sizes.get(ino, inode.size)
            pieces = self._coalesce(intervals, size)
            self.clock.charge_cpu(len(intervals) * C.STRATA_DIGEST_CPU_PER_BLOCK_NS)
            for off, length, log_addr in pieces:
                data = self.pm.load(self._log_addr(log_addr), length,
                                    category=Category.DATA)
                self._ensure_blocks(inode, off, length)
                self._store_range(inode, off, data)
            inode.size = size
            touched.append(ino)
        for ino in touched:
            self._store_inode(self.inodes[ino])
        # Persist directory state wholesale (namespace ops were in the log).
        for ino, d in self.dirs.items():
            inode = self.inodes[ino]
            nblocks = d.capacity_blocks()
            for bi in range(nblocks):
                if inode.extmap.lookup_block(bi) is None:
                    ext = self.alloc.alloc(1)[0]
                    inode.extmap.insert(bi, ext.start, 1)
                    inode.size = max(inode.size, (bi + 1) * C.BLOCK_SIZE)
                phys = inode.extmap.lookup_block(bi)
                self.pm.store(phys * C.BLOCK_SIZE, d.serialize_block(bi),
                              category=Category.META_IO)
            self._store_inode(inode)
        for ino in list(self.inodes):
            if ino not in self.dirs and ino not in touched:
                self._store_inode(self.inodes[ino])
        self.pm.sfence(category=Category.META_IO)
        # Reset the log.  The records themselves are left in place; they are
        # fenced off by bumping the epoch in the superblock (replay ignores
        # records of an earlier generation) and by zeroing the first header.
        # Either store alone is sufficient, so their order within this fence
        # epoch does not matter for crash consistency.
        self.log_epoch += 1
        sb = struct.pack(
            _SB_FMT, _SB_MAGIC, self.total_blocks, self.log_start,
            self.config.log_blocks, self.itable_start, self.config.max_inodes,
            self.log_epoch,
        )
        self.pm.store(0, sb, category=Category.META_IO)
        self.pm.store(self._log_addr(0), b"\x00" * C.CACHELINE_SIZE,
                      category=Category.META_IO)
        self.pm.sfence(category=Category.META_IO)
        self.overlay.clear()
        self.log_tail = 0

    @staticmethod
    def _coalesce(
        intervals: List[Tuple[int, int, int]], size: int
    ) -> List[Tuple[int, int, int]]:
        """Resolve overlapping log intervals to the final live pieces.

        Returns ``(file_offset, length, log_offset)`` pieces where later log
        records override earlier ones, clipped to ``size``.
        """
        live: List[Tuple[int, int, int]] = []
        for off, length, addr in intervals:
            if off >= size:
                continue
            length = min(length, size - off)
            end = off + length
            clipped: List[Tuple[int, int, int]] = []
            for o, l, a in live:
                e = o + l
                if e <= off or o >= end:
                    clipped.append((o, l, a))
                    continue
                if o < off:
                    clipped.append((o, off - o, a))
                if e > end:
                    clipped.append((end, e - end, a + (end - o)))
            clipped.append((off, length, addr))
            live = sorted(clipped)
        return live

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _inode_addr(self, ino: int) -> int:
        if not 0 < ino < self.config.max_inodes:
            raise InvalidArgumentFSError(f"bad inode number {ino}")
        return (self.itable_start + ino) * C.BLOCK_SIZE

    def _store_inode(self, inode: Inode) -> None:
        """Persist an inode (and its extent continuation blocks) directly."""
        need = cont_blocks_needed(len(inode.extmap))
        while len(inode.cont_blocks) < need:
            inode.cont_blocks.append(self.alloc.alloc(1)[0].start)
        blocks = serialize_inode(inode)
        self.pm.store(self._inode_addr(inode.ino), blocks[0],
                      category=Category.META_IO)
        for addr, content in zip(inode.cont_blocks, blocks[1:]):
            self.pm.store(addr * C.BLOCK_SIZE, content,
                          category=Category.META_IO)

    def _file_size(self, ino: int) -> int:
        return self.sizes.get(ino, 0)

    def _is_dir(self, ino: int) -> bool:
        return ino in self.dirs

    def _dirent(self, dir_ino: int, name: str) -> Optional[int]:
        return self.dirs[dir_ino].lookup(name)

    def _maybe_digest(self) -> None:
        if self.log_tail >= self.log_capacity * DIGEST_THRESHOLD:
            self.digest()

    # ------------------------------------------------------------------
    # FileSystemAPI
    # ------------------------------------------------------------------

    def open(self, path: str, flags: int = F.O_RDWR, mode: int = 0o644) -> int:
        # User-space: no kernel trap on the common path.
        self.clock.charge_cpu(C.USPLIT_INTERCEPT_NS + C.EXT4_OPEN_CPU_NS * 0.5)
        parent, name = self._resolve_parent(path)
        ino = self.dirs[parent].lookup(name)
        if ino is None:
            if not flags & F.O_CREAT:
                raise FileNotFoundFSError(path)
            if not self.free_inos:
                raise NoSpaceFSError("strata inode table full")
            ino = self.free_inos.pop()
            self.inodes[ino] = Inode(ino=ino, mode=mode)
            self.sizes[ino] = 0
            self.dirs[parent].add(name, ino)
            self._log_append(L.Record(L.T_CREATE, ino=ino, parent=parent, name=name))
        else:
            if flags & F.O_CREAT and flags & F.O_EXCL:
                raise FileExistsFSError(path)
            if self.inodes[ino].is_dir and F.writable(flags):
                raise IsADirectoryFSError(path)
            if flags & F.O_TRUNC and F.writable(flags):
                self._truncate(ino, 0)
        return self.fdt.install(ino, flags, path).fd

    def close(self, fd: int) -> None:
        self.clock.charge_cpu(C.USPLIT_INTERCEPT_NS)
        of = self.fdt.remove(fd)
        if of.ino in self.orphans and self.fdt.open_count(of.ino) == 0:
            self.orphans.discard(of.ino)
            self.dirs.pop(of.ino, None)
            self._drop_inode(of.ino)

    def _drop_or_orphan(self, ino: int) -> None:
        """Release an unlinked inode, deferring while descriptors remain."""
        if self.fdt.open_count(ino) > 0:
            self.orphans.add(ino)
        else:
            self.dirs.pop(ino, None)
            self._drop_inode(ino)

    def unlink(self, path: str) -> None:
        self.clock.charge_cpu(C.USPLIT_INTERCEPT_NS + C.EXT4_UNLINK_CPU_NS * 0.4)
        parent, name = self._resolve_parent(path)
        ino = self.dirs[parent].lookup(name)
        if ino is None:
            raise FileNotFoundFSError(path)
        if self.inodes[ino].is_dir:
            raise IsADirectoryFSError(path)
        self.dirs[parent].remove(name)
        self._log_append(L.Record(L.T_UNLINK, parent=parent, name=name))
        self._drop_or_orphan(ino)

    def rename(self, old: str, new: str) -> None:
        self.clock.charge_cpu(C.USPLIT_INTERCEPT_NS)
        old_parent, old_name = self._resolve_parent(old)
        new_parent, new_name = self._resolve_parent(new)
        ino = self.dirs[old_parent].lookup(old_name)
        if ino is None:
            raise FileNotFoundFSError(old)
        target = self.dirs[new_parent].lookup(new_name)
        if target == ino:
            return
        if target is not None:
            tgt = self.inodes[target]
            if tgt.is_dir and len(self.dirs[target]):
                raise DirectoryNotEmptyFSError(new)
            self.dirs[new_parent].remove(new_name)
            self._log_append(L.Record(L.T_UNLINK, parent=new_parent, name=new_name))
            self._drop_or_orphan(target)
        self.dirs[new_parent].add(new_name, ino)
        self._log_append(L.Record(L.T_LINK, ino=ino, parent=new_parent, name=new_name))
        self.dirs[old_parent].remove(old_name)
        self._log_append(L.Record(L.T_UNLINK, parent=old_parent, name=old_name))
        # The UNLINK record must not drop the inode: T_LINK re-registered it,
        # so replay keeps it alive via the name.  (At runtime we already
        # removed it from old_parent without touching the inode.)

    def _do_read(self, of: OpenFile, count: int, offset: int) -> bytes:
        self.clock.charge_cpu(C.STRATA_READ_PATH_CPU_NS)
        ino = of.ino
        if self.inodes[ino].is_dir:
            raise IsADirectoryFSError(of.path)
        size = self.sizes.get(ino, 0)
        if offset >= size or count <= 0:
            return b""
        count = min(count, size - offset)
        inode = self.inodes[ino]
        # Shared-area base...
        buf = bytearray(self._load_range(inode, offset, count, False))
        # ...overlaid with logged intervals (search cost per interval).
        intervals = self.overlay.get(ino, [])
        self.clock.charge_cpu(len(intervals) * 20.0)
        end = offset + count
        for ioff, ilen, iaddr in intervals:
            iend = ioff + ilen
            if iend <= offset or ioff >= end:
                continue
            s = max(ioff, offset)
            e = min(iend, end)
            data = self.pm.load(self._log_addr(iaddr + (s - ioff)), e - s,
                                category=Category.DATA)
            buf[s - offset : e - offset] = data
        return bytes(buf)

    def _do_write(self, of: OpenFile, data: bytes, offset: int) -> int:
        self.clock.charge_cpu(C.STRATA_WRITE_PATH_CPU_NS)
        if not data:
            return 0
        if self.inodes[of.ino].is_dir:
            raise IsADirectoryFSError(of.path)
        payload_off = self._log_append(
            L.Record(L.T_WRITE, ino=of.ino, offset=offset, size=len(data)), data
        )
        self.overlay.setdefault(of.ino, []).append((offset, len(data), payload_off))
        self.sizes[of.ino] = max(self.sizes.get(of.ino, 0), offset + len(data))
        self._maybe_digest()
        return len(data)

    def fsync(self, fd: int) -> None:
        # The log is synchronous; nothing to flush.
        self.fdt.get(fd)
        self.clock.charge_cpu(C.USPLIT_INTERCEPT_NS)

    def ftruncate(self, fd: int, length: int) -> None:
        of = self._writable_of(fd)
        self._truncate(of.ino, length)

    def _truncate(self, ino: int, length: int) -> None:
        if length < 0:
            raise InvalidArgumentFSError("negative truncate length")
        self._log_append(L.Record(L.T_TRUNCATE, ino=ino, size=length))
        self._apply_truncate(ino, length)

    def stat(self, path: str) -> Stat:
        self.clock.charge_cpu(C.USPLIT_INTERCEPT_NS + C.KERNEL_STAT_CPU_NS)
        ino = self._resolve(path)
        return self._stat_ino(ino)

    def fstat(self, fd: int) -> Stat:
        self.clock.charge_cpu(C.USPLIT_INTERCEPT_NS)
        return self._stat_ino(self.fdt.get(fd).ino)

    def _stat_ino(self, ino: int) -> Stat:
        inode = self.inodes[ino]
        return Stat(
            st_ino=ino, st_size=self.sizes.get(ino, inode.size),
            st_mode=inode.mode, st_nlink=inode.nlink,
            st_blocks=inode.extmap.blocks_used, is_dir=inode.is_dir,
        )

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self.clock.charge_cpu(C.USPLIT_INTERCEPT_NS)
        parent, name = self._resolve_parent(path)
        if self.dirs[parent].lookup(name) is not None:
            raise FileExistsFSError(path)
        if not self.free_inos:
            raise NoSpaceFSError("strata inode table full")
        ino = self.free_inos.pop()
        self.inodes[ino] = Inode(ino=ino, mode=mode, is_dir=True, nlink=2)
        self.dirs[ino] = DirData()
        self.sizes[ino] = 0
        self.dirs[parent].add(name, ino)
        self._log_append(L.Record(L.T_MKDIR, ino=ino, parent=parent, name=name))

    def rmdir(self, path: str) -> None:
        self.clock.charge_cpu(C.USPLIT_INTERCEPT_NS)
        parent, name = self._resolve_parent(path)
        ino = self.dirs[parent].lookup(name)
        if ino is None:
            raise FileNotFoundFSError(path)
        if ino not in self.dirs:
            raise NotADirectoryFSError(path)
        if len(self.dirs[ino]):
            raise DirectoryNotEmptyFSError(path)
        self.dirs[parent].remove(name)
        self._log_append(L.Record(L.T_UNLINK, parent=parent, name=name))
        self._drop_or_orphan(ino)

    def listdir(self, path: str) -> List[str]:
        self.clock.charge_cpu(C.USPLIT_INTERCEPT_NS)
        ino = self._resolve(path)
        if ino not in self.dirs:
            raise NotADirectoryFSError(path)
        return self.dirs[ino].names()
