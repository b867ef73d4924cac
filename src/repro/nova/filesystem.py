"""NOVA: a log-structured PM file system (strict and relaxed variants).

Faithful-in-miniature to NOVA as the SplitFS paper evaluates it:

* every inode owns a log (chain of 4 KB PM pages of 64 B entries); an
  operation appends an entry, fences, then persists the inode tail —
  two cache lines and two fences per logged operation;
* **NOVA-strict**: data operations are copy-on-write, so every write is
  synchronous *and* atomic;
* **NOVA-relaxed**: data is updated in place (still synchronous — fence
  before return — but not atomic), matching the paper's "NOVA with in-place
  updates and no checksums" configuration;
* ``fsync`` is a no-op: everything is already durable;
* recovery replays the per-inode logs.

Device layout::

    block 0            superblock
    blocks 1..T        inode table (128 B records, 32 per block)
    blocks T+1..       data + log pages (extent allocator)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..kernel.claims import walk_namespace
from ..kernel.fsbase import ROOT_INO, KernelFS, OpenFile
from ..kernel.machine import Machine
from ..pmem import constants as C
from ..pmem.allocator import Extent
from ..pmem.timing import Category
from ..posix import flags as F
from ..posix.errors import (
    DirectoryNotEmptyFSError,
    FileExistsFSError,
    FileNotFoundFSError,
    InvalidArgumentFSError,
    IsADirectoryFSError,
    NoSpaceFSError,
    NotADirectoryFSError,
)
from ..ext4.extents import ExtentMap
from . import log as L

_SB_MAGIC = 0x4E4F5641  # "NOVA"
# magic, total_blocks, itable_start, max_inodes, data_start,
# ras_replica_start (first block of the RAS metadata mirror; 0 = none)
_SB_FMT = "<IQIIII"

_REC_SIZE = 128
_RECS_PER_BLOCK = C.BLOCK_SIZE // _REC_SIZE
_REC_MAGIC = 0x4E49  # "NI"
# line 0: magic u32, ino u32, mode u32, flags u32
_REC_L0_FMT = "<IIII"
# line 1: nlink u32, pad u32, size u64, log_head u32, tail_block u32, tail_slot u32
_REC_L1_FMT = "<IIQIII"

_FLAG_DIR = 0x1


@dataclass
class NovaInode:
    """Runtime NOVA inode (rebuilt from the log at mount)."""

    ino: int
    mode: int = 0o644
    is_dir: bool = False
    nlink: int = 1
    size: int = 0
    extmap: ExtentMap = field(default_factory=ExtentMap)
    entries: Dict[str, int] = field(default_factory=dict)  # directories
    log_head: int = 0  # block number of first log page (0 = none)
    tail_block: int = 0
    tail_slot: int = 0
    log_pages: List[int] = field(default_factory=list)


@dataclass
class NovaConfig:
    max_inodes: int = 2048


class NovaFS(KernelFS):
    """The simulated NOVA instance."""

    SPAN_PREFIX = "nova"

    def __init__(self, machine: Machine, strict: bool = True) -> None:
        super().__init__(machine)
        self.strict = strict
        self.config = NovaConfig()

    # ------------------------------------------------------------------
    # format / mount
    # ------------------------------------------------------------------

    @classmethod
    def format(
        cls, machine: Machine, strict: bool = True, config: Optional[NovaConfig] = None
    ) -> "NovaFS":
        fs = cls(machine, strict=strict)
        fs.config = config or NovaConfig()
        fs.total_blocks = machine.pm.size // C.BLOCK_SIZE
        fs.itable_start = 1
        itable_blocks = (fs.config.max_inodes + _RECS_PER_BLOCK - 1) // _RECS_PER_BLOCK
        fs.data_start = fs.itable_start + itable_blocks
        fs._new_alloc(machine.sharded_lock("nova.alloc", by="cpu"))

        def superblock(ras_replica_start: int) -> bytes:
            return struct.pack(
                _SB_FMT, _SB_MAGIC, fs.total_blocks, fs.itable_start,
                fs.config.max_inodes, fs.data_start, ras_replica_start,
            )

        if machine.ras is None:
            machine.pm.poke(0, superblock(0))
        else:
            fs.ras_replica_start = machine.ras.format_metadata(
                fs.alloc, fs.itable_start, itable_blocks, superblock)
        root = NovaInode(ino=ROOT_INO, mode=0o755, is_dir=True, nlink=2)
        fs.inodes[ROOT_INO] = root
        machine.pm.poke(fs._rec_addr(ROOT_INO), fs._encode_record(root))
        fs.free_inos = list(range(fs.config.max_inodes - 1, ROOT_INO, -1))
        return fs

    @classmethod
    def mount(cls, machine: Machine, strict: bool = True) -> "NovaFS":
        fs = cls(machine, strict=strict)
        raw = machine.pm.load(0, struct.calcsize(_SB_FMT), category=Category.META_IO)
        (magic, total, itable_start, max_inodes, data_start,
         ras_replica_start) = struct.unpack(_SB_FMT, raw)
        if magic != _SB_MAGIC:
            raise ValueError("not a NOVA image")
        fs.config = NovaConfig(max_inodes=max_inodes)
        fs.total_blocks = total
        fs.itable_start = itable_start
        fs.data_start = data_start
        fs.ras_replica_start = ras_replica_start
        itable_blocks = data_start - itable_start
        if machine.ras is not None:
            machine.ras.adopt_metadata(ras_replica_start, itable_start,
                                       itable_blocks)
        fs._new_alloc(machine.sharded_lock("nova.alloc", by="cpu"))
        if ras_replica_start:
            fs.alloc.reserve(ras_replica_start, 1 + itable_blocks)
        inos = range(max_inodes - 1, 0, -1)
        for ino in inos:
            inode = fs._decode_record(
                machine.pm.load(fs._rec_addr(ino), _REC_SIZE, category=Category.META_IO)
            )
            if inode is None or inode.nlink == 0:
                continue
            fs._replay_log(inode)
            fs.inodes[ino] = inode
        if ROOT_INO not in fs.inodes:
            raise ValueError("image has no NOVA root inode")
        # Drop dirents pointing at dead inodes (unlink persisted nlink=0
        # before the dirent-removal entry reached the log).
        for inode in fs.inodes.values():
            if inode.is_dir:
                inode.entries = {
                    n: i for n, i in inode.entries.items() if i in fs.inodes
                }
        fs._reclaim_unreachable()
        fs.free_inos = [ino for ino in inos if ino not in fs.inodes]
        for inode in fs.inodes.values():
            for ext in inode.extmap.physical_extents():
                fs.alloc.reserve(ext.start, ext.length)
            for page in inode.log_pages:
                fs.alloc.reserve(page, 1)
        if machine.ras is not None:
            machine.ras.resync()
        return fs

    def _reclaim_unreachable(self) -> None:
        """Free, at mount, every live inode that no directory reaches.

        A create persists the new inode's record before the parent's dirent
        reaches the log, so a crash between the two leaves a live inode
        that nothing names.  Each one's record is persisted free before the
        mount hands its data blocks and log pages back to the allocator, so
        a later mount cannot replay a log whose pages were reused.
        """
        reachable, _ = walk_namespace(self.inodes, self._dir_entries)
        for ino in [ino for ino in self.inodes if ino not in reachable]:
            inode = self.inodes.pop(ino)
            inode.nlink = 0
            self._persist_record(inode)

    # ------------------------------------------------------------------
    # inode records
    # ------------------------------------------------------------------

    def _rec_addr(self, ino: int) -> int:
        if not 0 < ino < self.config.max_inodes:
            raise InvalidArgumentFSError(f"bad inode number {ino}")
        return self.itable_start * C.BLOCK_SIZE + ino * _REC_SIZE

    def _encode_record(self, inode: NovaInode) -> bytes:
        flags = _FLAG_DIR if inode.is_dir else 0
        l0 = struct.pack(_REC_L0_FMT, _REC_MAGIC, inode.ino, inode.mode, flags)
        l0 += b"\x00" * (C.CACHELINE_SIZE - len(l0))
        l1 = struct.pack(
            _REC_L1_FMT, inode.nlink, 0, inode.size, inode.log_head,
            inode.tail_block, inode.tail_slot,
        )
        l1 += b"\x00" * (C.CACHELINE_SIZE - len(l1))
        return l0 + l1

    def _decode_record(self, raw: bytes) -> Optional[NovaInode]:
        magic, ino, mode, flags = struct.unpack_from(_REC_L0_FMT, raw)
        if magic != _REC_MAGIC:
            return None
        nlink, _, size, log_head, tail_block, tail_slot = struct.unpack_from(
            _REC_L1_FMT, raw, C.CACHELINE_SIZE
        )
        return NovaInode(
            ino=ino, mode=mode, is_dir=bool(flags & _FLAG_DIR), nlink=nlink,
            size=size, log_head=log_head, tail_block=tail_block, tail_slot=tail_slot,
        )

    def _persist_tail(self, inode: NovaInode) -> None:
        """The second cache line + second fence of every NOVA operation."""
        l1 = struct.pack(
            _REC_L1_FMT, inode.nlink, 0, inode.size, inode.log_head,
            inode.tail_block, inode.tail_slot,
        )
        l1 += b"\x00" * (C.CACHELINE_SIZE - len(l1))
        self.pm.persist(self._rec_addr(inode.ino) + C.CACHELINE_SIZE, l1,
                        category=Category.META_IO)

    def _persist_record(self, inode: NovaInode) -> None:
        self.pm.persist(self._rec_addr(inode.ino), self._encode_record(inode),
                        category=Category.META_IO)

    # ------------------------------------------------------------------
    # log machinery
    # ------------------------------------------------------------------

    #: Thorough-GC trigger: rebuild an inode's log once it spans this many
    #: pages and most of its entries are dead (NOVA's log garbage collection).
    GC_THRESHOLD_PAGES = 16

    def _log_append(self, inode: NovaInode, entry: "L.LogEntry") -> None:
        """Append one entry and persist the tail: 2 lines, 2 fences.

        Serialised per inode (NOVA's per-inode log mutex): appenders to
        *different* inodes never contend, appenders to a shared directory
        log do.
        """
        with self.machine.lock(f"nova.log.ino{inode.ino}"), \
                self.clock.obs.span("nova.log_append", cat="journal"):
            self._log_append_locked(inode, entry)

    def _log_append_locked(self, inode: NovaInode, entry: "L.LogEntry") -> None:
        if len(inode.log_pages) >= self.GC_THRESHOLD_PAGES:
            self._log_gc(inode)
        raw = L.encode_entry(entry)
        if inode.log_head == 0:
            page = self.alloc.alloc(1)[0].start
            inode.log_head = page
            inode.tail_block = page
            inode.tail_slot = 0
            inode.log_pages.append(page)
        elif inode.tail_slot >= L.ENTRIES_PER_PAGE:
            page = self.alloc.alloc(1)[0].start
            ptr_addr = (inode.tail_block * C.BLOCK_SIZE
                        + L.ENTRIES_PER_PAGE * L.ENTRY_SIZE)
            self.pm.store(ptr_addr, L.encode_next_pointer(page),
                          category=Category.META_IO)
            inode.tail_block = page
            inode.tail_slot = 0
            inode.log_pages.append(page)
        addr = inode.tail_block * C.BLOCK_SIZE + inode.tail_slot * L.ENTRY_SIZE
        self.pm.store(addr, raw, category=Category.META_IO)
        self.pm.sfence(category=Category.META_IO)  # fence 1: entry durable
        inode.tail_slot += 1
        self._persist_tail(inode)  # line 2 + fence 2

    def _live_entries(self, inode: NovaInode) -> List["L.LogEntry"]:
        """The minimal entry set reproducing the inode's current state."""
        live: List[L.LogEntry] = []
        for ext in inode.extmap:
            live.append(L.WriteEntry(inode.ino, ext.logical, ext.length,
                                     ext.phys, inode.size))
        if not inode.extmap.extents:
            live.append(L.SetattrEntry(inode.ino, inode.size))
        for name, child in inode.entries.items():
            live.append(L.DirentAddEntry(child, name))
        return live

    def _log_gc(self, inode: NovaInode) -> None:
        """Thorough garbage collection: rewrite the log with live entries.

        New log pages are written and fenced first; the single-cache-line
        persist of the inode record (head + tail together) is the atomic
        switch — a crash on either side sees a complete log.  The old pages
        are freed afterwards.
        """
        with self.clock.obs.span("nova.log_gc", cat="journal"):
            self._log_gc_locked(inode)

    def _log_gc_locked(self, inode: NovaInode) -> None:
        live = self._live_entries(inode)
        needed_pages = max(1, -(-len(live) // L.ENTRIES_PER_PAGE) + 1)
        if needed_pages >= len(inode.log_pages) // 2:
            return  # not enough garbage to be worth collecting
        old_pages = list(inode.log_pages)
        new_pages = []
        for ext in self.alloc.alloc(needed_pages):
            new_pages.extend(range(ext.start, ext.start + ext.length))
        block = new_pages[0]
        slot = 0
        for i, entry in enumerate(live):
            if slot >= L.ENTRIES_PER_PAGE:
                nxt = new_pages[new_pages.index(block) + 1]
                self.pm.store(
                    block * C.BLOCK_SIZE + L.ENTRIES_PER_PAGE * L.ENTRY_SIZE,
                    L.encode_next_pointer(nxt), category=Category.META_IO)
                block = nxt
                slot = 0
            self.pm.store(block * C.BLOCK_SIZE + slot * L.ENTRY_SIZE,
                          L.encode_entry(entry), category=Category.META_IO)
            slot += 1
        self.pm.sfence(category=Category.META_IO)
        inode.log_head = new_pages[0]
        inode.tail_block = block
        inode.tail_slot = slot
        inode.log_pages = new_pages
        self._persist_tail(inode)  # the atomic head+tail switch
        self.alloc.free([Extent(p, 1) for p in old_pages])

    def _replay_log(self, inode: NovaInode) -> None:
        """Rebuild extent map / dirents by walking the inode's log chain."""
        with self.clock.obs.span("nova.log_replay", cat="journal"):
            self._replay_log_locked(inode)

    def _replay_log_locked(self, inode: NovaInode) -> None:
        block = inode.log_head
        target = (inode.tail_block, inode.tail_slot)
        while block:
            inode.log_pages.append(block)
            last = block == target[0]
            nslots = target[1] if last else L.ENTRIES_PER_PAGE
            raw_page = self.pm.load(block * C.BLOCK_SIZE, C.BLOCK_SIZE,
                                    category=Category.META_IO)
            for slot in range(nslots):
                entry = L.decode_entry(
                    raw_page[slot * L.ENTRY_SIZE : (slot + 1) * L.ENTRY_SIZE]
                )
                if entry is None:
                    continue
                if isinstance(entry, L.WriteEntry):
                    inode.extmap.punch(entry.pgoff, entry.nblocks)
                    inode.extmap.insert(entry.pgoff, entry.phys, entry.nblocks)
                elif isinstance(entry, L.SetattrEntry):
                    keep = (entry.new_size + C.BLOCK_SIZE - 1) // C.BLOCK_SIZE
                    inode.extmap.truncate_blocks(keep)
                elif isinstance(entry, L.DirentAddEntry):
                    inode.entries[entry.name] = entry.child_ino
                elif isinstance(entry, L.DirentRmEntry):
                    inode.entries.pop(entry.name, None)
            if last:
                break
            ptr_raw = raw_page[L.ENTRIES_PER_PAGE * L.ENTRY_SIZE :]
            nxt = L.decode_next_pointer(ptr_raw)
            if nxt is None:
                break
            block = nxt
        # The replayed size in the record is authoritative (persisted with
        # the tail), so nothing further to fix up.

    # ------------------------------------------------------------------
    # namespace helpers
    # ------------------------------------------------------------------

    def _dirent(self, dir_ino: int, name: str) -> Optional[int]:
        return self.inodes[dir_ino].entries.get(name)

    def _dir_entries(self, ino: int):
        """Directory ``ino``'s ``(name, child)`` entries; none for a file."""
        inode = self.inodes.get(ino)
        if inode is None or not inode.is_dir:
            return ()
        return inode.entries.items()

    def _new_inode(self, is_dir: bool, mode: int) -> NovaInode:
        if not self.free_inos:
            raise NoSpaceFSError("NOVA inode table full")
        ino = self.free_inos.pop()
        inode = NovaInode(ino=ino, mode=mode, is_dir=is_dir,
                          nlink=2 if is_dir else 1)
        self.inodes[ino] = inode
        self._persist_record(inode)
        return inode

    def _release_inode(self, inode: NovaInode) -> None:
        freed = inode.extmap.physical_extents()
        if freed:
            self.alloc.free(freed)
        for page in inode.log_pages:
            self.alloc.free([Extent(page, 1)])
        self.inodes.pop(inode.ino, None)
        self.orphans.discard(inode.ino)
        self.free_inos.append(inode.ino)

    # ------------------------------------------------------------------
    # FileSystemAPI: lifecycle
    # ------------------------------------------------------------------

    def open(self, path: str, flags: int = F.O_RDWR, mode: int = 0o644) -> int:
        self._trap()
        self._walk(path)
        self.clock.charge_cpu(C.EXT4_OPEN_CPU_NS * 0.8)
        parent, name = self._resolve_parent(path)
        pdir = self.inodes[parent]
        ino = pdir.entries.get(name)
        if ino is None:
            if not flags & F.O_CREAT:
                raise FileNotFoundFSError(path)
            inode = self._new_inode(is_dir=False, mode=mode)
            pdir.entries[name] = inode.ino
            self._log_append(pdir, L.DirentAddEntry(inode.ino, name))
            ino = inode.ino
        else:
            if flags & F.O_CREAT and flags & F.O_EXCL:
                raise FileExistsFSError(path)
            inode = self.inodes[ino]
            if inode.is_dir and F.writable(flags):
                raise IsADirectoryFSError(path)
            if flags & F.O_TRUNC and F.writable(flags):
                self._truncate(inode, 0)
        return self.fdt.install(ino, flags, path).fd

    def close(self, fd: int) -> None:
        self._trap()
        self.clock.charge_cpu(C.EXT4_CLOSE_CPU_NS)
        of = self.fdt.remove(fd)
        if of.ino in self.orphans and self.fdt.open_count(of.ino) == 0:
            self._release_inode(self.inodes[of.ino])

    def unlink(self, path: str) -> None:
        self._trap()
        self._walk(path)
        self.clock.charge_cpu(C.EXT4_UNLINK_CPU_NS * 0.6)
        parent, name = self._resolve_parent(path)
        pdir = self.inodes[parent]
        ino = pdir.entries.get(name)
        if ino is None:
            raise FileNotFoundFSError(path)
        inode = self.inodes[ino]
        if inode.is_dir:
            raise IsADirectoryFSError(path)
        del pdir.entries[name]
        self._log_append(pdir, L.DirentRmEntry(name))
        inode.nlink -= 1
        self._persist_record(inode)
        if inode.nlink == 0:
            if self.fdt.open_count(ino) > 0:
                self.orphans.add(ino)
            else:
                self._release_inode(inode)

    def rename(self, old: str, new: str) -> None:
        self._trap()
        self._walk(old)
        self._walk(new)
        old_parent, old_name = self._resolve_parent(old)
        new_parent, new_name = self._resolve_parent(new)
        opdir = self.inodes[old_parent]
        npdir = self.inodes[new_parent]
        ino = opdir.entries.get(old_name)
        if ino is None:
            raise FileNotFoundFSError(old)
        target = npdir.entries.get(new_name)
        if target == ino:
            return
        if target is not None:
            tgt = self.inodes[target]
            if tgt.is_dir:
                if tgt.entries:
                    raise DirectoryNotEmptyFSError(new)
                npdir.nlink -= 1
            self._log_append(npdir, L.DirentRmEntry(new_name))
            tgt.nlink = 0
            self._persist_record(tgt)
            if self.fdt.open_count(target) > 0:
                self.orphans.add(target)
            else:
                self._release_inode(tgt)
        del opdir.entries[old_name]
        npdir.entries[new_name] = ino
        self._log_append(npdir, L.DirentAddEntry(ino, new_name))
        self._log_append(opdir, L.DirentRmEntry(old_name))
        if self.inodes[ino].is_dir and old_parent != new_parent:
            opdir.nlink -= 1
            npdir.nlink += 1
            self._persist_record(opdir)
            self._persist_record(npdir)

    # ------------------------------------------------------------------
    # FileSystemAPI: data
    # ------------------------------------------------------------------

    def _do_read(self, of: OpenFile, count: int, offset: int) -> bytes:
        self._trap()
        self.clock.charge_cpu(C.NOVA_READ_PATH_CPU_NS)
        inode = self.inodes[of.ino]
        if inode.is_dir:
            raise IsADirectoryFSError(of.path)
        if offset >= inode.size or count <= 0:
            return b""
        count = min(count, inode.size - offset)
        npages = (count + C.BLOCK_SIZE - 1) // C.BLOCK_SIZE
        self.clock.charge_cpu(npages * C.EXT4_READ_PER_PAGE_CPU_NS * 0.7)
        random_access = offset != getattr(of, "last_read_end", None)
        data = self._load_range(inode, offset, count, random_access)
        of.last_read_end = offset + count  # type: ignore[attr-defined]
        return data

    def _do_write(self, of: OpenFile, data: bytes, offset: int) -> int:
        self._trap()
        self.clock.charge_cpu(C.NOVA_WRITE_PATH_CPU_NS + C.KERNEL_LOCK_NS)
        if not data:
            return 0
        inode = self.inodes[of.ino]
        if inode.is_dir:
            raise IsADirectoryFSError(of.path)
        end = offset + len(data)
        if end > inode.size:
            self.clock.charge_cpu(C.NOVA_APPEND_EXTRA_CPU_NS)
        if self.strict:
            self._write_cow(inode, offset, data)
        else:
            self._write_inplace(inode, offset, data)
        return len(data)

    def _write_cow(self, inode: NovaInode, offset: int, data: bytes) -> None:
        """NOVA-strict: copy-on-write the whole touched block range."""
        end = offset + len(data)
        first = offset // C.BLOCK_SIZE
        last = (end - 1) // C.BLOCK_SIZE
        nblocks = last - first + 1
        # Build the new contents: old head/tail bytes + new data.
        head_pad = offset - first * C.BLOCK_SIZE
        tail_end = (last + 1) * C.BLOCK_SIZE
        buf = bytearray(nblocks * C.BLOCK_SIZE)
        if head_pad or tail_end > end:
            old = self._load_range(inode, first * C.BLOCK_SIZE,
                                   nblocks * C.BLOCK_SIZE, False)
            buf[:] = old
        buf[head_pad : head_pad + len(data)] = data
        new_size = max(inode.size, end)
        inode.size = new_size  # before logging: the tail persist carries size
        exts = self.alloc.alloc(nblocks)
        pos = 0
        logical = first
        for ext in exts:
            self.pm.store(ext.start * C.BLOCK_SIZE,
                          bytes(buf[pos : pos + ext.length * C.BLOCK_SIZE]),
                          category=Category.DATA)
            pos += ext.length * C.BLOCK_SIZE
            # fence 1 is shared between the data and the log entry below
            self._log_append(
                inode,
                L.WriteEntry(inode.ino, logical, ext.length, ext.start, new_size),
            )
            logical += ext.length
        freed = inode.extmap.punch(first, nblocks)
        if freed:
            self.alloc.free(freed)
        logical = first
        for ext in exts:
            inode.extmap.insert(logical, ext.start, ext.length)
            logical += ext.length
        inode.size = new_size

    def _write_inplace(self, inode: NovaInode, offset: int, data: bytes) -> None:
        """NOVA-relaxed: update existing blocks in place; log only new ones."""
        new_size = max(inode.size, offset + len(data))
        size_grew = new_size != inode.size
        inode.size = new_size  # before logging: the tail persist carries size
        logged = self._ensure_blocks(inode, offset, len(data))
        self._store_range(inode, offset, data)
        self.pm.sfence(category=Category.META_IO)  # synchronous semantics
        if size_grew and not logged:
            self._log_append(inode, L.SetattrEntry(inode.ino, new_size))

    def _log_fresh_extent(self, inode: NovaInode, logical: int,
                          ext: Extent) -> None:
        """One WRITE entry per new extent of an in-place write."""
        self._log_append(inode, L.WriteEntry(inode.ino, logical, ext.length,
                                             ext.start, inode.size))

    def fsync(self, fd: int) -> None:
        # Everything is synchronous in NOVA: fsync only pays the trap.
        self._trap()
        self.fdt.get(fd)

    def _truncate(self, inode: NovaInode, length: int) -> None:
        if self._shrink_blocks(inode, length):
            # The zeros are fenced before the setattr entry is logged, so
            # they are durable whenever the shrink is.
            self.pm.sfence(category=Category.META_IO)
        inode.size = length
        self._log_append(inode, L.SetattrEntry(inode.ino, length))

    # ------------------------------------------------------------------
    # FileSystemAPI: metadata
    # ------------------------------------------------------------------

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._trap()
        self._walk(path)
        parent, name = self._resolve_parent(path)
        pdir = self.inodes[parent]
        if name in pdir.entries:
            raise FileExistsFSError(path)
        inode = self._new_inode(is_dir=True, mode=mode)
        pdir.entries[name] = inode.ino
        self._log_append(pdir, L.DirentAddEntry(inode.ino, name))
        pdir.nlink += 1
        self._persist_record(pdir)

    def rmdir(self, path: str) -> None:
        self._trap()
        self._walk(path)
        parent, name = self._resolve_parent(path)
        pdir = self.inodes[parent]
        ino = pdir.entries.get(name)
        if ino is None:
            raise FileNotFoundFSError(path)
        inode = self.inodes[ino]
        if not inode.is_dir:
            raise NotADirectoryFSError(path)
        if inode.entries:
            raise DirectoryNotEmptyFSError(path)
        del pdir.entries[name]
        self._log_append(pdir, L.DirentRmEntry(name))
        inode.nlink = 0
        self._persist_record(inode)
        if self.fdt.open_count(ino) > 0:
            self.orphans.add(ino)
        else:
            self._release_inode(inode)
        pdir.nlink -= 1
        self._persist_record(pdir)

    def listdir(self, path: str) -> List[str]:
        self._trap()
        self._walk(path)
        inode = self.inodes[self._resolve(path)]
        if not inode.is_dir:
            raise NotADirectoryFSError(path)
        self.clock.charge_cpu(len(inode.entries) * 50.0)
        return sorted(inode.entries)
