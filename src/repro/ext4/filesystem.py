"""ext4 with Direct Access (DAX): the kernel file system under SplitFS.

A deliberately faithful miniature of ext4-DAX as the paper uses it:

* metadata (inodes, directory blocks) is journaled through a JBD2-style redo
  journal — a single global running transaction that commits on ``fsync``,
  exactly like ext4's single running jbd2 transaction;
* data is written in place through DAX with non-temporal stores and becomes
  durable at ``fsync`` (flush + fence), so appends need an ``fsync`` to
  survive a crash — POSIX-mode semantics per the paper's Table 3;
* ``ioctl_relink`` implements the paper's 500-line kernel patch: a
  metadata-only, journaled move of extents from one file to another
  (built on the ``EXT4_IOC_MOVE_EXT`` swap, modified to skip data copies
  and to keep existing memory mappings valid).

Device layout::

    block 0                superblock
    blocks 1 .. J          journal region
    blocks J+1 .. J+I      inode table (one block per inode)
    blocks J+I+1 ..        data region (extent allocator)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..journal.jbd2 import Journal, Transaction
from ..kernel.fsbase import ROOT_INO, FDTable, KernelFS, OpenFile
from ..kernel.machine import Machine
from ..pmem import constants as C
from ..pmem.allocator import Extent, ExtentAllocator
from ..pmem.timing import DATA, META_IO, Category
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
from .dirent import DirData
from .inode import (MAX_EXTENTS_PRIMARY, Inode, cont_blocks_needed,
                    deserialize_inode, free_inode_block, serialize_inode)

_SB_MAGIC = 0x45585434  # "EXT4"
# magic, total_blocks, jstart, jblocks, itable_start, max_inodes, data_start,
# ras_replica_start (first block of the RAS metadata mirror; 0 = none)
_SB_FMT = "<IQIIIIII"


@dataclass
class Ext4Config:
    """Format-time parameters."""

    journal_blocks: int = 1024  # 4 MB journal
    max_inodes: int = 2048


class Ext4DaxFS(KernelFS):
    """The simulated ext4-DAX instance (K-Split in SplitFS terms)."""

    SPAN_PREFIX = "ext4"

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.pm = machine.pm
        self.clock = machine.clock
        # Populated by format()/mount():
        self.config = Ext4Config()
        self.total_blocks = 0
        self.itable_start = 0
        self.data_start = 0
        self.journal: Journal = None  # type: ignore[assignment]
        self.alloc: ExtentAllocator = None  # type: ignore[assignment]
        self.inodes: Dict[int, Inode] = {}
        self.dirs: Dict[int, DirData] = {}
        self.free_inos: List[int] = []
        self.fdt = FDTable()
        self.txn = Transaction()
        self.dirty_data: Dict[int, List[Tuple[int, int]]] = {}
        self.orphans: Set[int] = set()
        # Freed blocks whose contents may still sit in committed journal
        # transactions (dir data, extent continuation blocks).  They return
        # to the allocator only when the journal region resets — the
        # miniature of ext4's revoke handling.
        self._quarantine: List[Extent] = []
        # Path-cost constants; subclasses (PMFS) override with their own.
        self.cost_write_path = C.EXT4_WRITE_PATH_CPU_NS
        self.cost_append_extra = C.EXT4_APPEND_EXTRA_CPU_NS
        self.cost_read_path = C.EXT4_READ_PATH_CPU_NS
        self.cost_read_per_page = C.EXT4_READ_PER_PAGE_CPU_NS
        self.cost_open = C.EXT4_OPEN_CPU_NS
        self.cost_close = C.EXT4_CLOSE_CPU_NS
        self.cost_unlink = C.EXT4_UNLINK_CPU_NS
        #: First block of the RAS metadata mirror (0 = no mirror on-media).
        self.ras_replica_start = 0

    # ------------------------------------------------------------------
    # format / mount
    # ------------------------------------------------------------------

    @classmethod
    def format(cls, machine: Machine, config: Optional[Ext4Config] = None) -> "Ext4DaxFS":
        """mkfs: lay out superblock, journal, inode table, empty root."""
        fs = cls(machine)
        fs.config = config or Ext4Config()
        fs.total_blocks = machine.pm.size // C.BLOCK_SIZE
        jstart = 1
        fs.itable_start = jstart + fs.config.journal_blocks
        data_start = fs.itable_start + fs.config.max_inodes
        # Align the data region to 2 MB so contiguous allocations are
        # huge-page eligible (real mkfs aligns block groups similarly).
        hp = C.BLOCKS_PER_HUGE_PAGE
        fs.data_start = (data_start + hp - 1) // hp * hp
        if fs.data_start + 16 > fs.total_blocks:
            raise ValueError("device too small for this Ext4Config")

        fs._init_journal(jstart, fs.config.journal_blocks)

        fs.alloc = ExtentAllocator(
            fs.total_blocks - fs.data_start, clock=fs.clock, first_block=fs.data_start,
            faults=machine.faults, lock=machine.lock(f"{fs.SPAN_PREFIX}.alloc"),
        )
        if machine.ras is not None:
            machine.ras.forget_all()
            if machine.ras.config.replicate:
                # Carve the metadata mirror out of the data region: one block
                # for the superblock copy, then the whole inode table.
                mirror = fs.alloc.alloc(1 + fs.config.max_inodes,
                                        contiguous=True)[0]
                fs.ras_replica_start = mirror.start
        machine.pm.poke(0, fs._pack_sb(jstart))
        if machine.ras is not None:
            rs = fs.ras_replica_start
            machine.ras.protect(
                0, C.BLOCK_SIZE,
                replica=rs * C.BLOCK_SIZE if rs else None)
            machine.ras.protect(
                fs.itable_start * C.BLOCK_SIZE,
                fs.config.max_inodes * C.BLOCK_SIZE,
                replica=(rs + 1) * C.BLOCK_SIZE if rs else None)
        root = Inode(ino=ROOT_INO, mode=0o755, is_dir=True, nlink=2)
        fs.inodes[ROOT_INO] = root
        fs.dirs[ROOT_INO] = DirData()
        machine.pm.poke(fs._inode_addr(ROOT_INO), serialize_inode(root)[0])
        fs.free_inos = list(range(fs.config.max_inodes - 1, ROOT_INO, -1))
        return fs

    def _pack_sb(self, jstart: int) -> bytes:
        return struct.pack(
            _SB_FMT,
            _SB_MAGIC,
            self.total_blocks,
            jstart,
            self.config.journal_blocks,
            self.itable_start,
            self.config.max_inodes,
            self.data_start,
            self.ras_replica_start,
        )

    @classmethod
    def mount(cls, machine: Machine) -> "Ext4DaxFS":
        """Mount an existing image: journal recovery, then metadata scan."""
        fs = cls(machine)
        raw = machine.pm.load(0, struct.calcsize(_SB_FMT), category=Category.META_IO)
        (magic, total, jstart, jblocks, itable_start, max_inodes, data_start,
         ras_replica_start) = struct.unpack(_SB_FMT, raw)
        if magic != _SB_MAGIC:
            raise ValueError("not an ext4 image")
        fs.config = Ext4Config(journal_blocks=jblocks, max_inodes=max_inodes)
        fs.total_blocks = total
        fs.itable_start = itable_start
        fs.data_start = data_start
        fs.ras_replica_start = ras_replica_start
        if machine.ras is not None:
            # Adopt the on-media regions before recovery so poisoned metadata
            # loads during the scan get repaired from the mirror; checksums
            # stay stale until the resync below (a rolled-back unfenced store
            # must not be "repaired" back in from a fresher replica).
            machine.ras.forget_all()
            rs = ras_replica_start
            machine.ras.adopt(
                0, C.BLOCK_SIZE,
                replica=rs * C.BLOCK_SIZE if rs else None)
            machine.ras.adopt(
                itable_start * C.BLOCK_SIZE, max_inodes * C.BLOCK_SIZE,
                replica=(rs + 1) * C.BLOCK_SIZE if rs else None)

        fs._recover_journal(jstart, jblocks)

        fs.alloc = ExtentAllocator(
            total - data_start, clock=fs.clock, first_block=data_start,
            faults=machine.faults, lock=machine.lock(f"{fs.SPAN_PREFIX}.alloc"),
        )
        if ras_replica_start:
            fs.alloc.reserve(ras_replica_start, 1 + max_inodes)

        load = machine.pm.load

        def read_cont(block_no: int) -> bytes:
            return load(block_no * C.BLOCK_SIZE, C.BLOCK_SIZE, category=META_IO)

        # Every slot is loaded and charged; only a slot that is not free
        # (a free slot is all zeros) is worth deserializing.  The slot loads
        # and the continuation-block loads between them charge the same
        # 4 KiB sequential META_IO cost, so the slots can be charged in one
        # batch.
        inos = range(max_inodes - 1, 0, -1)
        slots = machine.pm.load_nonzero(
            range((itable_start + max_inodes - 1) * C.BLOCK_SIZE,
                  itable_start * C.BLOCK_SIZE, -C.BLOCK_SIZE),
            C.BLOCK_SIZE, META_IO)
        for i, raw in slots:
            inode = deserialize_inode(raw, read_block=read_cont)
            if inode is None or inode.nlink == 0:
                continue
            fs.inodes[inos[i]] = inode
            for ext in inode.extmap.physical_extents():
                fs.alloc.reserve(ext.start, ext.length)
            for block in inode.cont_blocks:
                fs.alloc.reserve(block, 1)
        fs.free_inos = [ino for ino in inos if ino not in fs.inodes]
        if ROOT_INO not in fs.inodes:
            raise ValueError("image has no root inode")
        for ino, inode in fs.inodes.items():
            if inode.is_dir:
                blocks = []
                for bi in range(inode.size // C.BLOCK_SIZE):
                    phys = inode.extmap.lookup_block(bi)
                    if phys is None:
                        blocks.append(b"\x00" * C.BLOCK_SIZE)
                    else:
                        blocks.append(
                            machine.pm.load(
                                phys * C.BLOCK_SIZE, C.BLOCK_SIZE, category=Category.META_IO
                            )
                        )
                fs.dirs[ino] = DirData.deserialize(blocks)
        if machine.ras is not None:
            machine.ras.resync()
        return fs

    # -- journal hooks (PMFS overrides these with its undo journal) -----

    def _init_journal(self, jstart: int, jblocks: int) -> None:
        self._commit_threshold = max(8, jblocks // 8)
        self.journal = Journal(self.pm, jstart, jblocks)
        self.journal.lock = self.machine.lock("jbd2")
        self.journal.format()
        self.journal.on_reset = self._flush_quarantine
        # replace=True: a remount builds a fresh Journal on the same
        # machine, and its stats must supersede the pre-crash instance's.
        self.machine.metrics.register_source("journal.jbd2",
                                             self.journal.stats, replace=True)

    def _recover_journal(self, jstart: int, jblocks: int) -> None:
        self._commit_threshold = max(8, jblocks // 8)
        self.journal = Journal(self.pm, jstart, jblocks)
        self.journal.lock = self.machine.lock("jbd2")
        self.journal.recover()
        self.journal.on_reset = self._flush_quarantine
        self.machine.metrics.register_source("journal.jbd2",
                                             self.journal.stats, replace=True)

    def _flush_quarantine(self) -> None:
        """The journal region reset: no stale transactions can replay any
        more, so quarantined blocks may re-enter the allocator."""
        if self._quarantine:
            self.alloc.free(self._quarantine)
            self._quarantine = []

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------

    def _inode_addr(self, ino: int) -> int:
        if not 0 < ino < self.config.max_inodes:
            raise InvalidArgumentFSError(f"bad inode number {ino}")
        return (self.itable_start + ino) * C.BLOCK_SIZE

    def _maybe_background_commit(self) -> None:
        """kjournald: commit the running transaction when it grows large.

        Called only at operation entry, never mid-operation, so each
        metadata operation stays atomic within one transaction.
        """
        if (self.journal is not None
                and len(self.txn.blocks) >= self._commit_threshold):
            self.journal.commit(self.txn)
            self.txn = Transaction()

    def _journal_inode(self, inode: Inode) -> None:
        if len(inode.extmap.extents) > MAX_EXTENTS_PRIMARY:
            self._provision_cont_blocks(inode)
        blocks = serialize_inode(inode)
        self.txn.add_block(self._inode_addr(inode.ino), blocks[0])
        for addr, content in zip(inode.cont_blocks, blocks[1:]):
            self.txn.add_block(addr * C.BLOCK_SIZE, content)

    def _provision_cont_blocks(self, inode: Inode) -> None:
        """Grow the inode's extent-tree continuation chain as needed.

        Continuation blocks are never shrunk in place (freed only at inode
        release) so that committed journal transactions referencing them
        cannot clobber reused blocks at replay time.
        """
        need = cont_blocks_needed(len(inode.extmap))
        while len(inode.cont_blocks) < need:
            self.clock.charge_cpu(C.ALLOC_CPU_NS)
            inode.cont_blocks.append(self.alloc.alloc(1)[0].start)

    def _journal_inode_free(self, ino: int) -> None:
        self.txn.add_block(self._inode_addr(ino), free_inode_block())

    def _journal_dir_block(self, dir_ino: int, block_index: int) -> None:
        inode = self.inodes[dir_ino]
        phys = inode.extmap.lookup_block(block_index)
        if phys is None:
            raise AssertionError("directory block not allocated")
        data = self.dirs[dir_ino].serialize_block(block_index)
        self.txn.add_block(phys * C.BLOCK_SIZE, data)

    def ras_protect_file(self, path: str) -> int:
        """Register a file's data extents with the machine's RAS layer.

        Each physical extent gets a freshly allocated replica extent plus
        per-block checksums, so a poisoned data read repairs transparently
        instead of surfacing EIO.  Protection is session-scoped: the replica
        extents are not recorded in the superblock, so a remount drops them
        (metadata regions, by contrast, are re-adopted from the superblock).
        Returns the number of bytes protected.
        """
        ras = self.machine.ras
        if ras is None:
            raise InvalidArgumentFSError("RAS layer not enabled on this machine")
        ino = self._resolve(path)
        inode = self.inodes[ino]
        protected = 0
        for ext in inode.extmap.physical_extents():
            replica = None
            if ras.config.replicate:
                replica = self.alloc.alloc(
                    ext.length, contiguous=True)[0].start * C.BLOCK_SIZE
            ras.protect(ext.start * C.BLOCK_SIZE, ext.length * C.BLOCK_SIZE,
                        replica=replica)
            protected += ext.length * C.BLOCK_SIZE
        return protected

    def _file_size(self, ino: int) -> int:
        return self.inodes[ino].size

    def _is_dir(self, ino: int) -> bool:
        inode = self.inodes.get(ino)
        return inode is not None and inode.is_dir

    def _dirent(self, dir_ino: int, name: str) -> Optional[int]:
        return self.dirs[dir_ino].lookup(name)

    def _dir_add(self, dir_ino: int, name: str, ino: int) -> None:
        """Add a dirent, allocating a directory data block if needed."""
        d = self.dirs[dir_ino]
        block_index = d.add(name, ino)
        dir_inode = self.inodes[dir_ino]
        if block_index * C.BLOCK_SIZE >= dir_inode.size:
            try:
                exts = self.alloc.alloc(1)
            except NoSpaceFSError:
                # ENOSPC while growing the directory: undo the in-memory
                # dirent, or later journaling of this block would find no
                # backing allocation and the namespace would hold an entry
                # the media cannot represent.
                d.remove(name)
                raise
            dir_inode.extmap.insert(block_index, exts[0].start, 1)
            dir_inode.size = (block_index + 1) * C.BLOCK_SIZE
            self._journal_inode(dir_inode)
        self._journal_dir_block(dir_ino, block_index)

    def _unwind_new_inode(self, inode: Inode) -> None:
        """Return a just-created inode after a failed create/mkdir."""
        self.inodes.pop(inode.ino, None)
        self.dirs.pop(inode.ino, None)
        self.free_inos.append(inode.ino)

    def _new_inode(self, is_dir: bool, mode: int) -> Inode:
        # The inode-allocator lock serialises concurrent creators on the
        # free-ino list (ext4's per-group ialloc lock, collapsed to one).
        with self.machine.lock(f"{self.SPAN_PREFIX}.ialloc"):
            if not self.free_inos:
                raise NoSpaceFSError("inode table full")
            ino = self.free_inos.pop()
            inode = Inode(ino=ino, mode=mode, is_dir=is_dir, nlink=2 if is_dir else 1)
            self.inodes[ino] = inode
            if is_dir:
                self.dirs[ino] = DirData()
            self.clock.charge_cpu(C.EXT4_CREATE_CPU_NS)
        return inode

    def _release_inode(self, ino: int) -> None:
        """Free an inode's blocks and table slot (nlink == 0, no opens)."""
        inode = self.inodes.pop(ino)
        freed = inode.extmap.physical_extents()
        if freed:
            if inode.is_dir:
                # Directory data blocks were journaled: quarantine them.
                self._quarantine.extend(freed)
            else:
                self.alloc.free(freed)
        if inode.cont_blocks:
            self._quarantine.extend(Extent(b, 1) for b in inode.cont_blocks)
        self.dirs.pop(ino, None)
        self.dirty_data.pop(ino, None)
        self.orphans.discard(ino)
        self._journal_inode_free(ino)
        self.free_inos.append(ino)

    # ------------------------------------------------------------------
    # block provisioning and raw IO on a file
    # ------------------------------------------------------------------

    def _ensure_blocks(self, inode: Inode, offset: int, size: int) -> bool:
        """Allocate (and zero) any holes under ``[offset, offset+size)``;
        returns whether it allocated."""
        first = offset // C.BLOCK_SIZE
        last = (offset + size - 1) // C.BLOCK_SIZE
        extmap = inode.extmap
        hole_runs = extmap.holes(first, last + 1)
        if not hole_runs:
            return False
        for logical, nblocks in hole_runs:
            exts = None
            if logical == 0 and not extmap.extents:
                # mballoc-style goal alignment: start a file's data on a
                # 2 MB boundary when possible, so contiguous growth stays
                # huge-page eligible.
                aligned = self.alloc.alloc_aligned(nblocks,
                                                   C.BLOCKS_PER_HUGE_PAGE)
                if aligned is not None:
                    exts = [aligned]
            elif logical > 0:
                # Allocation goal: continue right after the previous block.
                prev = extmap.lookup_block(logical - 1)
                if prev is not None:
                    goal = self.alloc.alloc_at(prev + 1, nblocks)
                    if goal is not None:
                        exts = [goal]
            if exts is None:
                exts = self.alloc.alloc(nblocks)
            for ext in exts:
                extmap.insert(logical, ext.start, ext.length)
                # New blocks are zeroed before exposure (as ext4 does); only
                # the parts the caller will not overwrite strictly need it,
                # but charging the full zeroing keeps the model honest.
                partial_head = logical == first and offset % C.BLOCK_SIZE
                partial_tail = (
                    logical + ext.length - 1 == last
                    and (offset + size) % C.BLOCK_SIZE
                )
                if partial_head or partial_tail:
                    self.pm.store(ext.start * C.BLOCK_SIZE,
                                  bytes(ext.length * C.BLOCK_SIZE), DATA)
                logical += ext.length
        return True

    def _store_range(self, inode: Inode, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset`` over already-provisioned blocks."""
        pieces = inode.extmap.map_byte_range(offset, len(data))
        whole = len(pieces) == 1
        dirty = self.dirty_data.setdefault(inode.ino, [])
        pos = 0
        for addr, run in pieces:
            if addr is None:
                raise AssertionError("write over unprovisioned hole")
            self.pm.store(addr, data if whole else data[pos : pos + run], DATA)
            dirty.append((addr, run))
            pos += run

    def _load_range(self, inode: Inode, offset: int, size: int, random_access: bool) -> bytes:
        out = []
        for addr, run in inode.extmap.map_byte_range(offset, size):
            if addr is None:
                out.append(b"\x00" * run)
            else:
                out.append(self.pm.load(addr, run, category=Category.DATA,
                                        random_access=random_access))
        return b"".join(out)

    # ------------------------------------------------------------------
    # FileSystemAPI: lifecycle
    # ------------------------------------------------------------------

    def open(self, path: str, flags: int = F.O_RDWR, mode: int = 0o644) -> int:
        self._trap()
        self._walk(path)
        self._maybe_background_commit()
        self.clock.charge_cpu(self.cost_open)
        parent, name = self._resolve_parent(path)
        ino = self.dirs[parent].lookup(name)
        if ino is None:
            if not flags & F.O_CREAT:
                raise FileNotFoundFSError(path)
            inode = self._new_inode(is_dir=False, mode=mode)
            try:
                self._dir_add(parent, name, inode.ino)
            except NoSpaceFSError:
                self._unwind_new_inode(inode)
                raise
            self._journal_inode(inode)
            ino = inode.ino
        else:
            if flags & F.O_CREAT and flags & F.O_EXCL:
                raise FileExistsFSError(path)
            inode = self.inodes[ino]
            if inode.is_dir and F.writable(flags):
                raise IsADirectoryFSError(path)
            if flags & F.O_TRUNC and F.writable(flags):
                self._truncate(inode, 0)
        of = self.fdt.install(ino, flags, path)
        return of.fd

    def close(self, fd: int) -> None:
        self._trap()
        self.clock.charge_cpu(self.cost_close)
        of = self.fdt.remove(fd)
        if of.ino in self.orphans and self.fdt.open_count(of.ino) == 0:
            self._release_inode(of.ino)

    def unlink(self, path: str) -> None:
        self._trap()
        self._walk(path)
        self._maybe_background_commit()
        self.clock.charge_cpu(self.cost_unlink)
        parent, name = self._resolve_parent(path)
        ino = self.dirs[parent].lookup(name)
        if ino is None:
            raise FileNotFoundFSError(path)
        inode = self.inodes[ino]
        if inode.is_dir:
            raise IsADirectoryFSError(path)
        block_index = self.dirs[parent].remove(name)
        self._journal_dir_block(parent, block_index)
        inode.nlink -= 1
        if inode.nlink == 0:
            if self.fdt.open_count(ino) > 0:
                self.orphans.add(ino)
                self._journal_inode(inode)
            else:
                self._release_inode(ino)
        else:
            self._journal_inode(inode)

    def rename(self, old: str, new: str) -> None:
        self._trap()
        self._walk(old)
        self._maybe_background_commit()
        self._walk(new)
        old_parent, old_name = self._resolve_parent(old)
        new_parent, new_name = self._resolve_parent(new)
        ino = self.dirs[old_parent].lookup(old_name)
        if ino is None:
            raise FileNotFoundFSError(old)
        target = self.dirs[new_parent].lookup(new_name)
        if target is not None:
            if target == ino:
                return
            tgt_inode = self.inodes[target]
            if tgt_inode.is_dir:
                if len(self.dirs[target]):
                    raise DirectoryNotEmptyFSError(new)
                self.dirs.pop(target)
                self.inodes[new_parent].nlink -= 1
            bi = self.dirs[new_parent].replace(new_name, ino)
            self._journal_dir_block(new_parent, bi)
            tgt_inode.nlink = 0
            if self.fdt.open_count(target) > 0:
                self.orphans.add(target)
                self._journal_inode(tgt_inode)
            else:
                self._release_inode(target)
        else:
            self._dir_add(new_parent, new_name, ino)
        bi = self.dirs[old_parent].remove(old_name)
        self._journal_dir_block(old_parent, bi)
        if self.inodes[ino].is_dir and old_parent != new_parent:
            self.inodes[old_parent].nlink -= 1
            self.inodes[new_parent].nlink += 1
            self._journal_inode(self.inodes[old_parent])
            self._journal_inode(self.inodes[new_parent])

    # ------------------------------------------------------------------
    # FileSystemAPI: data
    # ------------------------------------------------------------------

    def _do_read(self, of: OpenFile, count: int, offset: int) -> bytes:
        self._trap()
        inode = self.inodes[of.ino]
        if inode.is_dir:
            raise IsADirectoryFSError(of.path)
        if offset >= inode.size or count <= 0:
            self.clock.charge_cpu(self.cost_read_path)
            return b""
        count = min(count, inode.size - offset)
        npages = (count + C.BLOCK_SIZE - 1) // C.BLOCK_SIZE
        self.clock.charge_cpu(
            self.cost_read_path + npages * self.cost_read_per_page
        )
        random_access = offset != getattr(of, "last_read_end", None)
        data = self._load_range(inode, offset, count, random_access)
        of.last_read_end = offset + count  # type: ignore[attr-defined]
        return data

    def _do_write(self, of: OpenFile, data: bytes, offset: int) -> int:
        self._trap()
        self._maybe_background_commit()
        self.clock.charge_cpu(self.cost_write_path + C.KERNEL_LOCK_NS)
        if not data:
            return 0
        inode = self.inodes[of.ino]
        if inode.is_dir:
            raise IsADirectoryFSError(of.path)
        size = len(data)
        end = offset + size
        grows = end > inode.size
        if grows:
            self.clock.charge_cpu(self.cost_append_extra)
        allocated = self._ensure_blocks(inode, offset, size)
        self._store_range(inode, offset, data)
        # A new block changes the extent map even when it merges into a
        # neighbouring extent and the size stays (a write into a hole).
        if grows or allocated:
            if grows:
                inode.size = end
            self._journal_inode(inode)
        return size

    def fsync(self, fd: int) -> None:
        self._trap()
        of = self.fdt.get(fd)
        # DAX fsync: walk the file's dirty ranges, write back each cache
        # line, fence, then commit the running journal transaction.
        lines = 0
        for _, length in self.dirty_data.pop(of.ino, ()):
            lines += (length + C.CACHELINE_SIZE - 1) // C.CACHELINE_SIZE
        if lines:
            self.clock.charge_cpu(lines * C.CLWB_NS)
        self.pm.sfence(category=Category.CPU)
        if self.txn:
            # A synchronous fsync-initiated commit pays the commit-thread
            # handshake on top of the commit itself (unlike the inline
            # commit relink performs).
            self.clock.charge_cpu(C.EXT4_FSYNC_COMMIT_WAIT_NS)
        self.journal.commit(self.txn)
        self.txn = Transaction()

    def sync(self) -> None:
        """Commit outstanding metadata (kjournald periodic commit)."""
        self.pm.sfence(category=Category.CPU)
        self.journal.commit(self.txn)
        self.txn = Transaction()

    def _truncate(self, inode: Inode, length: int) -> None:
        if length < 0:
            raise InvalidArgumentFSError("negative truncate length")
        if length < inode.size:
            keep_blocks = (length + C.BLOCK_SIZE - 1) // C.BLOCK_SIZE
            freed = inode.extmap.truncate_blocks(keep_blocks)
            if freed:
                self.alloc.free(freed)
            # POSIX: if the file grows again, bytes past the truncated EOF
            # must read zero — scrub the stale tail of the kept partial block.
            tail = keep_blocks * C.BLOCK_SIZE - length
            if tail and inode.extmap.lookup_block(length // C.BLOCK_SIZE) is not None:
                self._store_range(inode, length, b"\x00" * tail)
        inode.size = length
        self._journal_inode(inode)

    def fallocate(self, fd: int, length: int, huge_aligned: bool = False) -> None:
        """Pre-allocate blocks for ``[0, length)`` (SplitFS staging files).

        With ``huge_aligned`` the allocation is attempted as one 2 MB-aligned
        contiguous run so the region is eligible for huge-page mappings;
        falls back to ordinary allocation when fragmentation prevents it.
        """
        self._trap()
        of = self._writable_of(fd)
        inode = self.inodes[of.ino]
        nblocks = (length + C.BLOCK_SIZE - 1) // C.BLOCK_SIZE
        holes = inode.extmap.holes(0, nblocks)
        if holes and huge_aligned and not inode.extmap.extents:
            ext = self.alloc.alloc_aligned(nblocks, C.BLOCKS_PER_HUGE_PAGE)
            if ext is not None:
                inode.extmap.insert(0, ext.start, ext.length)
                holes = []
        for cursor, run_len in holes:
            for ext in self.alloc.alloc(run_len):
                inode.extmap.insert(cursor, ext.start, ext.length)
                cursor += ext.length
        if length > inode.size:
            inode.size = length
        self._journal_inode(inode)

    # ------------------------------------------------------------------
    # FileSystemAPI: metadata
    # ------------------------------------------------------------------

    def _stat_inode(self, inode: Inode) -> Stat:
        return Stat(
            st_ino=inode.ino,
            st_size=inode.size,
            st_mode=inode.mode,
            st_nlink=inode.nlink,
            st_blocks=inode.blocks,
            is_dir=inode.is_dir,
        )

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._trap()
        self._walk(path)
        self._maybe_background_commit()
        parent, name = self._resolve_parent(path)
        if self.dirs[parent].lookup(name) is not None:
            raise FileExistsFSError(path)
        inode = self._new_inode(is_dir=True, mode=mode)
        try:
            self._dir_add(parent, name, inode.ino)
        except NoSpaceFSError:
            self._unwind_new_inode(inode)
            raise
        self._journal_inode(inode)
        self.inodes[parent].nlink += 1
        self._journal_inode(self.inodes[parent])

    def rmdir(self, path: str) -> None:
        self._trap()
        self._walk(path)
        self._maybe_background_commit()
        parent, name = self._resolve_parent(path)
        ino = self.dirs[parent].lookup(name)
        if ino is None:
            raise FileNotFoundFSError(path)
        inode = self.inodes[ino]
        if not inode.is_dir:
            raise NotADirectoryFSError(path)
        if len(self.dirs[ino]):
            raise DirectoryNotEmptyFSError(path)
        bi = self.dirs[parent].remove(name)
        self._journal_dir_block(parent, bi)
        inode.nlink = 0
        if self.fdt.open_count(ino) > 0:
            self.orphans.add(ino)
            self._journal_inode(inode)
        else:
            self._release_inode(ino)
        self.inodes[parent].nlink -= 1
        self._journal_inode(self.inodes[parent])

    def listdir(self, path: str) -> List[str]:
        self._trap()
        self._walk(path)
        ino = self._resolve(path)
        inode = self.inodes[ino]
        if not inode.is_dir:
            raise NotADirectoryFSError(path)
        names = self.dirs[ino].names()
        self.clock.charge_cpu(len(names) * 50.0)
        return names

    # ------------------------------------------------------------------
    # The SplitFS kernel patch: relink
    # ------------------------------------------------------------------

    def ioctl_relink(
        self, src_fd: int, src_off: int, dst_fd: int, dst_off: int, size: int,
        commit: bool = True,
    ) -> None:
        """Atomically move ``size`` bytes of *blocks* from src to dst.

        ``relink(file1, offset1, file2, offset2, size)`` per the paper:
        metadata-only when offsets share block phase; partial head/tail
        blocks are byte-copied.  Wrapped in one journal transaction.
        Existing memory mappings of the moved blocks stay valid (the blocks
        do not move physically).
        """
        self._trap()
        if size <= 0:
            return
        src_of = self.fdt.get(src_fd)
        dst_of = self.fdt.get(dst_fd)
        src = self.inodes[src_of.ino]
        dst = self.inodes[dst_of.ino]
        if src.is_dir or dst.is_dir:
            raise IsADirectoryFSError("relink on a directory")
        if src_off % C.BLOCK_SIZE != dst_off % C.BLOCK_SIZE:
            # Phases differ: no block can be shared; fall back to byte copy.
            self._relink_copy(src, src_off, dst, dst_off, size)
        else:
            self._relink_move(src, src_off, dst, dst_off, size)
        dst.size = max(dst.size, dst_off + size)
        self._journal_inode(src)
        self._journal_inode(dst)
        if commit:
            self.commit_running_txn()
        self.dirty_data.pop(dst.ino, None)

    def punch_hole(self, fd: int, offset: int, size: int) -> None:
        """Deallocate the whole blocks covering ``[offset, offset+size)``.

        Metadata-only, journaled into the running transaction (no commit
        here — the caller batches it, like :meth:`ioctl_relink`).  U-Split
        uses this after a relink byte-copied a staged run (phase mismatch,
        protected tail) so the staged range reads as a hole either way:
        strict-mode recovery treats a hole as "already relinked" and must
        not replay such an entry's now-stale bytes over newer data.

        No kernel-entry charge: this runs inside the relink ioctl batch,
        which already paid the trap; on the common swap path the range is
        already a hole and this is a pure no-op.
        """
        if size <= 0:
            return
        of = self.fdt.get(fd)
        inode = self.inodes[of.ino]
        first = offset // C.BLOCK_SIZE
        nblocks = (offset + size + C.BLOCK_SIZE - 1) // C.BLOCK_SIZE - first
        replaced = inode.extmap.punch(first, nblocks)
        if replaced:
            self.alloc.free(replaced)
            self._journal_inode(inode)

    def commit_running_txn(self) -> None:
        """Inline journal commit (ioctl path: no fsync commit-thread wait).

        The commit's fence also makes posted (movnt'd) staged data durable.
        U-Split batches several relinks under one commit per fsync."""
        self.journal.commit(self.txn)
        self.txn = Transaction()

    def _relink_copy(self, src: Inode, src_off: int, dst: Inode, dst_off: int,
                     size: int) -> None:
        data = self._load_range(src, src_off, size, random_access=False)
        self._ensure_blocks(dst, dst_off, size)
        self._store_range(dst, dst_off, data)

    def _relink_move(self, src: Inode, src_off: int, dst: Inode, dst_off: int,
                     size: int) -> None:
        # 1. Partial head block (offset mid-block): byte copy.
        head = min(size, (-dst_off) % C.BLOCK_SIZE)
        if head:
            self._relink_copy(src, src_off, dst, dst_off, head)
        core_size = size - head
        if core_size == 0:
            return
        src_core = src_off + head
        dst_core = dst_off + head
        assert src_core % C.BLOCK_SIZE == 0 and dst_core % C.BLOCK_SIZE == 0
        # 2. A trailing partial block can be swapped whole *unless* dst has
        #    live data beyond the range inside that block.
        tail = core_size % C.BLOCK_SIZE
        nblocks = core_size // C.BLOCK_SIZE
        if tail and dst.size > dst_off + size:
            # Must preserve dst bytes after the range: copy the tail.
            self._relink_copy(src, src_core + nblocks * C.BLOCK_SIZE,
                              dst, dst_core + nblocks * C.BLOCK_SIZE, tail)
        elif tail:
            nblocks += 1  # swap the trailing partial block wholesale
        if nblocks == 0:
            return
        src_first = src_core // C.BLOCK_SIZE
        dst_first = dst_core // C.BLOCK_SIZE
        mapped = sum(e.length for e in src.extmap.slice_mappings(src_first, nblocks))
        if mapped != nblocks:
            # Source range has holes; degenerate to a byte copy.
            self._relink_copy(src, src_core, dst, dst_core,
                              min(core_size, nblocks * C.BLOCK_SIZE))
            return
        # The MOVE_EXT dance: blocks must exist at the destination before the
        # swap; we account the temporary allocation as CPU work.
        self.clock.charge_cpu(C.ALLOC_CPU_NS)
        replaced = dst.extmap.punch(dst_first, nblocks)
        if replaced:
            self.alloc.free(replaced)
        moved = src.extmap.punch(src_first, nblocks)
        self.clock.charge_cpu(len(moved) * C.RELINK_PER_EXTENT_CPU_NS)
        cursor = dst_first
        for ext in moved:
            dst.extmap.insert(cursor, ext.start, ext.length)
            cursor += ext.length
