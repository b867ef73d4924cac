"""Shared runtime machinery for the simulated kernel file systems.

Each file system keeps its own persistent layout, but the VFS-side
plumbing is identical across ext4/PMFS/NOVA/Strata, so it lives here:
descriptor tables, per-open-file offsets, trap/path-walk cost charging,
and :class:`KernelFS`, the one base those four systems derive from.

:class:`KernelFS` owns the descriptor-level syscalls (``read``, ``pread``,
``write``, ``pwrite``, ``lseek``; ``ftruncate``, ``stat`` and ``fstat``
for the systems whose calls trap) and the path walk (``_resolve``,
``_resolve_parent`` from :data:`ROOT_INO`).  A system supplies its data
path (``_do_read``, ``_do_write``) and its directory lookup (``_dirent``);
a file's size, whether an inode is a directory and its ``stat`` come from
the inode unless the system overrides them (Strata does).

It also holds the state every system keeps (inodes, free inode numbers,
orphans, the data-region allocator) and the block plumbing under the data
paths, for any inode with an ``extmap``: filling the holes a write covers
(``_ensure_blocks``), and storing and loading over mapped ranges
(``_store_range``, ``_load_range``).  The systems differ there only where
their mechanisms do: ext4 picks allocation goals (``_alloc_hole``) and
records the pieces its fsync writes back (``dirty_data``), and NOVA logs
each new extent (``_log_fresh_extent``).

Two implementations keep their own copies on purpose: the difftest
``OracleFS`` is the reference the fuzzer compares these systems against,
so it must not share their code, and SplitFS's U-Split descriptors are a
user-space mechanism of their own layered over ext4's.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from ..pmem import constants as C
from ..pmem.allocator import Extent, ExtentAllocator
from ..pmem.timing import DATA, SimClock
from ..posix import flags as F
from ..posix.api import FileSystemAPI, Stat, split_path
from ..posix.errors import (
    BadFileDescriptorError,
    FileNotFoundFSError,
    InvalidArgumentFSError,
    NotADirectoryFSError,
    PermissionFSError,
)

#: Inode number of the root directory.
ROOT_INO = 1


@dataclass
class OpenFile:
    """Kernel-side open file description (struct file)."""

    fd: int
    ino: int
    flags: int
    offset: int = 0
    path: str = ""


class FDTable:
    """Allocates and resolves file descriptors."""

    def __init__(self, first_fd: int = 3) -> None:
        self._first_fd = first_fd
        self._next_fd = first_fd
        self._open: Dict[int, OpenFile] = {}

    def install(self, ino: int, flags: int, path: str = "") -> OpenFile:
        of = OpenFile(fd=self._next_fd, ino=ino, flags=flags, path=path)
        self._next_fd += 1
        self._open[of.fd] = of
        return of

    def get(self, fd: int) -> OpenFile:
        try:
            return self._open[fd]
        except KeyError:
            raise BadFileDescriptorError(f"fd {fd} is not open") from None

    def remove(self, fd: int) -> OpenFile:
        of = self.get(fd)
        del self._open[fd]
        return of

    def open_count(self, ino: int) -> int:
        return sum(1 for of in self._open.values() if of.ino == ino)

    def __len__(self) -> int:
        return len(self._open)


class KernelCosts:
    """Mixin charging kernel-entry costs to the machine clock."""

    clock: SimClock

    def _trap(self) -> None:
        """One syscall entry/exit."""
        obs = self.clock.obs
        if obs.enabled:
            with obs.span("kernel.trap", cat="trap"):
                self.clock.charge_cpu(C.KERNEL_TRAP_NS)
        else:
            self.clock.charge_cpu(C.KERNEL_TRAP_NS)

    def _walk(self, path: str) -> None:
        """Path-resolution CPU cost (per component, minimum one)."""
        ncomp = max(1, sum(1 for c in path.split("/") if c))
        obs = self.clock.obs
        if obs.enabled:
            with obs.span("kernel.path_walk", cat="vfs"):
                self.clock.charge_cpu(ncomp * C.PATH_WALK_PER_COMPONENT_NS)
        else:
            self.clock.charge_cpu(ncomp * C.PATH_WALK_PER_COMPONENT_NS)


def new_offset(of: OpenFile, size: int, offset: int, whence: int) -> int:
    """Compute an lseek result for an open file of ``size`` bytes."""
    if whence == F.SEEK_SET:
        pos = offset
    elif whence == F.SEEK_CUR:
        pos = of.offset + offset
    elif whence == F.SEEK_END:
        pos = size + offset
    else:
        raise InvalidArgumentFSError(f"bad whence {whence}")
    if pos < 0:
        raise InvalidArgumentFSError(f"negative file offset {pos}")
    return pos


class KernelFS(FileSystemAPI, KernelCosts):
    """The VFS layer: descriptors, offsets and the path walk.

    A subclass of :class:`FileSystemAPI` rather than a mixin: its
    ``__init_subclass__`` adds the errno boundary and the
    ``<SPAN_PREFIX>.<name>`` span only to syscalls in a class's own
    ``__dict__``, so the syscalls defined here are wrapped here.
    """

    #: ext4 keeps each file's stored ``(addr, length)`` pieces here until
    #: its fsync writes them back; None where every write is synchronous.
    dirty_data: Optional[Dict[int, List[Tuple[int, int]]]] = None
    #: NOVA logs each fresh extent :meth:`_ensure_blocks` maps, as
    #: ``_log_fresh_extent(inode, logical, ext)``; None where nothing is.
    _log_fresh_extent = None

    def __init__(self, machine) -> None:
        self.machine = machine
        self.pm = machine.pm
        self.clock: SimClock = machine.clock
        # Populated by format()/mount():
        self.total_blocks = 0
        self.itable_start = 0
        self.data_start = 0
        self.alloc: ExtentAllocator = None  # type: ignore[assignment]
        self.inodes: Dict[int, Any] = {}
        self.free_inos: List[int] = []
        self.fdt = FDTable()
        #: Inodes whose last name is gone but which still have open
        #: descriptors (POSIX orphan semantics), released at the last close.
        self.orphans: Set[int] = set()
        #: First block of the RAS metadata mirror of ext4 and NOVA (0 = no
        #: mirror on-media).
        self.ras_replica_start = 0

    def _new_alloc(self, lock) -> None:
        """Give the data region an allocator with every block free; a
        mount then reserves what its metadata shows in use."""
        self.alloc = ExtentAllocator(
            self.total_blocks - self.data_start, clock=self.clock,
            first_block=self.data_start, faults=self.machine.faults,
            lock=lock)

    # -- what each file system supplies ------------------------------------

    @abc.abstractmethod
    def _do_read(self, of: OpenFile, count: int, offset: int) -> bytes:
        """Read up to ``count`` bytes of ``of``'s file at ``offset``."""

    @abc.abstractmethod
    def _do_write(self, of: OpenFile, data: bytes, offset: int) -> int:
        """Write ``data`` to ``of``'s file at ``offset``."""

    def _file_size(self, ino: int) -> int:
        """The size of file ``ino`` in bytes."""
        return self.inodes[ino].size

    def _is_dir(self, ino: int) -> bool:
        """Whether ``ino`` is a live directory."""
        inode = self.inodes.get(ino)
        return inode is not None and inode.is_dir

    def _stat_inode(self, inode) -> Stat:
        return Stat(st_ino=inode.ino, st_size=inode.size, st_mode=inode.mode,
                    st_nlink=inode.nlink, st_blocks=inode.extmap.blocks_used,
                    is_dir=inode.is_dir)

    @abc.abstractmethod
    def _dirent(self, dir_ino: int, name: str) -> Optional[int]:
        """The inode ``name`` names in directory ``dir_ino``, if any."""

    # -- a file's blocks -----------------------------------------------------

    def _alloc_hole(self, extmap, logical: int, nblocks: int) -> List[Extent]:
        """Blocks for the ``nblocks``-block hole at ``logical`` of ``extmap``."""
        return self.alloc.alloc(nblocks)

    def _ensure_blocks(self, inode, offset: int, size: int) -> bool:
        """Map every hole under ``[offset, offset+size)`` to new blocks;
        returns whether there was one.

        Each new extent is mapped, then zeroed if the range covers it only
        partly (so no stale bytes show through the rest), then logged.
        """
        first = offset // C.BLOCK_SIZE
        last = (offset + size - 1) // C.BLOCK_SIZE
        extmap = inode.extmap
        holes = extmap.holes(first, last + 1)
        if not holes:
            return False
        head = offset % C.BLOCK_SIZE
        tail = (offset + size) % C.BLOCK_SIZE
        log = self._log_fresh_extent
        for logical, nblocks in holes:
            for ext in self._alloc_hole(extmap, logical, nblocks):
                extmap.insert(logical, ext.start, ext.length)
                if ((head and logical == first)
                        or (tail and logical + ext.length - 1 == last)):
                    self.pm.store(ext.start * C.BLOCK_SIZE,
                                  bytes(ext.length * C.BLOCK_SIZE), DATA)
                if log is not None:
                    log(inode, logical, ext)
                logical += ext.length
        return True

    def _store_range(self, inode, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset`` over already-mapped blocks."""
        pieces = inode.extmap.map_byte_range(offset, len(data))
        whole = len(pieces) == 1
        pos = 0
        for addr, run in pieces:
            if addr is None:
                raise AssertionError("write over unprovisioned hole")
            self.pm.store(addr, data if whole else data[pos : pos + run], DATA)
            pos += run
        if self.dirty_data is not None:
            self.dirty_data.setdefault(inode.ino, []).extend(pieces)

    def _shrink_blocks(self, inode, length: int) -> bool:
        """Free the blocks past ``length`` and zero the rest of the last one
        kept (bytes past EOF read zero if the file grows again); returns
        whether it stored zeros.  Setting the size is the caller's."""
        if length < 0:
            raise InvalidArgumentFSError("negative truncate length")
        if length >= inode.size:
            return False
        keep = (length + C.BLOCK_SIZE - 1) // C.BLOCK_SIZE
        freed = inode.extmap.truncate_blocks(keep)
        if freed:
            self.alloc.free(freed)
        tail = keep * C.BLOCK_SIZE - length
        if not tail or inode.extmap.lookup_block(length // C.BLOCK_SIZE) is None:
            return False
        self._store_range(inode, length, b"\x00" * tail)
        return True

    def _load_range(self, inode, offset: int, size: int,
                    random_access: bool) -> bytes:
        """Read ``size`` bytes at ``offset``; a hole reads as zeros."""
        out = []
        for addr, run in inode.extmap.map_byte_range(offset, size):
            if addr is None:
                out.append(b"\x00" * run)
            else:
                out.append(self.pm.load(addr, run, category=DATA,
                                        random_access=random_access))
        return b"".join(out)

    # -- descriptors ---------------------------------------------------------

    def _readable_of(self, fd: int) -> OpenFile:
        of = self.fdt.get(fd)
        if not F.readable(of.flags):
            raise PermissionFSError(f"fd {fd} not open for reading")
        return of

    def _writable_of(self, fd: int) -> OpenFile:
        of = self.fdt.get(fd)
        if not F.writable(of.flags):
            raise PermissionFSError(f"fd {fd} not open for writing")
        return of

    def read(self, fd: int, count: int) -> bytes:
        of = self._readable_of(fd)
        data = self._do_read(of, count, of.offset)
        of.offset += len(data)
        return data

    def pread(self, fd: int, count: int, offset: int) -> bytes:
        return self._do_read(self._readable_of(fd), count, offset)

    def write(self, fd: int, data: bytes) -> int:
        of = self._writable_of(fd)
        if of.flags & F.O_APPEND:
            of.offset = self._file_size(of.ino)
        n = self._do_write(of, data, of.offset)
        of.offset += n
        return n

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        return self._do_write(self._writable_of(fd), data, offset)

    def lseek(self, fd: int, offset: int, whence: int = F.SEEK_SET) -> int:
        of = self.fdt.get(fd)
        of.offset = new_offset(of, self._file_size(of.ino), offset, whence)
        return of.offset

    # These three trap and go through each system's ``_truncate(inode,
    # length)`` and :meth:`_stat_inode`.  Strata, whose calls stay in user
    # space, overrides all three.

    def ftruncate(self, fd: int, length: int) -> None:
        self._trap()
        of = self._writable_of(fd)
        self._truncate(self.inodes[of.ino], length)

    def stat(self, path: str) -> Stat:
        self._trap()
        self._walk(path)
        self.clock.charge_cpu(C.KERNEL_STAT_CPU_NS)
        return self._stat_inode(self.inodes[self._resolve(path)])

    def fstat(self, fd: int) -> Stat:
        self._trap()
        self.clock.charge_cpu(C.KERNEL_STAT_CPU_NS)
        return self._stat_inode(self.inodes[self.fdt.get(fd).ino])

    # -- path walk -------------------------------------------------------------

    def _descend(self, comps: List[str], path: str) -> int:
        ino = ROOT_INO
        for comp in comps:
            if not self._is_dir(ino):
                raise NotADirectoryFSError(path)
            child = self._dirent(ino, comp)
            if child is None:
                raise FileNotFoundFSError(path)
            ino = child
        return ino

    def _resolve(self, path: str) -> int:
        return self._descend(split_path(path), path)

    def _resolve_parent(self, path: str) -> Tuple[int, str]:
        comps = split_path(path)
        if not comps:
            raise InvalidArgumentFSError("cannot operate on /")
        parent = self._descend(comps[:-1], path)
        if not self._is_dir(parent):
            raise NotADirectoryFSError(path)
        return parent, comps[-1]
