"""Shared runtime machinery for the simulated kernel file systems.

Each file system keeps its own persistent layout, but the VFS-side
plumbing is identical across ext4/PMFS/NOVA/Strata, so it lives here:
descriptor tables, per-open-file offsets, trap/path-walk cost charging,
and :class:`KernelFS`, the one base those four systems derive from.

:class:`KernelFS` owns the descriptor-level syscalls (``read``, ``pread``,
``write``, ``pwrite``, ``lseek``; ``ftruncate``, ``stat`` and ``fstat``
for the systems whose calls trap) and the path walk (``_resolve``,
``_resolve_parent`` from :data:`ROOT_INO`).  A system supplies its data
path (``_do_read``, ``_do_write``) and three lookups: a file's size, whether
an inode is a directory, and one directory entry.

Two implementations keep their own copies on purpose: the difftest
``OracleFS`` is the reference the fuzzer compares these systems against,
so it must not share their code, and SplitFS's U-Split descriptors are a
user-space mechanism of their own layered over ext4's.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..pmem import constants as C
from ..pmem.timing import SimClock
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

    fdt: FDTable
    inodes: Dict[int, object]

    # -- what each file system supplies ------------------------------------

    @abc.abstractmethod
    def _do_read(self, of: OpenFile, count: int, offset: int) -> bytes:
        """Read up to ``count`` bytes of ``of``'s file at ``offset``."""

    @abc.abstractmethod
    def _do_write(self, of: OpenFile, data: bytes, offset: int) -> int:
        """Write ``data`` to ``of``'s file at ``offset``."""

    @abc.abstractmethod
    def _file_size(self, ino: int) -> int:
        """The size of file ``ino`` in bytes."""

    @abc.abstractmethod
    def _is_dir(self, ino: int) -> bool:
        """Whether ``ino`` is a live directory."""

    @abc.abstractmethod
    def _dirent(self, dir_ino: int, name: str) -> Optional[int]:
        """The inode ``name`` names in directory ``dir_ino``, if any."""

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
    # length)`` and ``_stat_inode(inode)``.  Strata, whose calls stay in
    # user space, overrides all three.

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
