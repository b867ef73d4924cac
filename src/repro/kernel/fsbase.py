"""Shared runtime machinery for the simulated kernel file systems.

Each file system keeps its own persistent layout, but the kernel-side
plumbing — descriptor tables, per-open-file offsets, trap/path-walk cost
charging — is identical across ext4/PMFS/NOVA/Strata, so it lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..pmem import constants as C
from ..pmem.timing import SimClock
from ..posix import flags as F
from ..posix.errors import BadFileDescriptorError, InvalidArgumentFSError


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
