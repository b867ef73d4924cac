"""A small VFS: mount-table routing over multiple file systems.

The evaluation mostly runs one file system per machine, but the paper's
deployment story (Section 3.2) has several applications — possibly on
different file systems and SplitFS modes — sharing a machine.  The VFS
provides the usual mount-point indirection: paths are resolved to the
longest matching mount and forwarded, with descriptors tagged so later
fd-based calls route back to the owning file system.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..obs.observer import NULL_OBSERVER
from ..posix import flags as F
from ..posix.api import FileSystemAPI, Stat
from ..posix.errors import (
    BadFileDescriptorError,
    FileNotFoundFSError,
    InvalidArgumentFSError,
)


class VFS(FileSystemAPI):
    """Longest-prefix mount routing over :class:`FileSystemAPI` instances."""

    SPAN_PREFIX = "vfs"
    SPAN_CATEGORY = "vfs"

    #: Resolved paths cached per VFS instance (dentry-cache analogue).  The
    #: mount table is the only input to resolution, so entries stay valid
    #: until a mount()/unmount() invalidates them.  Bounded so pathological
    #: workloads (millions of distinct paths) cannot grow it without limit.
    RESOLVE_CACHE_MAX = 8192

    def __init__(self, root: FileSystemAPI, obs=NULL_OBSERVER) -> None:
        self._mounts: Dict[str, FileSystemAPI] = {"/": root}
        self._fds: Dict[int, Tuple[FileSystemAPI, int]] = {}
        self._next_fd = 10_000
        self._resolve_cache: Dict[str, Tuple[FileSystemAPI, str]] = {}
        #: Observability sink; a bound :class:`~repro.obs.Observer` records
        #: ``vfs.resolve`` spans and dentry-cache hit/miss counters.
        self.obs = obs

    def _observer(self):
        return self.obs

    # -- mount management -----------------------------------------------------

    def mount(self, mountpoint: str, fs: FileSystemAPI) -> None:
        """Attach ``fs`` at ``mountpoint`` (must be absolute, not "/")."""
        if not mountpoint.startswith("/") or mountpoint == "/":
            raise InvalidArgumentFSError(f"bad mountpoint {mountpoint!r}")
        self._mounts[mountpoint.rstrip("/")] = fs
        self._resolve_cache.clear()

    def unmount(self, mountpoint: str) -> None:
        if mountpoint == "/":
            raise InvalidArgumentFSError("cannot unmount the root")
        if self._mounts.pop(mountpoint.rstrip("/"), None) is None:
            raise FileNotFoundFSError(f"nothing mounted at {mountpoint}")
        self._resolve_cache.clear()

    def mounts(self) -> List[str]:
        return sorted(self._mounts)

    def resolve(self, path: str) -> Tuple[FileSystemAPI, str]:
        """Longest-prefix match: returns (fs, path-within-that-fs)."""
        cached = self._resolve_cache.get(path)
        obs = self.obs
        if cached is not None:
            if obs.enabled:
                obs.registry.counter("kernel.vfs.resolve_hits").inc()
            return cached
        if obs.enabled:
            obs.registry.counter("kernel.vfs.resolve_misses").inc()
            with obs.span("vfs.resolve", cat="vfs"):
                return self._resolve_slow(path)
        return self._resolve_slow(path)

    def _resolve_slow(self, path: str) -> Tuple[FileSystemAPI, str]:
        if not path.startswith("/"):
            raise InvalidArgumentFSError(f"path must be absolute: {path!r}")
        best = "/"
        for mp in self._mounts:
            if mp != "/" and (path == mp or path.startswith(mp + "/")):
                if len(mp) > len(best):
                    best = mp
        fs = self._mounts[best]
        inner = path if best == "/" else path[len(best):] or "/"
        if len(self._resolve_cache) >= self.RESOLVE_CACHE_MAX:
            self._resolve_cache.clear()
        self._resolve_cache[path] = (fs, inner)
        return fs, inner

    # -- fd helpers ----------------------------------------------------------------

    def _target(self, fd: int) -> Tuple[FileSystemAPI, int]:
        try:
            return self._fds[fd]
        except KeyError:
            raise BadFileDescriptorError(f"fd {fd} is not open") from None

    # -- FileSystemAPI: path operations -----------------------------------------------

    def open(self, path: str, flags: int = F.O_RDWR, mode: int = 0o644) -> int:
        fs, inner = self.resolve(path)
        inner_fd = fs.open(inner, flags, mode)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = (fs, inner_fd)
        return fd

    def unlink(self, path: str) -> None:
        fs, inner = self.resolve(path)
        fs.unlink(inner)

    def rename(self, old: str, new: str) -> None:
        fs_old, inner_old = self.resolve(old)
        fs_new, inner_new = self.resolve(new)
        if fs_old is not fs_new:
            raise InvalidArgumentFSError("cross-mount rename (EXDEV)")
        fs_old.rename(inner_old, inner_new)

    def stat(self, path: str) -> Stat:
        fs, inner = self.resolve(path)
        return fs.stat(inner)

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        fs, inner = self.resolve(path)
        fs.mkdir(inner, mode)

    def rmdir(self, path: str) -> None:
        fs, inner = self.resolve(path)
        fs.rmdir(inner)

    def listdir(self, path: str) -> List[str]:
        fs, inner = self.resolve(path)
        names = fs.listdir(inner)
        # Mountpoints directly under this directory appear as entries.
        prefix = path.rstrip("/")
        for mp in self._mounts:
            if mp == "/":
                continue
            parent, _, leaf = mp.rpartition("/")
            if (parent or "/") == (prefix or "/") and leaf not in names:
                names.append(leaf)
        return sorted(names)

    # -- FileSystemAPI: fd operations ------------------------------------------------------

    def close(self, fd: int) -> None:
        fs, inner_fd = self._target(fd)
        del self._fds[fd]
        fs.close(inner_fd)

    def read(self, fd: int, count: int) -> bytes:
        fs, inner_fd = self._target(fd)
        return fs.read(inner_fd, count)

    def write(self, fd: int, data: bytes) -> int:
        fs, inner_fd = self._target(fd)
        return fs.write(inner_fd, data)

    def pread(self, fd: int, count: int, offset: int) -> bytes:
        fs, inner_fd = self._target(fd)
        return fs.pread(inner_fd, count, offset)

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        fs, inner_fd = self._target(fd)
        return fs.pwrite(inner_fd, data, offset)

    def lseek(self, fd: int, offset: int, whence: int = F.SEEK_SET) -> int:
        fs, inner_fd = self._target(fd)
        return fs.lseek(inner_fd, offset, whence)

    def fsync(self, fd: int) -> None:
        fs, inner_fd = self._target(fd)
        fs.fsync(inner_fd)

    def ftruncate(self, fd: int, length: int) -> None:
        fs, inner_fd = self._target(fd)
        fs.ftruncate(inner_fd, length)

    def fstat(self, fd: int) -> Stat:
        fs, inner_fd = self._target(fd)
        return fs.fstat(inner_fd)
