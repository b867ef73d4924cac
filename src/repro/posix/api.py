"""The POSIX-style interface every simulated file system implements.

The original SplitFS intercepts 35 glibc entry points with ``LD_PRELOAD``.
In this reproduction the equivalent boundary is :class:`FileSystemAPI`:
applications are written against this interface, and whether a call is served
in user space (U-Split) or traps into the simulated kernel is decided by the
object behind it.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import List

from . import flags as F
from ..obs.observer import NULL_OBSERVER
from .errors import FSError, InvalidArgumentFSError, IOFSError


@dataclass
class Stat:
    """Subset of ``struct stat`` the reproduction needs."""

    st_ino: int
    st_size: int
    st_mode: int = 0o644
    st_nlink: int = 1
    st_blocks: int = 0
    is_dir: bool = False


def split_path(path: str) -> List[str]:
    """Normalize an absolute path into components.

    Raises for relative paths — the simulated processes have no CWD.
    """
    if not path.startswith("/"):
        raise InvalidArgumentFSError(f"path must be absolute: {path!r}")
    return [c for c in path.split("/") if c not in ("", ".")]


def parent_and_name(path: str) -> "tuple[List[str], str]":
    comps = split_path(path)
    if not comps:
        raise InvalidArgumentFSError("operation on root directory")
    return comps[:-1], comps[-1]


#: The public syscall surface.  Every concrete file system gets these methods
#: wrapped so that device-level faults (:class:`~repro.pmem.device.PMError`,
#: e.g. an injected media error) escape only as the POSIX-shaped
#: :class:`~repro.posix.errors.IOFSError` (EIO) — never as a raw simulator
#: exception.  ``FSError`` subclasses pass through untouched, so ENOSPC etc.
#: keep their errno.
_SYSCALLS = (
    "open", "close", "unlink", "rename",
    "read", "write", "pread", "pwrite", "readv", "writev",
    "lseek", "fsync", "fdatasync", "ftruncate",
    "stat", "fstat", "mkdir", "rmdir", "listdir",
)


def _errno_boundary(func, syscall_name=None):
    name = syscall_name or func.__name__

    # One frame per syscall: the translation is written out twice so that,
    # traced, it still runs inside the syscall span.
    @functools.wraps(func)
    def wrapper(self, *a, **kw):
        obs = self._observer()
        if obs.enabled and self.SPAN_PREFIX:
            # Span covers the whole syscall (error paths included) so every
            # charge inside attributes to this system's category unless a
            # deeper span (trap, journal, alloc, fault, ...) claims it.
            with obs.span(f"{self.SPAN_PREFIX}.{name}",
                          cat=self.SPAN_CATEGORY):
                try:
                    return func(self, *a, **kw)
                except FSError:
                    raise
                except Exception as exc:
                    _reraise_as_eio(exc)
                    raise
        try:
            return func(self, *a, **kw)
        except FSError:
            raise
        except Exception as exc:
            _reraise_as_eio(exc)
            raise

    wrapper._errno_wrapped = True
    return wrapper


def _reraise_as_eio(exc: Exception) -> None:
    """Raise EIO from a device-level :class:`~repro.pmem.device.PMError`;
    return for any other exception, which the caller re-raises."""
    from ..pmem.device import PMError

    if isinstance(exc, PMError):
        raise IOFSError(str(exc)) from exc


class FileSystemAPI(abc.ABC):
    """POSIX file operations over the simulated stack.

    Sequential ``read``/``write`` use the per-open-file offset, like the
    kernel's struct file; ``pread``/``pwrite`` are positional.  All paths are
    absolute.  Errors are :class:`~repro.posix.errors.FSError` subclasses —
    :meth:`__init_subclass__` guarantees that by translating any device-level
    :class:`~repro.pmem.device.PMError` crossing the boundary into EIO.

    The same boundary doubles as the top-level tracing hook: when an
    :class:`~repro.obs.Observer` is bound to the instance's clock, each
    syscall runs inside a ``<SPAN_PREFIX>.<name>`` span in category
    ``SPAN_CATEGORY``, so every concrete system gets uniform syscall spans
    without per-method instrumentation.  Wrappers that have no clock of
    their own (e.g. the difftest oracle model, the trace recorder) keep
    ``SPAN_PREFIX = ""`` and skip tracing entirely.
    """

    #: Span name prefix for this system's syscalls ("" disables them).
    SPAN_PREFIX: str = ""
    #: Attribution category charges default to inside this system's spans.
    SPAN_CATEGORY: str = "fs"

    def _observer(self):
        """The observer watching this instance (NullObserver when untraced).

        Default: follow ``self.clock`` when the concrete class has one
        (the kernel file systems); others override or stay untraced.
        """
        clock = getattr(self, "clock", None)
        return clock.obs if clock is not None else NULL_OBSERVER

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for name in _SYSCALLS:
            method = cls.__dict__.get(name)
            if method is None or getattr(method, "_errno_wrapped", False):
                continue
            if getattr(method, "__isabstractmethod__", False):
                continue
            setattr(cls, name, _errno_boundary(method, name))

    # -- file lifecycle -----------------------------------------------------

    @abc.abstractmethod
    def open(self, path: str, flags: int = F.O_RDWR, mode: int = 0o644) -> int:
        """Open (and possibly create) a file; returns a file descriptor."""

    @abc.abstractmethod
    def close(self, fd: int) -> None:
        """Close a file descriptor."""

    @abc.abstractmethod
    def unlink(self, path: str) -> None:
        """Remove a file."""

    @abc.abstractmethod
    def rename(self, old: str, new: str) -> None:
        """Atomically rename ``old`` to ``new`` (replacing ``new``)."""

    # -- data ----------------------------------------------------------------

    @abc.abstractmethod
    def read(self, fd: int, count: int) -> bytes:
        """Read up to ``count`` bytes at the current offset."""

    @abc.abstractmethod
    def write(self, fd: int, data: bytes) -> int:
        """Write at the current offset (or EOF with ``O_APPEND``)."""

    @abc.abstractmethod
    def pread(self, fd: int, count: int, offset: int) -> bytes:
        """Positional read; does not move the file offset."""

    @abc.abstractmethod
    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        """Positional write; does not move the file offset."""

    @abc.abstractmethod
    def lseek(self, fd: int, offset: int, whence: int = F.SEEK_SET) -> int:
        """Reposition the file offset; returns the new offset."""

    @abc.abstractmethod
    def fsync(self, fd: int) -> None:
        """Make all completed operations on the file durable."""

    @abc.abstractmethod
    def ftruncate(self, fd: int, length: int) -> None:
        """Set the file size to ``length``."""

    # -- metadata --------------------------------------------------------------

    @abc.abstractmethod
    def stat(self, path: str) -> Stat:
        """Stat by path."""

    @abc.abstractmethod
    def fstat(self, fd: int) -> Stat:
        """Stat by descriptor."""

    @abc.abstractmethod
    def mkdir(self, path: str, mode: int = 0o755) -> None:
        """Create a directory."""

    @abc.abstractmethod
    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""

    @abc.abstractmethod
    def listdir(self, path: str) -> List[str]:
        """List directory entry names."""

    # -- vectored IO and fdatasync (default compositions) -----------------------

    def readv(self, fd: int, sizes: List[int]) -> List[bytes]:
        """Scatter read: fill one buffer per requested size, in order."""
        out = []
        for size in sizes:
            chunk = self.read(fd, size)
            out.append(chunk)
            if len(chunk) < size:
                break
        return out

    def writev(self, fd: int, buffers: List[bytes]) -> int:
        """Gather write: write each buffer at the current offset, in order."""
        return self.write(fd, b"".join(buffers))

    def fdatasync(self, fd: int) -> None:
        """Like fsync; the simulated stack does not track times separately."""
        self.fsync(fd)

    # -- conveniences (implemented on the abstract surface) ---------------------

    def exists(self, path: str) -> bool:
        from .errors import FileNotFoundFSError

        try:
            self.stat(path)
            return True
        except FileNotFoundFSError:
            return False

    def read_file(self, path: str) -> bytes:
        """Read a whole file (helper for tests and utilities)."""
        fd = self.open(path, F.O_RDONLY)
        try:
            chunks = []
            while True:
                chunk = self.read(fd, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
            return b"".join(chunks)
        finally:
            self.close(fd)

    def write_file(self, path: str, data: bytes) -> None:
        """Create/replace a file with ``data`` and fsync it."""
        fd = self.open(path, F.O_CREAT | F.O_RDWR | F.O_TRUNC)
        try:
            self.write(fd, data)
            self.fsync(fd)
        finally:
            self.close(fd)
