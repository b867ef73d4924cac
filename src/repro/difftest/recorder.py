"""Recording any file system's calls as a fuzz sequence.

:class:`Recorder` wraps a :class:`~repro.posix.api.FileSystemAPI` and
appends one :class:`~.ops.FuzzOp` per call *before* making the call, so a
call that fails is recorded too and its replay reproduces the errno.  Each
``open`` takes a fresh slot; a descriptor the recorder never handed out
takes slot -1, which replays as EBADF.  Replay is :func:`~.ops.apply_op`
over a fresh slots dict, and a recorded application run can go to
:func:`~.executor.run_differential` like any generated sequence::

    rec = Recorder(fs)
    run_personality(rec, "varmail", FilebenchConfig(operations=200))
    slots = {}
    outcomes = [apply_op(other_fs, slots, op) for op in rec.ops]
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from ..posix import flags as F
from ..posix.api import FileSystemAPI
from .ops import FuzzOp


class Recorder(FileSystemAPI):
    """Pass-through wrapper that records each call as a :class:`FuzzOp`.

    ``readv``, ``writev`` and ``fdatasync`` keep the base class's
    compositions, so they are recorded as the reads, write and fsync they
    make.
    """

    def __init__(self, inner: FileSystemAPI) -> None:
        self.inner = inner
        self.ops: List[FuzzOp] = []
        self._slots: Dict[int, int] = {}  # open fd -> its slot
        self._fresh = itertools.count()

    def _record(self, call: str, fd: Optional[int] = None,
                **fields) -> None:
        slot = -1 if fd is None else self._slots.get(fd, -1)
        self.ops.append(FuzzOp(call, slot=slot, **fields))

    def open(self, path, flags=F.O_RDWR, mode=0o644):
        slot = next(self._fresh)
        self.ops.append(FuzzOp("open", slot=slot, path=path, flags=flags))
        fd = self.inner.open(path, flags, mode)
        self._slots[fd] = slot
        return fd

    def close(self, fd):
        self._record("close", fd)
        self.inner.close(fd)
        self._slots.pop(fd, None)

    def read(self, fd, count):
        self._record("read", fd, count=count)
        return self.inner.read(fd, count)

    def pread(self, fd, count, offset):
        self._record("pread", fd, count=count, offset=offset)
        return self.inner.pread(fd, count, offset)

    def write(self, fd, data):
        self._record("write", fd, data=bytes(data))
        return self.inner.write(fd, data)

    def pwrite(self, fd, data, offset):
        self._record("pwrite", fd, data=bytes(data), offset=offset)
        return self.inner.pwrite(fd, data, offset)

    def lseek(self, fd, offset, whence=F.SEEK_SET):
        self._record("lseek", fd, offset=offset, whence=whence)
        return self.inner.lseek(fd, offset, whence)

    def ftruncate(self, fd, length):
        self._record("ftruncate", fd, count=length)
        self.inner.ftruncate(fd, length)

    def fsync(self, fd):
        self._record("fsync", fd)
        self.inner.fsync(fd)

    def fstat(self, fd):
        self._record("fstat", fd)
        return self.inner.fstat(fd)

    def stat(self, path):
        self._record("stat", path=path)
        return self.inner.stat(path)

    def unlink(self, path):
        self._record("unlink", path=path)
        self.inner.unlink(path)

    def rename(self, old, new):
        self._record("rename", path=old, path2=new)
        self.inner.rename(old, new)

    def mkdir(self, path, mode=0o755):
        self._record("mkdir", path=path)
        self.inner.mkdir(path, mode)

    def rmdir(self, path):
        self._record("rmdir", path=path)
        self.inner.rmdir(path)

    def listdir(self, path):
        self._record("listdir", path=path)
        return self.inner.listdir(path)
