"""PMFS: in-place PM file system with fine-grained undo journaling.

PMFS is the paper's *sync-mode* baseline (Table 3): every operation is
synchronous — data and metadata are durable when the call returns — but data
operations are not atomic.  It shares the namespace/extent machinery with the
ext4 model and differs exactly where the real systems differ:

* metadata updates are applied **in place** under a cache-line-granularity
  undo journal (:mod:`repro.pmfs.journal`) and committed per operation,
  instead of ext4's batched whole-block redo journaling;
* data writes fence before returning, so ``fsync`` has nothing to do.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..ext4.filesystem import Ext4Config, Ext4DaxFS
from ..kernel.fsbase import OpenFile
from ..kernel.machine import Machine
from ..pmem import constants as C
from ..pmem.timing import Category
from ..posix import flags as F
from ..posix.errors import InvalidArgumentFSError
from .journal import UndoJournal

PmfsConfig = Ext4Config


class PmfsFS(Ext4DaxFS):
    """The simulated PMFS instance."""

    SPAN_PREFIX = "pmfs"

    def __init__(self, machine: Machine) -> None:
        super().__init__(machine)
        self.undo: UndoJournal = None  # type: ignore[assignment]
        self.cost_write_path = C.PMFS_WRITE_PATH_CPU_NS
        self.cost_append_extra = C.PMFS_APPEND_EXTRA_CPU_NS
        self.cost_read_path = C.PMFS_READ_PATH_CPU_NS
        self.cost_read_per_page = C.EXT4_READ_PER_PAGE_CPU_NS * 0.7
        self.cost_open = C.EXT4_OPEN_CPU_NS * 0.8
        self.cost_unlink = C.EXT4_UNLINK_CPU_NS * 0.5

    # -- journal hooks ------------------------------------------------------

    def _open_journal(self, jstart: int, jblocks: int, fresh: bool) -> None:
        """The undo journal, which is also ``txn``: ext4's metadata writers
        (``_journal_inode`` and the rest) hand each block to
        ``txn.add_block``, here an undo-logged update in place."""
        self.journal = None  # type: ignore[assignment]
        self.txn = self.undo = UndoJournal(self.pm, jstart, jblocks)
        self.undo.lock = self.machine.lock("pmfs.journal")
        if fresh:
            self.undo.format()
        else:
            self.undo.recover()

    # -- metadata persistence: immediate, fine-grained, undo-logged -----------

    @contextmanager
    def _op_tx(self):
        """One syscall = one undo transaction.

        Real PMFS journals every metadata line an operation touches under a
        single commit, so a crash mid-create (dirent applied, inode record
        not) rolls the whole operation back instead of leaving a dangling
        entry.  Nested brackets collapse into the outermost one.
        """
        self.undo.begin()
        try:
            yield
        finally:
            self.undo.commit()

    def open(self, path: str, flags: int = F.O_RDWR, mode: int = 0o644) -> int:
        with self._op_tx():
            return super().open(path, flags, mode)

    def close(self, fd: int) -> None:
        with self._op_tx():
            super().close(fd)

    def unlink(self, path: str) -> None:
        with self._op_tx():
            super().unlink(path)

    def rename(self, old: str, new: str) -> None:
        with self._op_tx():
            super().rename(old, new)

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        with self._op_tx():
            super().mkdir(path, mode)

    def rmdir(self, path: str) -> None:
        with self._op_tx():
            super().rmdir(path)

    def ftruncate(self, fd: int, length: int) -> None:
        with self._op_tx():
            super().ftruncate(fd, length)

    def _flush_quarantine(self) -> None:
        pass  # not used: PMFS frees immediately (undo records can't clobber)

    def _release_inode(self, ino: int) -> None:
        super()._release_inode(ino)
        # Undo journaling rolls back by generation, so stale records never
        # clobber reused blocks: release the quarantine immediately.
        if self._quarantine:
            self.alloc.free(self._quarantine)
            self._quarantine = []

    # -- synchronous data path ----------------------------------------------------

    def _do_write(self, of: OpenFile, data: bytes, offset: int) -> int:
        with self._op_tx():  # size/extent updates commit as one transaction
            n = super()._do_write(of, data, offset)
        # PMFS is synchronous: the data is durable before write() returns.
        self.pm.sfence(category=Category.META_IO)
        self.dirty_data.pop(of.ino, None)
        return n

    def fsync(self, fd: int) -> None:
        # Nothing left to do: data and metadata are already durable.
        self._trap()
        self.fdt.get(fd)

    def sync(self) -> None:
        pass

    def ioctl_relink(self, src_fd: int, src_off: int, dst_fd: int,
                     dst_off: int, size: int) -> None:
        raise InvalidArgumentFSError("relink is an ext4-DAX patch; PMFS lacks it")
