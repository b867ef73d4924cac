"""Unit tests for shared kernel FS plumbing."""

import pytest

from repro.factory import make_filesystem
from repro.kernel.fsbase import FDTable, OpenFile, new_offset
from repro.obs import Observer
from repro.posix import flags as F
from repro.posix.errors import (BadFileDescriptorError,
                                InvalidArgumentFSError, IOFSError)

#: Every kind whose descriptor syscalls come from ``KernelFS``.
KERNEL_KINDS = ["ext4dax", "pmfs", "nova-strict", "nova-relaxed", "strata"]
SMALL_PM = 96 * 1024 * 1024


class TestFDTable:
    def test_install_and_get(self):
        t = FDTable()
        of = t.install(ino=5, flags=F.O_RDWR, path="/x")
        assert t.get(of.fd) is of
        assert of.fd >= 3

    def test_fds_are_unique(self):
        t = FDTable()
        fds = {t.install(1, 0).fd for _ in range(100)}
        assert len(fds) == 100

    def test_get_unknown_raises(self):
        with pytest.raises(BadFileDescriptorError):
            FDTable().get(99)

    def test_remove(self):
        t = FDTable()
        of = t.install(1, 0)
        t.remove(of.fd)
        with pytest.raises(BadFileDescriptorError):
            t.get(of.fd)

    def test_open_count_per_inode(self):
        t = FDTable()
        t.install(7, 0)
        b = t.install(7, 0)
        t.install(8, 0)
        assert t.open_count(7) == 2
        t.remove(b.fd)
        assert t.open_count(7) == 1

    def test_len(self):
        t = FDTable()
        t.install(1, 0)
        t.install(2, 0)
        assert len(t) == 2


class TestLseekMath:
    def make(self, offset=0):
        return OpenFile(fd=3, ino=1, flags=F.O_RDWR, offset=offset)

    def test_seek_set(self):
        assert new_offset(self.make(), 100, 10, F.SEEK_SET) == 10

    def test_seek_cur(self):
        assert new_offset(self.make(offset=50), 100, 10, F.SEEK_CUR) == 60

    def test_seek_end(self):
        assert new_offset(self.make(), 100, -10, F.SEEK_END) == 90

    def test_seek_past_end_allowed(self):
        assert new_offset(self.make(), 100, 500, F.SEEK_SET) == 500

    def test_negative_result_rejected(self):
        with pytest.raises(InvalidArgumentFSError):
            new_offset(self.make(), 100, -1, F.SEEK_SET)

    def test_bad_whence(self):
        with pytest.raises(InvalidArgumentFSError):
            new_offset(self.make(), 100, 0, 9)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
class TestSharedSyscallBoundary:
    """The syscalls ``KernelFS`` defines keep the ``FileSystemAPI`` wrapper:
    a ``<SPAN_PREFIX>.<name>`` span and the PMError-to-EIO translation."""

    def test_each_shared_syscall_opens_its_span(self, kind):
        machine, fs = make_filesystem(kind, pm_size=SMALL_PM,
                                      observer=Observer())
        fd = fs.open("/f", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"abc")
        fs.pwrite(fd, b"def", 3)
        assert fs.lseek(fd, 0, F.SEEK_SET) == 0
        assert fs.read(fd, 3) == b"abc"
        assert fs.pread(fd, 3, 3) == b"def"
        names = {span.name for span in machine.obs.events}
        for call in ("read", "pread", "write", "pwrite", "lseek"):
            assert f"{fs.SPAN_PREFIX}.{call}" in names, call

    def test_sequential_read_of_poisoned_media_raises_eio(self, kind):
        machine, fs = make_filesystem(kind, pm_size=SMALL_PM)
        fd = fs.open("/victim", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"x" * 8192)
        fs.fsync(fd)
        fs.lseek(fd, 0, F.SEEK_SET)
        machine.faults.poison(0, machine.pm.size)
        with pytest.raises(IOFSError) as exc_info:
            fs.read(fd, 8192)
        assert exc_info.value.errno_name == "EIO"
        machine.faults.clear()
        # The failed read did not move the offset.
        assert fs.read(fd, 8192) == b"x" * 8192
