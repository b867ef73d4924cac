"""Edge cases in SplitFS staging: overlays, truncation, O_TRUNC, reuse."""

import pytest

from repro.core import Mode, SplitFS, SplitFSConfig, recover
from repro.ext4.filesystem import Ext4DaxFS
from repro.kernel.machine import Machine
from repro.pmem.constants import BLOCK_SIZE
from repro.posix import flags as F

PM = 128 * 1024 * 1024


def make(mode=Mode.POSIX, **cfg):
    m = Machine(PM)
    kfs = Ext4DaxFS.format(m)
    return m, kfs, SplitFS(kfs, mode=mode,
                           config=SplitFSConfig(**cfg) if cfg else None)


class TestStagedOverlays:
    def test_overwrite_of_staged_append_before_fsync(self):
        _, _, fs = make()
        fd = fs.open("/f", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"A" * 3000)  # staged, committed size still 0
        fs.pwrite(fd, b"B" * 500, 1000)  # overwrites staged bytes
        assert fs.pread(fd, 3000, 0) == b"A" * 1000 + b"B" * 500 + b"A" * 1500
        fs.fsync(fd)
        assert fs.pread(fd, 3000, 0) == b"A" * 1000 + b"B" * 500 + b"A" * 1500

    def test_multiple_overlapping_staged_overwrites_strict(self):
        _, _, fs = make(Mode.STRICT)
        fd = fs.open("/f", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"0" * (2 * BLOCK_SIZE))
        fs.fsync(fd)
        fs.pwrite(fd, b"1" * 1000, 0)
        fs.pwrite(fd, b"2" * 1000, 500)
        fs.pwrite(fd, b"3" * 100, 700)
        expected = b"1" * 500 + b"2" * 200 + b"3" * 100 + b"2" * 700 + b"0" * (
            2 * BLOCK_SIZE - 1500)
        assert fs.pread(fd, 2 * BLOCK_SIZE, 0) == expected
        fs.fsync(fd)
        assert fs.pread(fd, 2 * BLOCK_SIZE, 0) == expected

    def test_append_gap_leaves_zeros(self):
        _, _, fs = make()
        fd = fs.open("/g", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"head")
        fs.pwrite(fd, b"tail", 10_000)  # gap 4..10000 never written
        fs.fsync(fd)
        data = fs.pread(fd, 10_004, 0)
        assert data[:4] == b"head"
        assert data[4:10_000].count(0) == 9996
        assert data[10_000:] == b"tail"

    def test_read_spanning_committed_and_staged(self):
        _, _, fs = make()
        fd = fs.open("/s", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"C" * 5000)
        fs.fsync(fd)  # committed
        fs.write(fd, b"S" * 5000)  # staged
        assert fs.pread(fd, 10_000, 0) == b"C" * 5000 + b"S" * 5000
        assert fs.pread(fd, 2000, 4000) == b"C" * 1000 + b"S" * 1000


class TestTruncationInteractions:
    def test_truncate_discards_staged_beyond(self):
        _, kfs, fs = make()
        fd = fs.open("/t", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"K" * 1000)
        fs.fsync(fd)
        fs.write(fd, b"L" * 1000)  # staged at 1000..2000
        fs.ftruncate(fd, 500)
        assert fs.fstat(fd).st_size == 500
        assert fs.pread(fd, 1000, 0) == b"K" * 500

    def test_truncate_below_staged_then_write(self):
        _, _, fs = make()
        fd = fs.open("/t2", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"M" * 2000)
        fs.ftruncate(fd, 0)
        fs.pwrite(fd, b"N" * 100, 0)  # the fd offset itself stays at 2000
        fs.fsync(fd)
        assert fs.read_file("/t2") == b"N" * 100

    def test_o_trunc_discards_staged_state(self):
        _, _, fs = make()
        fd = fs.open("/t3", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"O" * 4000)
        fd2 = fs.open("/t3", F.O_RDWR | F.O_TRUNC)
        assert fs.fstat(fd2).st_size == 0
        fs.write(fd2, b"P" * 10)
        fs.fsync(fd2)
        assert fs.read_file("/t3") == b"P" * 10


class TestStagingReuse:
    def test_many_fsync_cycles_recycle_staging(self):
        m, kfs, fs = make(staging_count=2, staging_size=1 << 20,
                          carve_chunk=64 * 1024)
        fd = fs.open("/r", F.O_CREAT | F.O_RDWR)
        for cycle in range(200):
            fs.write(fd, bytes([cycle % 250]) * 4096)
            fs.fsync(fd)
        # Retired staging files get recycled, not hoarded.
        assert len(fs.staging.retired) <= 2
        assert fs.fstat(fd).st_size == 200 * 4096
        assert fs.pread(fd, 4096, 150 * 4096) == bytes([150]) * 4096


class TestMultiInstanceRecovery:
    def test_two_strict_instances_both_replayed(self):
        m = Machine(PM)
        kfs = Ext4DaxFS.format(m)
        a = SplitFS(kfs, mode=Mode.STRICT)
        b = SplitFS(kfs, mode=Mode.STRICT)
        fda = a.open("/from-a", F.O_CREAT | F.O_RDWR)
        fdb = b.open("/from-b", F.O_CREAT | F.O_RDWR)
        a.write(fda, b"alpha" * 100)
        b.write(fdb, b"bravo" * 100)
        m.crash()
        kfs2, report = recover(m, strict=True)
        assert kfs2.read_file("/from-a") == b"alpha" * 100
        assert kfs2.read_file("/from-b") == b"bravo" * 100
        assert report.data_entries_replayed >= 2

    def test_strict_and_posix_instances_coexist_at_recovery(self):
        m = Machine(PM)
        kfs = Ext4DaxFS.format(m)
        strict = SplitFS(kfs, mode=Mode.STRICT)
        posix = SplitFS(kfs, mode=Mode.POSIX)
        fds = strict.open("/s", F.O_CREAT | F.O_RDWR)
        fdp = posix.open("/p", F.O_CREAT | F.O_RDWR)
        strict.write(fds, b"survives")
        posix.write(fdp, b"lost")
        m.crash()
        kfs2, _ = recover(m, strict=True)
        assert kfs2.read_file("/s") == b"survives"
        # POSIX-mode staged append is (correctly) not recoverable.
        if kfs2.exists("/p"):
            assert kfs2.stat("/p").st_size == 0


class TestCostAccountingShapes:
    def test_splitfs_read_avoids_the_trap(self):
        from repro.pmem import constants as C

        m, kfs, fs = make()
        fd = fs.open("/acct", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"x" * 8192)
        fs.fsync(fd)
        fs.pread(fd, 4096, 0)  # warm mapping
        with m.clock.measure() as acct:
            fs.pread(fd, 4096, 4096)
        assert acct.cpu_ns < C.KERNEL_TRAP_NS * 1.5

    def test_ext4_read_pays_exactly_one_trap(self):
        from repro.pmem import constants as C

        m = Machine(PM)
        kfs = Ext4DaxFS.format(m)
        fd = kfs.open("/acct", F.O_CREAT | F.O_RDWR)
        kfs.write(fd, b"x" * 8192)
        with m.clock.measure() as acct:
            kfs.pread(fd, 4096, 0)
        assert acct.cpu_ns >= C.KERNEL_TRAP_NS

    def test_append_data_time_is_671ns(self):
        import pytest as _pytest

        m, kfs, fs = make()
        fd = fs.open("/d", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"w" * 4096)  # warm carve/mapping
        with m.clock.measure() as acct:
            fs.write(fd, b"w" * 4096)
        assert acct.data_ns == _pytest.approx(671, rel=0.02)
