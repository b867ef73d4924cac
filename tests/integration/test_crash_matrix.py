"""Crash-consistency guarantee matrix (paper Table 3).

For each system we crash at chosen points and assert exactly the guarantees
its mode promises — synchronous durability, atomicity, and metadata
consistency — using each file system's own mount/recovery path.
"""

import pytest

from repro.core import Mode, SplitFS, recover
from repro.ext4.filesystem import Ext4DaxFS
from repro.kernel.machine import Machine
from repro.nova.filesystem import NovaFS
from repro.pmem.constants import BLOCK_SIZE
from repro.pmfs.filesystem import PmfsFS
from repro.posix import flags as F
from repro.strata.filesystem import StrataFS

PM = 96 * 1024 * 1024


def fresh(kind):
    m = Machine(PM)
    if kind == "ext4dax":
        return m, Ext4DaxFS.format(m)
    if kind == "pmfs":
        return m, PmfsFS.format(m)
    if kind == "nova-strict":
        return m, NovaFS.format(m, strict=True)
    if kind == "nova-relaxed":
        return m, NovaFS.format(m, strict=False)
    if kind == "strata":
        return m, StrataFS.format(m)
    kfs = Ext4DaxFS.format(m)
    mode = {"splitfs-posix": Mode.POSIX, "splitfs-sync": Mode.SYNC,
            "splitfs-strict": Mode.STRICT}[kind]
    return m, SplitFS(kfs, mode=mode)


def remount(machine, kind):
    from repro.ext4.fsck import assert_clean

    if kind == "ext4dax":
        fs = Ext4DaxFS.mount(machine)
        assert_clean(fs)
        return fs
    if kind == "pmfs":
        return PmfsFS.mount(machine)
    if kind == "nova-strict":
        return NovaFS.mount(machine, strict=True)
    if kind == "nova-relaxed":
        return NovaFS.mount(machine, strict=False)
    if kind == "strata":
        return StrataFS.mount(machine)
    strict = kind == "splitfs-strict"
    kfs, _ = recover(machine, strict=strict)
    assert_clean(kfs)  # the recovered image must be structurally sound
    return kfs


ALL = ["ext4dax", "pmfs", "nova-strict", "nova-relaxed", "strata",
       "splitfs-posix", "splitfs-sync", "splitfs-strict"]
SYNC_DATA = ["pmfs", "nova-strict", "nova-relaxed", "strata", "splitfs-strict"]
ATOMIC_DATA = ["nova-strict", "strata", "splitfs-strict"]
NOT_SYNC = ["ext4dax", "splitfs-posix"]


class TestFsyncedDataSurvives:
    """Every system: data followed by fsync survives a crash."""

    @pytest.mark.parametrize("kind", ALL)
    def test_fsynced_appends_survive(self, kind):
        m, fs = fresh(kind)
        fd = fs.open("/f", F.O_CREAT | F.O_RDWR)
        for i in range(8):
            fs.write(fd, bytes([i + 1]) * BLOCK_SIZE)
        fs.fsync(fd)
        m.crash()
        after = remount(m, kind)
        fd = after.open("/f", F.O_RDONLY)
        assert after.fstat(fd).st_size == 8 * BLOCK_SIZE
        for i in range(8):
            assert after.pread(fd, BLOCK_SIZE, i * BLOCK_SIZE) == bytes([i + 1]) * BLOCK_SIZE

    @pytest.mark.parametrize("kind", ALL)
    def test_fsynced_create_survives(self, kind):
        m, fs = fresh(kind)
        fd = fs.open("/created", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"x")
        fs.fsync(fd)
        m.crash()
        after = remount(m, kind)
        assert after.exists("/created")

    @pytest.mark.parametrize("kind", ALL)
    def test_fsynced_hole_fill_survives(self, kind):
        """A write inside EOF into a hole allocates a block that merges into
        its neighbour's extent, so neither the size nor the extent count
        changes; the extent-map update must still be journaled."""
        m, fs = fresh(kind)
        fd = fs.open("/h", F.O_CREAT | F.O_RDWR)
        fs.pwrite(fd, b"A" * BLOCK_SIZE, 0)
        fs.ftruncate(fd, 3 * BLOCK_SIZE)
        fs.fsync(fd)
        fs.pwrite(fd, b"B" * BLOCK_SIZE, BLOCK_SIZE)
        fs.fsync(fd)
        m.crash()
        after = remount(m, kind)
        fd = after.open("/h", F.O_RDONLY)
        assert after.pread(fd, 3 * BLOCK_SIZE, 0) == (
            b"A" * BLOCK_SIZE + b"B" * BLOCK_SIZE + bytes(BLOCK_SIZE))


class TestSynchronousData:
    """Table 3 'sync data ops': durable without fsync."""

    @pytest.mark.parametrize("kind", SYNC_DATA)
    def test_unsynced_writes_survive(self, kind):
        m, fs = fresh(kind)
        fd = fs.open("/s", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"K" * BLOCK_SIZE)
        m.crash()
        after = remount(m, kind)
        fd = after.open("/s", F.O_RDONLY)
        assert after.pread(fd, BLOCK_SIZE, 0) == b"K" * BLOCK_SIZE

    @pytest.mark.parametrize("kind", NOT_SYNC)
    def test_posix_mode_loses_unsynced_appends(self, kind):
        m, fs = fresh(kind)
        fd = fs.open("/l", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"gone" * 1024)
        m.crash()
        after = remount(m, kind)
        # Either the file is gone entirely or it is empty — but the appended
        # data must not be claimed durable.
        if after.exists("/l"):
            assert after.stat("/l").st_size == 0

    def test_sync_mode_overwrites_survive(self):
        """SplitFS-sync: in-place overwrites are durable at return."""
        m, fs = fresh("splitfs-sync")
        fd = fs.open("/ow", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"0" * 2 * BLOCK_SIZE)
        fs.fsync(fd)  # commit the base file
        fs.pwrite(fd, b"NEW!", 100)  # no fsync
        m.crash()
        after = remount(m, "splitfs-sync")
        fd = after.open("/ow", F.O_RDONLY)
        assert after.pread(fd, 4, 100) == b"NEW!"


class TestAtomicData:
    """Table 3 'atomic data ops': overwrites are all-or-nothing."""

    @pytest.mark.parametrize("kind", ATOMIC_DATA)
    def test_overwrite_is_all_or_nothing(self, kind):
        m, fs = fresh(kind)
        fd = fs.open("/a", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"O" * (2 * BLOCK_SIZE))
        fs.fsync(fd)
        # Overwrite spanning two blocks, then crash *without* fsync.
        fs.pwrite(fd, b"N" * BLOCK_SIZE, BLOCK_SIZE // 2)
        m.crash()
        after = remount(m, kind)
        fd = after.open("/a", F.O_RDONLY)
        data = after.pread(fd, 2 * BLOCK_SIZE, 0)
        old = b"O" * 2 * BLOCK_SIZE
        new = (b"O" * (BLOCK_SIZE // 2) + b"N" * BLOCK_SIZE
               + b"O" * (BLOCK_SIZE // 2))
        assert data in (old, new), "overwrite tore across the crash"

    @pytest.mark.parametrize("kind", ALL)
    def test_appends_plus_fsync_are_atomic(self, kind):
        """Paper Section 3.2: in SplitFS appends are atomic in *all* modes;
        for other systems we only require no torn garbage within committed
        size."""
        m, fs = fresh(kind)
        fd = fs.open("/ap", F.O_CREAT | F.O_RDWR)
        for i in range(4):
            fs.write(fd, bytes([0x40 + i]) * BLOCK_SIZE)
        fs.fsync(fd)
        m.crash()
        after = remount(m, kind)
        fd = after.open("/ap", F.O_RDONLY)
        size = after.fstat(fd).st_size
        assert size == 4 * BLOCK_SIZE
        data = after.pread(fd, size, 0)
        for i in range(4):
            block = data[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE]
            assert block == bytes([0x40 + i]) * BLOCK_SIZE


class TestMetadataConsistency:
    """All systems: the namespace is consistent after any crash."""

    @pytest.mark.parametrize("kind", ALL)
    def test_crash_mid_worklist_leaves_mountable_fs(self, kind):
        m, fs = fresh(kind)
        fs.mkdir("/w")
        for i in range(30):
            fd = fs.open(f"/w/f{i}", F.O_CREAT | F.O_RDWR)
            fs.write(fd, bytes([i]) * 512)
            if i % 3 == 0:
                fs.fsync(fd)
            fs.close(fd)
            if i % 7 == 0:
                fs.rename(f"/w/f{i}", f"/w/r{i}")
        m.crash()
        after = remount(m, kind)  # must not raise
        names = after.listdir("/")
        assert isinstance(names, list)
        # every listed file must be statable and readable
        if after.exists("/w"):
            for name in after.listdir("/w"):
                st = after.stat(f"/w/{name}")
                fd = after.open(f"/w/{name}", F.O_RDONLY)
                data = after.pread(fd, st.st_size, 0)
                assert len(data) == st.st_size

    @pytest.mark.parametrize("kind", ALL)
    def test_unlinked_file_stays_unlinked_if_synced(self, kind):
        m, fs = fresh(kind)
        fs.write_file("/doomed", b"bye")
        fs.unlink("/doomed")
        # Force a metadata sync point where the system has one.
        if hasattr(fs, "sync"):
            fs.sync()
        elif hasattr(fs, "kfs"):
            fs.kfs.sync()
        m.crash()
        after = remount(m, kind)
        assert not after.exists("/doomed")


class TestStrictSynchronousMetadata:
    def test_strict_create_survives_without_fsync(self):
        m, fs = fresh("splitfs-strict")
        fd = fs.open("/meta", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"m" * 100)
        m.crash()
        after = remount(m, "splitfs-strict")
        assert after.exists("/meta")
        assert after.stat("/meta").st_size == 100

    def test_strict_unsynced_appends_recovered_from_log(self):
        m, fs = fresh("splitfs-strict")
        fd = fs.open("/logged", F.O_CREAT | F.O_RDWR)
        for i in range(16):
            fs.write(fd, bytes([i + 1]) * 1000)
        m.crash()
        kfs, report = recover(m, strict=True)
        assert report.data_entries_replayed >= 1
        fd = kfs.open("/logged", F.O_RDONLY)
        assert kfs.fstat(fd).st_size == 16000
        assert kfs.pread(fd, 1000, 5000) == bytes([6]) * 1000

    def test_replay_is_idempotent_across_double_crash(self):
        m, fs = fresh("splitfs-strict")
        fd = fs.open("/twice", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"T" * 5000)
        m.crash()
        recover(m, strict=True)
        m.crash()  # crash again right after recovery
        kfs, _ = recover(m, strict=True)
        fd = kfs.open("/twice", F.O_RDONLY)
        assert kfs.pread(fd, 5000, 0) == b"T" * 5000
