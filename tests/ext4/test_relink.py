"""Unit tests for the relink ioctl (the paper's 500-line kernel patch)."""

import pytest

from repro.ext4.filesystem import Ext4DaxFS
from repro.kernel.machine import Machine
from repro.pmem.constants import BLOCK_SIZE
from repro.posix import flags as F


@pytest.fixture
def fs():
    return Ext4DaxFS.format(Machine(96 * 1024 * 1024))


def make_file(fs, path, data):
    fd = fs.open(path, F.O_CREAT | F.O_RDWR)
    if data:
        fs.write(fd, data)
    return fd


class TestBlockAlignedRelink:
    def test_append_case_moves_blocks_without_copy(self, fs):
        staging = make_file(fs, "/staging", b"S" * 4 * BLOCK_SIZE)
        target = make_file(fs, "/target", b"")
        staging_phys = fs.inodes[fs.fdt.get(staging).ino].extmap.lookup_block(0)

        data_before = fs.pm.stats.data_bytes_written
        fs.ioctl_relink(staging, 0, target, 0, 4 * BLOCK_SIZE)
        data_moved = fs.pm.stats.data_bytes_written - data_before

        assert data_moved == 0  # metadata-only: no data copied
        tino = fs.fdt.get(target).ino
        assert fs.inodes[tino].size == 4 * BLOCK_SIZE
        assert fs.inodes[tino].extmap.lookup_block(0) == staging_phys
        assert fs.pread(target, 4, 0) == b"SSSS"

    def test_source_range_becomes_hole(self, fs):
        staging = make_file(fs, "/st", b"S" * 2 * BLOCK_SIZE)
        target = make_file(fs, "/tg", b"")
        fs.ioctl_relink(staging, 0, target, 0, 2 * BLOCK_SIZE)
        sino = fs.fdt.get(staging).ino
        assert fs.inodes[sino].extmap.lookup_block(0) is None
        assert fs.inodes[sino].extmap.lookup_block(1) is None

    def test_replaced_destination_blocks_are_freed(self, fs):
        staging = make_file(fs, "/st2", b"N" * BLOCK_SIZE)
        target = make_file(fs, "/tg2", b"O" * BLOCK_SIZE)
        free_before = fs.alloc.free_blocks
        fs.ioctl_relink(staging, 0, target, 0, BLOCK_SIZE)
        # The old dst block is quarantined until the journal resets.
        assert fs.alloc.free_blocks == free_before
        fs.journal._checkpoint()
        assert fs.alloc.free_blocks == free_before + 1
        assert fs.pread(target, BLOCK_SIZE, 0) == b"N" * BLOCK_SIZE

    def test_relink_into_middle_of_file(self, fs):
        staging = make_file(fs, "/st3", b"X" * BLOCK_SIZE)
        target = make_file(fs, "/tg3", b"o" * 3 * BLOCK_SIZE)
        fs.ioctl_relink(staging, 0, target, BLOCK_SIZE, BLOCK_SIZE)
        data = fs.pread(target, 3 * BLOCK_SIZE, 0)
        assert data[:BLOCK_SIZE] == b"o" * BLOCK_SIZE
        assert data[BLOCK_SIZE : 2 * BLOCK_SIZE] == b"X" * BLOCK_SIZE
        assert data[2 * BLOCK_SIZE :] == b"o" * BLOCK_SIZE

    def test_relink_is_atomic_across_crash(self, fs):
        staging = make_file(fs, "/st4", b"A" * 2 * BLOCK_SIZE)
        fs.fsync(staging)
        target = make_file(fs, "/tg4", b"")
        fs.ioctl_relink(staging, 0, target, 0, 2 * BLOCK_SIZE)
        fs.machine.crash()
        fs2 = Ext4DaxFS.mount(fs.machine)
        fd = fs2.open("/tg4", F.O_RDONLY)
        assert fs2.fstat(fd).st_size == 2 * BLOCK_SIZE
        assert fs2.pread(fd, 2 * BLOCK_SIZE, 0) == b"A" * 2 * BLOCK_SIZE


class TestPartialBlockRelink:
    def test_trailing_partial_block_swapped_at_eof(self, fs):
        staging = make_file(fs, "/p1", b"P" * (BLOCK_SIZE + 100))
        target = make_file(fs, "/t1", b"")
        fs.ioctl_relink(staging, 0, target, 0, BLOCK_SIZE + 100)
        assert fs.fstat(target).st_size == BLOCK_SIZE + 100
        assert fs.pread(target, BLOCK_SIZE + 100, 0) == b"P" * (BLOCK_SIZE + 100)

    def test_mid_block_phase_head_copy(self, fs):
        # Target ends mid-block; staged data starts at matching phase.
        target = make_file(fs, "/t2", b"t" * 100)
        staging = make_file(fs, "/p2", b"")
        fs.pwrite(staging, b"s" * (2 * BLOCK_SIZE), 100)  # phase = 100
        fs.ioctl_relink(staging, 100, target, 100, 2 * BLOCK_SIZE)
        data = fs.pread(target, 100 + 2 * BLOCK_SIZE, 0)
        assert data[:100] == b"t" * 100
        assert data[100:] == b"s" * (2 * BLOCK_SIZE)

    def test_tail_copy_when_destination_has_live_data_beyond(self, fs):
        target = make_file(fs, "/t3", b"z" * (3 * BLOCK_SIZE))
        staging = make_file(fs, "/p3", b"y" * (BLOCK_SIZE + 10))
        fs.ioctl_relink(staging, 0, target, 0, BLOCK_SIZE + 10)
        data = fs.pread(target, 3 * BLOCK_SIZE, 0)
        assert data[: BLOCK_SIZE + 10] == b"y" * (BLOCK_SIZE + 10)
        # Bytes after the relinked range in the same block must be intact.
        assert data[BLOCK_SIZE + 10 :] == b"z" * (2 * BLOCK_SIZE - 10)

    def test_mismatched_phase_falls_back_to_copy(self, fs):
        staging = make_file(fs, "/p4", b"c" * (2 * BLOCK_SIZE))
        target = make_file(fs, "/t4", b"d" * 50)
        data_before = fs.pm.stats.data_bytes_written
        fs.ioctl_relink(staging, 0, target, 50, BLOCK_SIZE)
        assert fs.pm.stats.data_bytes_written > data_before  # real copy
        out = fs.pread(target, 50 + BLOCK_SIZE, 0)
        assert out == b"d" * 50 + b"c" * BLOCK_SIZE


class TestRelinkEdgeCases:
    def test_zero_size_is_noop(self, fs):
        a = make_file(fs, "/za", b"x" * BLOCK_SIZE)
        b = make_file(fs, "/zb", b"")
        fs.ioctl_relink(a, 0, b, 0, 0)
        assert fs.fstat(b).st_size == 0

    def test_source_hole_falls_back_to_copy(self, fs):
        staging = make_file(fs, "/ha", b"")
        fs.pwrite(staging, b"e" * BLOCK_SIZE, 2 * BLOCK_SIZE)  # blocks 0-1 holes
        target = make_file(fs, "/hb", b"")
        fs.ioctl_relink(staging, 0, target, 0, 3 * BLOCK_SIZE)
        out = fs.pread(target, 3 * BLOCK_SIZE, 0)
        assert out == b"\x00" * 2 * BLOCK_SIZE + b"e" * BLOCK_SIZE

    def test_relink_on_directory_rejected(self, fs):
        from repro.posix.errors import IsADirectoryFSError

        fs.mkdir("/dir")
        a = make_file(fs, "/ra", b"x" * BLOCK_SIZE)
        # Can't open a dir for writing, so fabricate via internal table.
        dir_of = fs.fdt.install(fs._resolve("/dir"), F.O_RDONLY, "/dir")
        with pytest.raises(IsADirectoryFSError):
            fs.ioctl_relink(a, 0, dir_of.fd, 0, BLOCK_SIZE)

    def test_relink_commits_pending_metadata(self, fs):
        """relink's journal commit also covers the running transaction."""
        a = make_file(fs, "/ca", b"q" * BLOCK_SIZE)
        b = make_file(fs, "/cb", b"")
        fs.ioctl_relink(a, 0, b, 0, BLOCK_SIZE)
        fs.machine.crash()
        fs2 = Ext4DaxFS.mount(fs.machine)
        # Both creates were in the running txn the relink committed.
        assert fs2.exists("/ca") and fs2.exists("/cb")


class TestBlocksGivenUpInTheRunningTransaction:
    """A block a relink or a punch unmaps stays mapped in the durable inode
    until the running transaction commits.  If it is handed out again and
    written first, a crash before the commit leaves the old file reading
    the new owner's bytes.  Each test makes the given-up block the lowest
    free one, so a one-block allocation without a goal (first fit) would
    take it, then crashes after a fence but before the commit."""

    def _one_block(self, fs, path, fill):
        # Logical block 1 with no block before it: a first-fit allocation.
        fd = make_file(fs, path, b"")
        fs.pwrite(fd, fill * BLOCK_SIZE, BLOCK_SIZE)
        return fd, fs.inodes[fs.fdt.get(fd).ino].extmap.lookup_block(1)

    def _reuse_then_crash(self, fs, given_up):
        fd, block = self._one_block(fs, "/new", b"\x33")
        assert block != given_up
        fs.pm.sfence()  # e.g. the commit's own first fence
        fs.machine.crash()
        return Ext4DaxFS.mount(fs.machine)

    def test_punched_block_is_not_reused_before_the_commit(self, fs):
        staging, block = self._one_block(fs, "/staging", b"\x22")
        fs.fsync(staging)
        fs.punch_hole(staging, BLOCK_SIZE, BLOCK_SIZE)
        fs2 = self._reuse_then_crash(fs, block)
        fd = fs2.open("/staging", F.O_RDONLY)
        assert fs2.pread(fd, BLOCK_SIZE, BLOCK_SIZE) == b"\x22" * BLOCK_SIZE

    def test_replaced_block_is_not_reused_before_the_commit(self, fs):
        target, block = self._one_block(fs, "/target", b"\x11")
        staging, _ = self._one_block(fs, "/staging", b"\x22")
        fs.fsync(target)
        fs.fsync(staging)
        fs.ioctl_relink(staging, BLOCK_SIZE, target, BLOCK_SIZE, BLOCK_SIZE,
                        commit=False)
        fs2 = self._reuse_then_crash(fs, block)
        fd = fs2.open("/target", F.O_RDONLY)
        assert fs2.pread(fd, BLOCK_SIZE, BLOCK_SIZE) == b"\x11" * BLOCK_SIZE
