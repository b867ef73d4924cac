"""Graceful degradation to the kernel path and hysteresis re-promotion.

When the staging pool cannot be refilled (device nearly full), SplitFS
with the RAS layer must not fail application writes: it retries with an
early relink, then routes data ops through the kernel ext4 path, and
returns to U-Split staging once space frees up.  Without the RAS layer the
historical behaviour — ENOSPC surfaces — is preserved.
"""

import pytest

from repro.core import Mode, SplitFS, SplitFSConfig, recover
from repro.ext4.filesystem import Ext4Config, Ext4DaxFS
from repro.ext4.fsck import assert_clean
from repro.kernel.machine import Machine
from repro.posix import flags as F
from repro.posix.errors import NoSpaceFSError

BLOCK = 4096
CHUNK = 65536
PM = 48 * 1024 * 1024


def _tight_splitfs(machine, **cfg_overrides):
    """SplitFS on a small device with a single 4 MB staging file, so a
    ~41 MB fill exhausts staging refills well before the device is full."""
    kfs = Ext4DaxFS.format(machine, Ext4Config(journal_blocks=256,
                                               max_inodes=256))
    cfg = SplitFSConfig(staging_count=1, staging_size=4 * 1024 * 1024,
                        **cfg_overrides)
    return SplitFS(kfs, Mode.POSIX, cfg)


def _fill(fs, fd, count, size=CHUNK, offset=0):
    for _ in range(count):
        fs.pwrite(fd, b"d" * size, offset)
        offset += size
    return offset


def _fill_until_degraded(fs, fd, offset=0):
    """Append until the FS reports degraded mode (bounded; no FSError may
    escape on the way there)."""
    for _ in range(900):
        if fs.degraded:
            return offset
        fs.pwrite(fd, b"d" * BLOCK, offset)
        offset += BLOCK
    raise AssertionError("never entered degraded mode")


class TestEnterDegraded:
    def test_staging_exhaustion_completes_with_zero_failures(self):
        machine = Machine(PM)
        machine.enable_ras()
        fs = _tight_splitfs(machine)
        fd = fs.open("/big", F.O_CREAT | F.O_RDWR)
        offset = _fill(fs, fd, 655)  # no FSError may escape
        offset = _fill_until_degraded(fs, fd, offset)
        assert fs.rstats.degraded_entries == 1
        assert fs.rstats.enospc_retries >= 1
        assert fs.rstats.degraded_ops >= 1
        # A few more ops get served through the kernel path.
        offset = _fill(fs, fd, 20, size=BLOCK, offset=offset)
        assert fs.rstats.degraded_ops >= 20
        # Reads see one coherent file across the staged and kernel parts.
        assert fs.pread(fd, CHUNK, 0) == b"d" * CHUNK
        assert fs.pread(fd, CHUNK, offset - CHUNK) == b"d" * CHUNK
        assert fs.stat("/big").st_size == offset

    def test_without_ras_enospc_still_surfaces(self):
        machine = Machine(PM)
        fs = _tight_splitfs(machine)
        fd = fs.open("/big", F.O_CREAT | F.O_RDWR)
        with pytest.raises(NoSpaceFSError):
            _fill(fs, fd, 700)
        assert not fs.degraded


class TestRepromotion:
    def test_unlink_frees_space_and_repromotes(self):
        machine = Machine(PM)
        machine.enable_ras()
        fs = _tight_splitfs(machine, repromote_hysteresis_ns=0.0)
        ffd = fs.open("/filler", F.O_CREAT | F.O_RDWR)
        _fill(fs, ffd, 128)  # 8 MB to give back later
        fs.fsync(ffd)
        fs.close(ffd)
        fd = fs.open("/big", F.O_CREAT | F.O_RDWR)
        offset = 0
        for _ in range(600):
            if fs.degraded:
                break
            fs.pwrite(fd, b"d" * CHUNK, offset)
            offset += CHUNK
        assert fs.degraded
        fs.unlink("/filler")
        for _ in range(64):
            fs.pwrite(fd, b"d" * CHUNK, offset)
            offset += CHUNK
            if not fs.degraded:
                break
        assert not fs.degraded
        assert fs.rstats.degraded_exits == 1
        # Post-repromotion writes stage again and read back correctly.
        assert fs.pread(fd, CHUNK, offset - CHUNK) == b"d" * CHUNK

    def test_hysteresis_blocks_immediate_repromotion(self):
        machine = Machine(PM)
        machine.enable_ras()
        fs = _tight_splitfs(machine, repromote_hysteresis_ns=1e18)
        ffd = fs.open("/filler", F.O_CREAT | F.O_RDWR)
        _fill(fs, ffd, 128)
        fs.fsync(ffd)
        fs.close(ffd)
        fd = fs.open("/big", F.O_CREAT | F.O_RDWR)
        offset = 0
        for _ in range(600):
            if fs.degraded:
                break
            fs.pwrite(fd, b"d" * CHUNK, offset)
            offset += CHUNK
        assert fs.degraded
        fs.unlink("/filler")  # plenty of space, but inside the window
        for _ in range(16):
            fs.pwrite(fd, b"d" * BLOCK, offset)
            offset += BLOCK
        assert fs.degraded
        assert fs.rstats.degraded_exits == 0


class TestCrashWhileDegraded:
    def test_recovery_replays_through_degraded_state(self):
        machine = Machine(PM)
        machine.enable_ras()
        fs = _tight_splitfs(machine)
        fd = fs.open("/big", F.O_CREAT | F.O_RDWR)
        offset = _fill(fs, fd, 655)
        offset = _fill_until_degraded(fs, fd, offset)
        offset = _fill(fs, fd, 20, size=BLOCK, offset=offset)
        fs.fsync(fd)
        machine.crash()
        kfs, _report = recover(machine)
        assert_clean(kfs)
        assert kfs.stat("/big").st_size == offset
        kfd = kfs.open("/big", F.O_RDONLY)
        assert kfs.pread(kfd, CHUNK, 0) == b"d" * CHUNK
        assert kfs.pread(kfd, CHUNK, offset - CHUNK) == b"d" * CHUNK
