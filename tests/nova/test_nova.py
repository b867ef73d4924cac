"""NOVA-specific behaviour: log structure, CoW, two-fence logging."""

import pytest

from repro.factory import make_filesystem, remount
from repro.kernel.machine import Machine
from repro.nova import log as L
from repro.nova.filesystem import NovaFS
from repro.pmem.constants import BLOCK_SIZE
from repro.posix import flags as F

PM = 96 * 1024 * 1024


@pytest.fixture
def strict():
    return NovaFS.format(Machine(PM), strict=True)


@pytest.fixture
def relaxed():
    return NovaFS.format(Machine(PM), strict=False)


class TestLogEntryCodec:
    def test_write_entry_round_trip(self):
        e = L.WriteEntry(ino=4, pgoff=10, nblocks=3, phys=500, new_size=53248)
        assert L.decode_entry(L.encode_entry(e)) == e

    def test_setattr_round_trip(self):
        e = L.SetattrEntry(ino=4, new_size=100)
        assert L.decode_entry(L.encode_entry(e)) == e

    def test_dirent_entries_round_trip(self):
        add = L.DirentAddEntry(child_ino=9, name="some-file.db")
        rm = L.DirentRmEntry(name="some-file.db")
        assert L.decode_entry(L.encode_entry(add)) == add
        assert L.decode_entry(L.encode_entry(rm)) == rm

    def test_name_length_limit(self):
        with pytest.raises(ValueError):
            L.encode_entry(L.DirentAddEntry(1, "x" * (L.MAX_NOVA_NAME + 1)))

    def test_next_pointer_round_trip(self):
        raw = L.encode_next_pointer(777)
        assert L.decode_next_pointer(raw) == 777
        assert L.decode_next_pointer(b"\x00" * 64) is None


class TestTwoFencesPerOp:
    def test_logged_write_issues_two_fences(self, strict):
        fd = strict.open("/f", F.O_CREAT | F.O_RDWR)
        strict.write(fd, b"w" * BLOCK_SIZE)  # warm up (log page alloc)
        before = strict.pm.stats.fences
        strict.write(fd, b"w" * BLOCK_SIZE)
        # Paper Section 3.3: NOVA writes >= 2 cache lines, 2 fences per op.
        assert strict.pm.stats.fences - before == 2

    def test_logged_write_touches_two_metadata_lines(self, strict):
        fd = strict.open("/f", F.O_CREAT | F.O_RDWR)
        strict.write(fd, b"w" * BLOCK_SIZE)
        before = strict.pm.stats.meta_bytes_written
        strict.write(fd, b"w" * BLOCK_SIZE)
        meta = strict.pm.stats.meta_bytes_written - before
        assert meta >= 128  # entry line + tail line


class TestCopyOnWrite:
    def test_strict_overwrite_moves_to_new_blocks(self, strict):
        fd = strict.open("/c", F.O_CREAT | F.O_RDWR)
        strict.write(fd, b"a" * BLOCK_SIZE)
        ino = strict.fdt.get(fd).ino
        old_phys = strict.inodes[ino].extmap.lookup_block(0)
        strict.pwrite(fd, b"b" * BLOCK_SIZE, 0)
        new_phys = strict.inodes[ino].extmap.lookup_block(0)
        assert new_phys != old_phys
        assert strict.pread(fd, 4, 0) == b"bbbb"

    def test_relaxed_overwrite_stays_in_place(self, relaxed):
        fd = relaxed.open("/c", F.O_CREAT | F.O_RDWR)
        relaxed.write(fd, b"a" * BLOCK_SIZE)
        ino = relaxed.fdt.get(fd).ino
        old_phys = relaxed.inodes[ino].extmap.lookup_block(0)
        relaxed.pwrite(fd, b"b" * BLOCK_SIZE, 0)
        assert relaxed.inodes[ino].extmap.lookup_block(0) == old_phys

    def test_cow_preserves_unwritten_block_parts(self, strict):
        fd = strict.open("/p", F.O_CREAT | F.O_RDWR)
        strict.write(fd, b"x" * BLOCK_SIZE)
        strict.pwrite(fd, b"MID", 1000)
        data = strict.pread(fd, BLOCK_SIZE, 0)
        assert data[:1000] == b"x" * 1000
        assert data[1000:1003] == b"MID"
        assert data[1003:] == b"x" * (BLOCK_SIZE - 1003)

    def test_cow_frees_old_blocks(self, strict):
        fd = strict.open("/fr", F.O_CREAT | F.O_RDWR)
        strict.write(fd, b"1" * (4 * BLOCK_SIZE))
        free_before = strict.alloc.free_blocks
        strict.pwrite(fd, b"2" * (4 * BLOCK_SIZE), 0)
        assert strict.alloc.free_blocks == free_before  # new alloc'd, old freed


class TestLogReplay:
    def test_log_spans_multiple_pages(self, strict):
        fd = strict.open("/many", F.O_CREAT | F.O_RDWR)
        for i in range(150):  # > 63 entries: needs page chaining
            strict.pwrite(fd, bytes([i % 250]) * 100, i * 100)
        m = strict.machine
        m.crash()
        fs2 = NovaFS.mount(m, strict=True)
        fd = fs2.open("/many", F.O_RDONLY)
        assert fs2.fstat(fd).st_size == 15000
        for i in (0, 70, 149):
            assert fs2.pread(fd, 100, i * 100) == bytes([i % 250]) * 100

    def test_truncate_replay(self, strict):
        fd = strict.open("/t", F.O_CREAT | F.O_RDWR)
        strict.write(fd, b"z" * (4 * BLOCK_SIZE))
        strict.ftruncate(fd, 100)
        m = strict.machine
        m.crash()
        fs2 = NovaFS.mount(m, strict=True)
        assert fs2.stat("/t").st_size == 100

    def test_unlink_then_crash(self, strict):
        strict.write_file("/gone", b"bye")
        strict.unlink("/gone")
        m = strict.machine
        m.crash()
        fs2 = NovaFS.mount(m, strict=True)
        assert not fs2.exists("/gone")

    def test_freed_blocks_reusable_after_remount(self, strict):
        strict.write_file("/a", b"1" * (64 * BLOCK_SIZE))
        strict.unlink("/a")
        m = strict.machine
        m.crash()
        fs2 = NovaFS.mount(m, strict=True)
        free = fs2.alloc.free_blocks
        fs2.write_file("/b", b"2" * (64 * BLOCK_SIZE))
        assert fs2.alloc.free_blocks < free


class TestFsyncIsNoop:
    def test_fsync_costs_only_a_trap(self, strict):
        fd = strict.open("/n", F.O_CREAT | F.O_RDWR)
        strict.write(fd, b"data")
        before = strict.clock.now_ns
        strict.fsync(fd)
        assert strict.clock.now_ns - before < 600


class TestNovaFsck:
    def test_clean_after_busy_workload_and_crash(self):
        from repro.nova.fsck import assert_clean

        m = Machine(PM)
        fs = NovaFS.format(m, strict=True)
        fs.mkdir("/d")
        for i in range(15):
            fs.write_file(f"/d/f{i}", bytes([i]) * 3000)
        fs.rename("/d/f3", "/d/g3")
        fs.unlink("/d/f5")
        for i in range(300):
            fs.pwrite(fs.open("/d/f1", F.O_RDWR), b"x" * 4096, 0)
        assert_clean(fs)
        m.crash()
        fs2 = NovaFS.mount(m, strict=True)
        assert_clean(fs2)

    def test_detects_double_claimed_block(self):
        from repro.nova.fsck import fsck

        m = Machine(PM)
        fs = NovaFS.format(m, strict=True)
        fs.write_file("/a", b"1" * 5000)
        fs.write_file("/b", b"2" * 5000)
        ia = fs.inodes[fs._resolve("/a")]
        ib = fs.inodes[fs._resolve("/b")]
        stolen = ia.extmap.extents[0]
        ib.extmap.punch(0, 1)
        ib.extmap.insert(0, stolen.phys, 1)
        report = fsck(fs)
        assert any("claimed by" in e for e in report.errors)


class _Crash(Exception):
    """Power fails at this point of a syscall."""


class TestMountReclaimsUnreachableInodes:
    """A create persists the inode's record before the parent's dirent
    reaches the log; a crash between the two must remount clean."""

    KINDS = ("nova-strict", "nova-relaxed")

    def _crash_mid_create(self, kind, monkeypatch):
        machine, fs = make_filesystem(kind, pm_size=PM)
        fs.write_file("/keep", b"k" * 5000)
        ino = fs.free_inos[-1]
        log_append = NovaFS._log_append

        def crash_before_dirent(self, inode, entry):
            if isinstance(entry, L.DirentAddEntry):
                raise _Crash
            log_append(self, inode, entry)

        with monkeypatch.context() as patch:
            patch.setattr(NovaFS, "_log_append", crash_before_dirent)
            with pytest.raises(_Crash):
                fs.open("/lost", F.O_CREAT | F.O_RDWR)
        machine.crash()
        return machine, ino

    @pytest.mark.parametrize("kind", KINDS)
    def test_crash_between_record_and_dirent_remounts_clean(
            self, kind, monkeypatch):
        machine, ino = self._crash_mid_create(kind, monkeypatch)
        fs = remount(machine, kind)  # runs NOVA's fsck
        assert ino not in fs.inodes and fs.free_inos[-1] == ino
        assert fs.read_file("/keep") == b"k" * 5000
        # The reclaim is durable: the slot reads free on the media, so a
        # later mount does not bring the inode back.
        raw = machine.pm.peek(fs._rec_addr(ino), 128)
        assert fs._decode_record(raw).nlink == 0
        fs.write_file("/new", b"n" * 9000)
        machine.crash()
        fs = remount(machine, kind)
        assert fs.read_file("/new") == b"n" * 9000

    @pytest.mark.parametrize("kind", KINDS)
    def test_fsck_finds_the_leak_without_the_reclaim(self, kind, monkeypatch):
        machine, ino = self._crash_mid_create(kind, monkeypatch)
        monkeypatch.setattr(NovaFS, "_reclaim_unreachable", lambda self: None)
        with pytest.raises(AssertionError,
                           match=f"ino {ino} live but unreachable"):
            remount(machine, kind)
