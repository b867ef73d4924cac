"""Units for the CoW overlay buffer and whole-machine forking."""

import hashlib

import pytest

from repro.factory import make_filesystem as fresh, remount
from repro.kernel.machine import Machine
from repro.pmem.cow import SEGMENT_SIZE, CowBuffer, CowStats
from repro.posix import flags as F

CREATE = F.O_CREAT | F.O_RDWR


# -- CowBuffer ---------------------------------------------------------------


def test_reads_fall_through_to_base():
    base = CowBuffer(128)
    base.write(0, b"abcdefgh" * 16)
    buf = CowBuffer(base)
    assert buf.read(0, 8) == b"abcdefgh"
    assert bytes(buf) == bytes(base)
    assert len(buf) == len(base)
    assert buf._own == {}  # nothing privatised by reads


def test_first_write_privatises_one_segment():
    base = CowBuffer(3 * SEGMENT_SIZE)
    stats = CowStats()
    buf = CowBuffer(base, stats)
    assert stats.forks == 1
    assert stats.bytes_shared == len(base)
    buf.write(SEGMENT_SIZE + 10, b"xyz")
    assert stats.cow_copies == 1
    assert stats.cow_bytes_copied == SEGMENT_SIZE
    assert stats.bytes_shared == len(base) - SEGMENT_SIZE
    # the write is visible through the overlay, invisible in the base
    assert buf.read(SEGMENT_SIZE + 10, SEGMENT_SIZE + 13) == b"xyz"
    assert base[SEGMENT_SIZE + 10 : SEGMENT_SIZE + 13] == bytearray(3)


def test_write_spanning_segments_and_tail_segment():
    size = 2 * SEGMENT_SIZE + 100  # ragged final segment
    base = CowBuffer(size)
    buf = CowBuffer(base)
    data = bytes(range(256)) * ((SEGMENT_SIZE + 200) // 256 + 1)
    data = data[: SEGMENT_SIZE + 150]
    start = SEGMENT_SIZE - 75  # spans segments 0, 1 and into 2
    buf.write(start, data)
    assert buf.read(start, start + len(data)) == data
    assert len(buf._own) == 3
    assert bytes(base) == bytes(size)  # base untouched


def test_subscript_protocol_matches_bytearray():
    base = CowBuffer(200)
    base.write(0, b"0123456789" * 20)
    buf = CowBuffer(base)
    ref = bytearray(bytes(base))
    buf[10:14] = b"abcd"
    ref[10:14] = b"abcd"
    buf[5] = ord("Z")
    ref[5] = ord("Z")
    assert buf[3:17] == bytes(ref[3:17])
    assert buf[-1] == ref[-1]
    assert buf[-200] == ref[-200]
    assert bytes(buf) == bytes(ref)
    with pytest.raises(ValueError):
        buf[0:4] = b"toolong"
    with pytest.raises(ValueError):
        buf[0:10:2]
    # integer subscripts outside [-size, size) raise, as on a bytearray
    for b in (buf, ref):
        with pytest.raises(IndexError):
            b[200] = 7
        with pytest.raises(IndexError):
            b[-201]
    assert bytes(buf) == bytes(ref)
    root = CowBuffer(100)  # a zero base, no parent
    with pytest.raises(IndexError):
        root[150]
    with pytest.raises(IndexError):
        root[150] = 7
    assert root._own == {}


def test_chained_forks_read_through_two_levels():
    base = CowBuffer(2 * SEGMENT_SIZE)
    child = CowBuffer(base)
    child.write(0, b"child")
    grandchild = CowBuffer(child)
    assert grandchild.read(0, 5) == b"child"
    grandchild.write(0, b"grand")
    assert grandchild.read(0, 5) == b"grand"
    assert child.read(0, 5) == b"child"
    assert bytes(base[:5]) == bytes(5)


# -- Machine.fork ------------------------------------------------------------


def _digest(machine) -> str:
    return hashlib.sha256(bytes(machine.pm.buf)).hexdigest()


def test_fork_preserves_device_clock_and_pending_state():
    machine, fs = fresh("nova-strict", 16 * 1024 * 1024, seed=7)
    fd = fs.open("/a", CREATE)
    fs.write(fd, b"hello persistent world" * 100)
    # leave unfenced stores pending so the fork must carry covering state
    child = machine.fork()
    assert _digest(child) == _digest(machine)
    assert child.clock.now_ns == machine.clock.now_ns
    assert (sorted(child.pm.domain.dirty_lines())
            == sorted(machine.pm.domain.dirty_lines()))


def test_child_crash_does_not_disturb_parent():
    machine, fs = fresh("nova-strict", 16 * 1024 * 1024, seed=7)
    fd = fs.open("/a", CREATE)
    fs.write(fd, b"x" * 4096)
    before = _digest(machine)
    dirty_before = sorted(machine.pm.domain.dirty_lines())
    child = machine.fork()
    child.crash()  # rolls back unfenced lines — in the child only
    remount(child, "nova-strict")
    assert _digest(machine) == before
    assert sorted(machine.pm.domain.dirty_lines()) == dirty_before
    # parent continues normally after the child is discarded
    fs.fsync(fd)
    assert machine.pm.domain.dirty_lines() == set() or \
        not sorted(machine.pm.domain.dirty_lines())


def test_fork_carries_crash_rng_stream():
    parent = Machine(pm_size=1 << 20, seed=42)
    child = parent.fork()
    a = parent._crash_rng.getrandbits(64)
    b = child._crash_rng.getrandbits(64)
    assert a == b  # same stream position at fork time
    # and the streams are independent afterwards: the parent draws once
    # more, and the child, which did not advance, draws that same value next
    c = parent._crash_rng.getrandbits(64)
    assert child._crash_rng.getrandbits(64) == c
    assert child._crash_rng is not parent._crash_rng


def test_fork_carries_instance_id_sequence():
    parent = Machine(pm_size=1 << 20, seed=0)
    assert parent.next_instance_id() == 0
    assert parent.next_instance_id() == 1
    child = parent.fork()
    # ids are a function of machine history: the child continues where a
    # from-scratch replay reaching this state would
    assert child.next_instance_id() == 2
    assert parent.next_instance_id() == 2  # streams independent after fork


def test_fork_counts_into_cow_stats():
    machine, fs = fresh("ext4dax", 16 * 1024 * 1024, seed=1)
    fd = fs.open("/a", CREATE)
    fs.write(fd, b"y" * 1024)
    stats = CowStats()
    child = machine.fork(cow_stats=stats)
    assert stats.forks == 1
    assert stats.bytes_shared == machine.pm.size
    child.crash()
    assert stats.cow_copies > 0  # rollback privatised segments
    assert stats.cow_bytes_copied == stats.cow_copies * SEGMENT_SIZE


def test_fork_device_stats_are_independent():
    machine, fs = fresh("ext4dax", 16 * 1024 * 1024, seed=1)
    child = machine.fork()
    parent_loads = machine.pm.stats.loads
    fd = fs.open("/b", CREATE)
    fs.write(fd, b"z" * 4096)
    fs.pread(fd, 4096, 0)
    assert machine.pm.stats.loads > parent_loads
    assert child.pm.stats.loads == parent_loads
