"""Under poison and RAS, the ext4 mount still loads the inode table slot by slot.

``Ext4DaxFS.mount`` reads its inode slots through
``PersistentMemory.load_nonzero``.  With poison armed and RAS attached, a
repair charges between two loads, so ``load_nonzero`` must fall back to
one ``load`` per slot, made in descending inode order as the mount
consumes it, interleaved with each inode's continuation-block loads.  The mount's
clock must equal the plain per-slot loop's bit for bit, and so must the
sequences of loads and charges: a fallback that loaded every slot up
front, or in another order, moves float additions, though whether that
shows in the totals depends on where they cross a power of two.
"""

from repro.ext4.filesystem import Ext4DaxFS
from repro.ext4.inode import MAX_EXTENTS_PRIMARY
from repro.kernel.machine import Machine
from repro.obs.observer import Observer
from repro.pmem.constants import BLOCK_SIZE
from repro.pmem.device import PersistentMemory
from repro.pmem.timing import DATA
from repro.posix import flags as F

PM = 96 * 1024 * 1024


def crashed_image():
    machine = Machine(PM, seed=0)
    machine.enable_ras()
    fs = Ext4DaxFS.format(machine)
    # Interleaved writes fragment /frag past its primary extent table, so
    # its inode needs continuation blocks.
    frag = fs.open("/frag", F.O_CREAT | F.O_RDWR)
    blocker = fs.open("/blocker", F.O_CREAT | F.O_RDWR)
    for i in range(MAX_EXTENTS_PRIMARY + 10):
        fs.pwrite(frag, b"a" * BLOCK_SIZE, i * 2 * BLOCK_SIZE)
        fs.pwrite(blocker, b"b" * BLOCK_SIZE, i * BLOCK_SIZE)
    for i in range(20):
        fs.write_file(f"/f{i}", bytes([i]) * (100 + 37 * i))
    fs.fsync(frag)
    fs.fsync(blocker)
    assert fs.inodes[fs.fdt.get(frag).ino].cont_blocks
    itable = (fs.itable_start * BLOCK_SIZE,
              (fs.itable_start + fs.config.max_inodes) * BLOCK_SIZE)
    machine.crash()
    return machine, itable


class ChargeLog(Observer):
    """An observer that also keeps every charge, in order."""

    def __init__(self):
        super().__init__()
        self.charges = []

    def on_charge(self, ns, category):
        self.charges.append((ns, category))
        super().on_charge(ns, category)


def per_slot(self, addrs, size, category=DATA):
    zeros = bytes(size)
    for i, addr in enumerate(addrs):
        raw = self.load(addr, size, category)
        if raw != zeros:
            yield i, raw


def mount_poisoned(machine, itable, loads):
    log = ChargeLog()
    log.bind(machine.clock)
    machine.faults.poison_rate(0.05, seed=11, region=itable)
    loads.clear()
    fs = Ext4DaxFS.mount(machine)
    acct = machine.clock.account
    return ((acct.data_ns, acct.meta_io_ns, acct.cpu_ns),
            vars(machine.ras.stats), vars(machine.pm.stats),
            machine.faults.poisoned, sorted(fs.inodes), sorted(fs.free_inos),
            log.charges, list(loads))


def test_mount_clock_under_poison_equals_the_per_slot_loop(monkeypatch):
    parent, itable = crashed_image()
    loads = []
    load = PersistentMemory.load

    def logged_load(self, addr, size, *args, **kwargs):
        loads.append((addr, size))
        return load(self, addr, size, *args, **kwargs)

    monkeypatch.setattr(PersistentMemory, "load", logged_load)
    batched = mount_poisoned(parent.fork(), itable, loads)
    monkeypatch.setattr(PersistentMemory, "load_nonzero", per_slot)
    separate = mount_poisoned(parent.fork(), itable, loads)
    assert batched == separate
    assert batched[1]["media_repaired"] > 1000
