"""``PersistentMemory.load_nonzero`` is one ``load`` per address.

(The tests keep the names they had for ``load_each``, the batch load that
``load_nonzero`` replaced.)  Without poison, RAS or a device model the
loads are checked, counted and charged in one batch
(:meth:`~repro.pmem.timing.SimClock.charge_each`) and the bytes are looked
up in their buffer segments; otherwise each is a ``load`` call.  Either
way a run must yield exactly the non-zero loads, and leave the same
``DeviceStats``, clock accounts, open ``MeasureScope``, observer
attribution and spans and RAS stats, bit for bit, as the separate calls.

The device is a fork, so its segments cover every case the lookup has:
a segment the fork owns (with zero and non-zero pages), a zero segment
the fork wrote over a non-zero parent segment, a segment nobody wrote,
and records that straddle a 64 KiB boundary.
"""

import pytest

from repro.kernel.machine import Machine
from repro.obs.observer import Observer
from repro.pmem import constants as C
from repro.pmem.cow import SEGMENT_SIZE
from repro.pmem.device import PMError
from repro.pmem.timing import CPU, DATA, META_IO, SimClock

SEG_PAGES = SEGMENT_SIZE // C.BLOCK_SIZE
PAGES = 3 * SEG_PAGES
PRIMARY = 4 * SEGMENT_SIZE  # segments 4, 5 and 6
REPLICA = 256 * C.BLOCK_SIZE
#: Two 4 KiB records across a segment boundary: 4|5 (non-zero), 5|6 (zero).
STRADDLES = [PRIMARY + SEGMENT_SIZE - 2048, PRIMARY + 2 * SEGMENT_SIZE - 2048]


def _plain(machine):
    pass


def _poison_elsewhere(machine):
    machine.faults.poison(1000 * C.BLOCK_SIZE, 64)


def _ras_repairs(machine):
    machine.enable_ras()
    machine.ras.protect(PRIMARY, PAGES * C.BLOCK_SIZE, replica=REPLICA)
    machine.faults.poison_rate(0.05, seed=3,
                               region=(PRIMARY, PRIMARY + PAGES * C.BLOCK_SIZE))


def _ras_verifies(machine):
    machine.enable_ras()
    machine.ras.protect(PRIMARY, PAGES * C.BLOCK_SIZE, replica=REPLICA)


def _device_model(machine):
    machine.enable_device_model("optane")


ARMS = [_plain, _poison_elsewhere, _ras_repairs, _ras_verifies, _device_model]


def build(arm):
    """A fork over a parent whose first two segments hold every third page
    zero; the fork zeroes segment 5 whole and writes into segment 4."""
    parent = Machine(pm_size=1 << 23, seed=0)
    for page in range(2 * SEG_PAGES):
        if page % 3:
            parent.pm.store(PRIMARY + page * C.BLOCK_SIZE + 7 * page,
                            bytes([page + 1]) * 300, category=META_IO)
    parent.pm.sfence()
    arm(parent)
    machine = parent.fork()
    machine.pm.store(PRIMARY + SEGMENT_SIZE, bytes(SEGMENT_SIZE))
    machine.pm.store(PRIMARY + SEGMENT_SIZE - 8, b"straddle")
    machine.pm.sfence()
    Observer().bind(machine.clock)
    # Inexact starting totals, so a reordered or multiplied sum would show.
    machine.clock.charge(0.1, DATA)
    machine.clock.charge(0.3, META_IO)
    machine.clock.charge(0.7, CPU)
    return machine


def run(machine, batched, addrs, size, category):
    pm = machine.pm
    zeros = bytes(size)
    out = []
    error = None
    with machine.clock.measure() as scope, machine.obs.span("scan", cat="t"):
        try:
            if batched:
                for item in pm.load_nonzero(addrs, size, category):
                    out.append(item)
            else:
                for i, addr in enumerate(addrs):
                    raw = pm.load(addr, size, category)
                    if raw != zeros:
                        out.append((i, raw))
        except PMError as exc:
            error = type(exc).__name__
    acct = machine.clock.account
    spans = [(s.name, s.self_data_ns, s.self_meta_ns, s.self_cpu_ns)
             for s in machine.obs.events]
    return (out, error, vars(pm.stats),
            (acct.data_ns, acct.meta_io_ns, acct.cpu_ns),
            (scope.data_ns, scope.meta_io_ns, scope.cpu_ns),
            machine.obs.attribution, spans,
            machine.ras.stats if machine.ras else None)


def test_fixture_covers_every_kind_of_segment():
    buf = build(_plain).pm.buf
    assert buf._own[5] is None and buf.base.segment(5) is not None
    assert buf._own[4] is not None and buf.segment(6) is None
    assert 6 not in buf._own and 6 not in buf.base._own


@pytest.mark.parametrize("arm", ARMS, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("category", [DATA, META_IO, CPU],
                         ids=lambda c: c.value)
def test_load_each_equals_separate_loads(arm, category):
    addrs = sorted([PRIMARY + page * C.BLOCK_SIZE for page in range(PAGES)]
                   + STRADDLES, reverse=True)
    batched = run(build(arm), True, addrs, C.BLOCK_SIZE, category)
    separate = run(build(arm), False, addrs, C.BLOCK_SIZE, category)
    assert batched == separate
    # Segment 4's non-zero pages (its last one ends in the fork's write)
    # and the straddle over them; segments 5 and 6 read as zeros.
    assert batched[1] is None
    assert [addrs[i] for i, _ in batched[0]] == sorted(
        [PRIMARY + p * C.BLOCK_SIZE for p in range(SEG_PAGES)
         if p % 3 or p == SEG_PAGES - 1] + STRADDLES[:1], reverse=True)
    if arm is _ras_repairs:
        assert batched[-1].media_repaired > 0
    if arm is _ras_verifies:
        assert batched[-1].crc_bytes_verified > 0


@pytest.mark.parametrize("arm", [_plain, _ras_repairs],
                         ids=lambda f: f.__name__.strip("_"))
def test_out_of_range_address_charges_the_loads_before_it(arm):
    addrs = [PRIMARY + C.BLOCK_SIZE, PRIMARY + 2 * C.BLOCK_SIZE, 1 << 23,
             PRIMARY]
    batched = run(build(arm), True, addrs, C.BLOCK_SIZE, META_IO)
    separate = run(build(arm), False, addrs, C.BLOCK_SIZE, META_IO)
    assert batched == separate
    assert batched[1] == "PMError" and len(batched[0]) == 2


def test_charge_each_adds_one_float_at_a_time():
    batched, separate = SimClock(), SimClock()
    batched.charge_each(0.1, CPU, 10)
    for _ in range(10):
        separate.charge(0.1, CPU)
    assert batched.account.cpu_ns == separate.account.cpu_ns
    assert batched.account.cpu_ns != 10 * 0.1
