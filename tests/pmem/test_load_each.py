"""``PersistentMemory.load_each`` is one ``load`` per address.

Without poison, RAS or a device model the loads are checked, counted and
charged in one batch (:meth:`~repro.pmem.timing.SimClock.charge_each`);
otherwise each is a ``load`` call.  Either way a run must leave the same
bytes, ``DeviceStats``, clock accounts, open ``MeasureScope`` and observer
attribution, bit for bit, as the separate calls.
"""

import pytest

from repro.kernel.machine import Machine
from repro.obs.observer import Observer
from repro.pmem import constants as C
from repro.pmem.device import PMError
from repro.pmem.timing import CPU, DATA, META_IO, SimClock

PAGES = 48
PRIMARY = 64 * C.BLOCK_SIZE
REPLICA = 256 * C.BLOCK_SIZE


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
    machine = Machine(pm_size=1 << 23, seed=0, observer=Observer())
    for page in range(PAGES):
        machine.pm.store(PRIMARY + page * C.BLOCK_SIZE + 7 * page,
                         bytes([page + 1]) * 300, category=META_IO)
    machine.pm.sfence()
    # Inexact starting totals, so a reordered or multiplied sum would show.
    machine.clock.charge(0.1, DATA)
    machine.clock.charge(0.3, META_IO)
    machine.clock.charge(0.7, CPU)
    arm(machine)
    return machine


def run(machine, batched, addrs, size, category):
    pm = machine.pm
    out = []
    error = None
    with machine.clock.measure() as scope, machine.obs.span("scan", cat="t"):
        try:
            if batched:
                for raw in pm.load_each(addrs, size, category):
                    out.append(raw)
            else:
                for addr in addrs:
                    out.append(pm.load(addr, size, category))
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


@pytest.mark.parametrize("arm", ARMS, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("category", [DATA, META_IO, CPU],
                         ids=lambda c: c.value)
def test_load_each_equals_separate_loads(arm, category):
    addrs = [PRIMARY + page * C.BLOCK_SIZE for page in range(PAGES - 1, -1, -1)]
    batched = run(build(arm), True, addrs, C.BLOCK_SIZE, category)
    separate = run(build(arm), False, addrs, C.BLOCK_SIZE, category)
    assert batched == separate
    assert batched[1] is None and len(batched[0]) == PAGES
    if arm is _ras_repairs:
        assert batched[-1].media_repaired > 0
    if arm is _ras_verifies:
        assert batched[-1].crc_bytes_verified > 0


@pytest.mark.parametrize("arm", [_plain, _ras_repairs],
                         ids=lambda f: f.__name__.strip("_"))
def test_out_of_range_address_charges_the_loads_before_it(arm):
    addrs = [PRIMARY, PRIMARY + C.BLOCK_SIZE, 1 << 23, PRIMARY]
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
