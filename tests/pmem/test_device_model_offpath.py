"""Off-path golden guards: with the device model detached, nothing changes.

The model ships imported into the factory/CLI path on every run, so these
tests pin the hard contract from the ISSUE: a machine that never attaches a
model — or attaches and then detaches one — charges bit-identically to the
seed tree, for all eight systems.
The companion regression pins the opposite direction: when a bucket *is*
attached, direct ``Machine`` workloads (table1-style, not just serve)
charge through it, and the charged-vs-bypassed delta is exactly the
bucket's recorded stall time.
"""

import io
from contextlib import redirect_stdout

import pytest

from repro.cli import main as cli_main
from repro.factory import SYSTEM_NAMES, make_filesystem
from repro.kernel.machine import Machine
from repro.pmem.devmodel import DeviceModel, DeviceProfile
from repro.posix import flags as F

PM = 64 * 1024 * 1024


def _timed_run(system: str, machine: Machine) -> float:
    _, fs = make_filesystem(system, pm_size=PM, machine=machine)
    fd = fs.open("/f", F.O_CREAT | F.O_RDWR)
    payload = b"x" * 4096
    for i in range(48):
        fs.pwrite(fd, payload, i * 4096)
        if (i + 1) % 8 == 0:
            fs.fsync(fd)
    fs.fsync(fd)
    fs.pread(fd, 48 * 4096, 0)
    return machine.clock.now_ns


@pytest.mark.parametrize("system", SYSTEM_NAMES)
def test_never_attached_equals_attach_then_detach(system):
    """Detaching restores bit-identical charging, per system."""
    base = _timed_run(system, Machine(PM, seed=3))
    toggled = Machine(PM, seed=3)
    toggled.enable_device_model(profile="eadr", numa_remote=True)
    toggled.disable_device_model()
    assert _timed_run(system, toggled) == base


def test_default_machine_has_no_model():
    machine = Machine(PM)
    assert machine.pm.model is None
    assert machine.pm.sched is None


def test_factory_off_path_attaches_nothing():
    for system in SYSTEM_NAMES:
        machine, _ = make_filesystem(system, pm_size=PM)
        assert machine.pm.model is None


def _cli_stdout(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(argv)
    assert rc == 0
    return buf.getvalue()


def test_table1_byte_identical_with_module_imported():
    """Two `repro table1` runs in a process that has the device-model module
    (and an instantiated model) live are byte-identical — importing or
    exercising the model elsewhere cannot perturb the off path."""
    first = _cli_stdout(["table1", "--total-mb", "1"])
    noise = Machine(PM, seed=9)
    noise.enable_device_model(profile="optane", numa_remote=True)
    noise.pm.store(0, b"n" * 8192, nontemporal=True)
    second = _cli_stdout(["table1", "--total-mb", "1"])
    assert first == second
    assert "device model" not in first  # off path never mentions the model


# ---------------------------------------------------------------------------
# Satellite fix: direct Machine workloads charge through an attached bucket
# ---------------------------------------------------------------------------

THROTTLED = DeviceProfile(name="throttled", rate_bytes_per_ns=0.05,
                          burst_bytes=8192.0, read_weight=0.25,
                          xpline_bytes=256)


def test_direct_machine_workloads_charge_through_attached_bucket():
    """table1/ycsb-style closed-loop runs — not just serve — pay bucket
    stalls when a model is attached, and the charged-vs-bypassed delta is
    exactly the bucket's recorded stall time."""
    base = _timed_run("splitfs-strict", Machine(PM, seed=3))
    slow = Machine(PM, seed=3)
    model = slow.enable_device_model(model=DeviceModel(profile=THROTTLED))
    timed_slow = _timed_run("splitfs-strict", slow)
    assert model.bandwidth.stalled_ops > 0
    assert model.bandwidth.stall_ns > 0.0
    # NUMA is off and the workload is 4K-aligned (XPLine round-up is the
    # identity), so queueing stalls are the model's only extra charge.
    assert timed_slow - base == pytest.approx(model.bandwidth.stall_ns)


def test_harness_threads_profile_into_measurements():
    from repro.bench.harness import append_4k_workload

    off = append_4k_workload("splitfs-strict", total_bytes=1 << 20)
    on = append_4k_workload("splitfs-strict", total_bytes=1 << 20,
                            device_profile=THROTTLED)
    assert on.total_ns > off.total_ns
