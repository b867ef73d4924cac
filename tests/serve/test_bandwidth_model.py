"""Token-bucket bandwidth model: unit math and the off-path guarantee.

The bucket rides in the opt-in device model.  The hard requirement is that
with no model attached (the default everywhere outside `repro serve
--device-profile ...`) the device charges exactly what it always charged —
every golden and simulated-ns oracle must stay bit-identical.  The
`repro table1` output is also a committed golden (`goldens/table1.txt`).
"""

import pytest

from repro.factory import make_filesystem
from repro.kernel.machine import Machine
from repro.pmem import constants as C
from repro.pmem.devmodel import BandwidthModel, DeviceProfile
from repro.posix import flags as F

PM = 64 * 1024 * 1024


class TestTokenBucketMath:
    def test_within_burst_is_free(self):
        m = BandwidthModel(rate_bytes_per_ns=1.0, burst_bytes=1000.0,
                           tokens=1000.0)
        assert m.acquire(400, now_ns=0.0) == 0.0
        assert m.tokens == 600.0
        assert m.stalled_ops == 0 and m.stall_ns == 0.0
        assert m.bytes_acquired == 400.0

    def test_deficit_charges_exact_refill_time(self):
        m = BandwidthModel(rate_bytes_per_ns=2.0, burst_bytes=1000.0,
                           tokens=100.0)
        delay = m.acquire(500, now_ns=0.0)
        assert delay == pytest.approx((500 - 100) / 2.0)
        assert m.tokens == 0.0
        assert m.stalled_ops == 1
        assert m.stall_ns == pytest.approx(delay)
        # The stall consumed its own refill: the bucket does not double-earn
        # tokens for the time spent waiting.
        assert m.last_refill_ns == pytest.approx(delay)

    def test_idle_time_refills_up_to_burst(self):
        m = BandwidthModel(rate_bytes_per_ns=1.0, burst_bytes=1000.0,
                           tokens=0.0)
        assert m.acquire(300, now_ns=500.0) == 0.0  # 500 ns idle -> 500 tokens
        assert m.tokens == 200.0
        m2 = BandwidthModel(rate_bytes_per_ns=1.0, burst_bytes=1000.0,
                            tokens=0.0)
        m2.acquire(0, now_ns=10.0)  # no-op draw
        assert m2.tokens == 0.0  # zero-byte transfers never touch the bucket
        assert m2.bytes_acquired == 0.0

    def test_reads_are_weighted(self):
        m = BandwidthModel(rate_bytes_per_ns=1.0, burst_bytes=1000.0,
                           tokens=1000.0, read_weight=0.25)
        m.acquire_read(400, now_ns=0.0)
        assert m.tokens == 900.0  # 400 * 0.25

    def test_clone_is_independent(self):
        m = BandwidthModel(rate_bytes_per_ns=1.0, burst_bytes=1000.0,
                           tokens=700.0)
        m.stall_ns = 42.0
        c = m.clone()
        assert c.tokens == 700.0 and c.stall_ns == 42.0
        c.acquire(700, now_ns=0.0)
        assert m.tokens == 700.0  # the original never sees the clone's draws

    def test_defaults_come_from_constants(self):
        m = BandwidthModel()
        assert m.rate_bytes_per_ns == C.PM_SUSTAINED_WRITE_BW_BYTES_PER_NS
        assert m.burst_bytes == C.PM_BANDWIDTH_BURST_BYTES
        assert m.tokens == m.burst_bytes  # starts full: bursts are free


def _timed_write_run(machine):
    _, fs = make_filesystem("ext4dax", pm_size=PM, machine=machine)
    fd = fs.open("/f", F.O_CREAT | F.O_RDWR)
    for i in range(64):
        fs.pwrite(fd, b"x" * 4096, i * 4096)
    fs.fsync(fd)
    fs.pread(fd, 65536, 0)
    return machine.clock.now_ns


def _bucket_profile(rate: float, burst: float) -> DeviceProfile:
    """A bucket-only profile (no small-write curve, no eADR), like flat."""
    return DeviceProfile(name="bucket", rate_bytes_per_ns=rate,
                         burst_bytes=burst,
                         read_weight=C.PM_BANDWIDTH_READ_WEIGHT)


class TestOffPathGuarantee:
    def test_bandwidth_detached_by_default(self):
        machine = Machine(PM)
        assert machine.pm.model is None

    def test_unsaturated_model_changes_nothing(self):
        base = _timed_write_run(Machine(PM, seed=3))
        fast = Machine(PM, seed=3)
        fast.enable_device_model(_bucket_profile(rate=1e9, burst=1e18))
        assert _timed_write_run(fast) == base

    def test_saturating_model_charges_stall_time(self):
        base = _timed_write_run(Machine(PM, seed=3))
        slow = Machine(PM, seed=3)
        bucket = slow.enable_device_model(
            _bucket_profile(rate=0.01, burst=4096.0)).bandwidth
        assert _timed_write_run(slow) > base
        assert bucket.stalled_ops > 0
        assert bucket.stall_ns > 0.0

    def test_fork_clones_the_bucket(self):
        machine = Machine(PM)
        bucket = machine.enable_device_model("flat").bandwidth
        bucket.tokens = 123.0
        child = machine.fork()
        assert child.pm.model is not None
        assert child.pm.model.bandwidth is not bucket
        assert child.pm.model.bandwidth.tokens == 123.0
        child.pm.model.bandwidth.tokens = 1.0
        assert bucket.tokens == 123.0
