"""The ``flat`` device profile is the token bucket alone, pinned bit for bit.

``flat`` replaced a separate bucket-only device path (its own attach call,
CLI flag and metric prefix).  The values below were recorded from that path
on a saturating append stream; the flat profile must reproduce every one of
them exactly: the clock's per-category totals, the bucket counters, and the
device IO counters — including the stalls of the three SplitFS modes, whose
fast appends outrun the sustained rate.
"""

import pytest

from repro.factory import SYSTEM_NAMES, make_filesystem
from repro.kernel.machine import Machine
from repro.posix import flags as F

PM = 64 * 1024 * 1024

BUCKET_FIELDS = ("stalled_ops", "stall_ns", "bytes_acquired", "tokens",
                 "last_refill_ns")
DEVICE_FIELDS = ("bytes_written", "bytes_read", "data_bytes_written",
                 "meta_bytes_written", "stores", "loads", "clwb_lines",
                 "fences")

#: system -> ((data_ns, meta_io_ns, cpu_ns), BUCKET_FIELDS, DEVICE_FIELDS)
RECORDED = {
    "ext4dax": (
        (863458.3955078125, 79348.921875, 5809723.0),
        (0, 0.0, 5748332.0, 1041678.012890625, 6752530.3173828125),
        (5748332, 0, 5270828, 477504, 1352, 0, 0, 112)),
    "nova-relaxed": (
        (863458.3955078125, 79268.46875, 1284670.0),
        (0, 0.0, 5348460.0, 807292.9596679516, 2227381.8642578125),
        (5348460, 0, 5270828, 77632, 2420, 0, 603, 1803)),
    "nova-strict": (
        (996611.7157360474, 70268.46875, 1284670.0),
        (0, 0.0, 5777216.0, 663972.2961928666, 2351469.1844860474),
        (5164864, 2449408, 5087232, 77632, 1812, 598, 603, 1203)),
    "pmfs": (
        (863458.3955078125, 119741.5625, 1999870.0),
        (0, 0.0, 5540524.0, 1041466.697265625, 2982973.9580078125),
        (5540524, 0, 5270828, 269696, 4209, 0, 602, 2408)),
    "splitfs-posix": (
        (523371.6855841557, 150303.14050279514, 449095.0),
        (107, 80922.59038342815, 3581977.0, 0.0, 1122769.8260869507),
        (3561424, 82212, 2719312, 842112, 879, 36, 0, 78)),
    "splitfs-strict": (
        (861460.0599910257, 1037233.8591665861, 498705.0),
        (696, 945716.574079097, 5725785.0, 132.6140625, 2397383.9191576117),
        (5705232, 82212, 2719312, 2985920, 1483, 36, 0, 1280)),
    "splitfs-sync": (
        (516353.3751221991, 148336.45096475145, 458095.0),
        (96, 71937.59038342784, 3581977.0, 0.0, 1122769.8260869505),
        (3561424, 82212, 2719312, 842112, 879, 36, 0, 678)),
    "strata": (
        (434870.90625, 15316.109375, 903745.0),
        (0, 0.0, 2693056.0, 1044032.0, 1353917.015625),
        (2693056, 0, 2654592, 38464, 1201, 0, 0, 601)),
}


def _saturating_appends(system: str, machine: Machine) -> None:
    """600 appends of 4096 + (i mod 7)*100 bytes, an fsync every 16."""
    _, fs = make_filesystem(system, pm_size=PM, machine=machine)
    fd = fs.open("/f", F.O_CREAT | F.O_RDWR | F.O_APPEND)
    for i in range(600):
        fs.write(fd, bytes([i % 251]) * (4096 + (i % 7) * 100))
        if (i + 1) % 16 == 0:
            fs.fsync(fd)


@pytest.mark.parametrize("system", SYSTEM_NAMES)
def test_flat_profile_reproduces_the_recorded_bucket_run(system):
    machine = Machine(PM, seed=3)
    bucket = machine.enable_device_model("flat").bandwidth
    _saturating_appends(system, machine)
    account, counters, device = RECORDED[system]
    a = machine.clock.account
    assert (a.data_ns, a.meta_io_ns, a.cpu_ns) == account
    assert tuple(getattr(bucket, f) for f in BUCKET_FIELDS) == counters
    assert tuple(getattr(machine.pm.stats, f)
                 for f in DEVICE_FIELDS) == device
