"""Section 5.3: strict-mode recovery times.

The paper crashes workloads at random points and replays the operation log:
18K entries took ~3 s; a worst case of 2M entries (a full 128 MB log of
cache-line writes) took ~6 s on emulated PM.  We sweep valid-entry counts
(scaled to our log) and report simulated replay time, claiming it scales
roughly linearly and that POSIX/sync-mode recovery is just ext4 journal
recovery (orders of magnitude cheaper than a full strict replay).
"""

import sys

from claims import Claims

from repro.bench.report import render_table
from repro.core import Mode, SplitFS, SplitFSConfig, recover
from repro.ext4.filesystem import Ext4DaxFS
from repro.kernel.machine import Machine
from repro.posix import flags as F

PM = 192 * 1024 * 1024


def crash_with_entries(n_entries: int):
    """Build a strict instance, write n_entries small logged ops, crash."""
    m = Machine(PM)
    fs = SplitFS(Ext4DaxFS.format(m), mode=Mode.STRICT,
                 config=SplitFSConfig(oplog_bytes=4 * 1024 * 1024))
    fd = fs.open("/wl", F.O_CREAT | F.O_RDWR)
    for i in range(n_entries):
        fs.write(fd, b"x" * 64)  # cache-line-sized writes (worst case)
    m.crash()
    with m.clock.measure() as acct:
        kfs, report = recover(m, strict=True)
    return acct.total_ns, report


def posix_recovery_time():
    m = Machine(PM)
    fs = SplitFS(Ext4DaxFS.format(m), mode=Mode.POSIX)
    fd = fs.open("/wl", F.O_CREAT | F.O_RDWR)
    for _ in range(1000):
        fs.write(fd, b"x" * 64)
    fs.fsync(fd)
    m.crash()
    with m.clock.measure() as acct:
        recover(m, strict=False)
    return acct.total_ns


def main() -> int:
    results = {}
    for n in (500, 2000, 8000):
        ns, report = crash_with_entries(n)
        results[n] = (ns, report.data_entries_replayed)
    results["posix"] = (posix_recovery_time(), 0)
    rows = []
    for n in (500, 2000, 8000):
        ns, replayed = results[n]
        rows.append([f"strict, {n} log entries", f"{replayed}",
                     f"{ns / 1e6:.2f} ms"])
    rows.append(["posix (ext4 journal only)", "-",
                 f"{results['posix'][0] / 1e6:.2f} ms"])
    print(render_table(
        "Section 5.3: crash-recovery time vs valid log entries "
        "(paper: 18K entries ~3s, 2M entries ~6s on emulated PM)",
        ["scenario", "entries replayed", "simulated recovery time"], rows,
    ))
    print()

    claims = Claims()
    t500, _ = results[500]
    t2000, _ = results[2000]
    t8000, _ = results[8000]
    # Replay time grows with the number of valid entries (on top of the
    # fixed mount/scan cost) and the growth is roughly linear.
    claims.compare("recovery time ratio along 500 < 2000 < 8000 entries",
                   {"2000 / 500": t2000 / t500, "8000 / 2000": t8000 / t2000},
                   ">", 1)
    per_entry_a = (t2000 - t500) / 1500
    per_entry_b = (t8000 - t2000) / 6000
    claims.compare("per-entry replay time, 500-2000 / 2000-8000 entries",
                   per_entry_a / per_entry_b, "in", (0.4, 2.5))
    # POSIX-mode recovery does not pay a log replay at all.
    claims.compare("posix / strict-500 recovery time",
                   results["posix"][0] / t500, "<", 1)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
