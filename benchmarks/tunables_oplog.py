"""Section 3.6: SplitFS tunable parameters — the operation-log size.

A small operation log forces frequent checkpoints (relink-all + zero); see
``tunables_mmap_size.py`` for the other tunables.
"""

import sys

from claims import Claims

from repro.bench.harness import DEFAULT_PM
from repro.bench.report import render_table
from repro.core.splitfs import SplitFSConfig
from repro.factory import make_filesystem
from repro.posix import flags as F


def run_with_log(log_bytes):
    machine, fs = make_filesystem(
        "splitfs-strict", pm_size=DEFAULT_PM,
        splitfs_config=SplitFSConfig(oplog_bytes=log_bytes))
    fd = fs.open("/f", F.O_CREAT | F.O_RDWR)
    with machine.clock.measure() as acct:
        for _ in range(4000):
            fs.write(fd, b"x" * 256)
    return acct.total_ns / 4000, fs.oplog.checkpoints


def main() -> int:
    results = {
        "64 KB log": run_with_log(64 * 1024),
        "2 MB log": run_with_log(2 * 1024 * 1024),
    }
    rows = [
        [label, f"{ns:.0f} ns/op", f"{ckpts}"]
        for label, (ns, ckpts) in results.items()
    ]
    print(render_table(
        "Section 3.6: operation-log size sweep (4000 small strict writes)",
        ["log size", "write latency", "checkpoints forced"], rows,
    ))
    print()

    claims = Claims()
    small_ns, small_ckpts = results["64 KB log"]
    big_ns, big_ckpts = results["2 MB log"]
    # A small log forces checkpoints; a right-sized one avoids them (the
    # paper sizes the log so "small bursts" never checkpoint).
    claims.compare("64 KB log checkpoints", small_ckpts, ">", 0)
    claims.compare("2 MB log checkpoints", big_ckpts, "==", 0)
    claims.compare("2 MB / 64 KB log write latency",
                   big_ns / small_ns, "<=", 1)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
