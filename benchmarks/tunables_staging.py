"""Section 3.6: SplitFS tunable parameters — the staging pool.

More and larger staging files reduce background refills under append
pressure (see ``tunables_mmap_size.py`` for the other tunables).
"""

import sys

from claims import Claims

from repro.bench import io_pattern_workload
from repro.bench.report import render_table
from repro.core.splitfs import SplitFSConfig


def main() -> int:
    results = {}
    for count, size in ((2, 2 << 20), (4, 8 << 20)):
        cfg = SplitFSConfig(staging_count=count, staging_size=size)
        m = io_pattern_workload("splitfs-posix", "append",
                                file_bytes=16 << 20, fsync_every=50,
                                splitfs_config=cfg)
        results[(count, size)] = m
    rows = [
        [f"{count} x {size >> 20} MB", f"{m.ns_per_op:.0f} ns/append"]
        for (count, size), m in sorted(results.items())
    ]
    print(render_table(
        "Section 3.6: staging pool sweep (16 MB of 4K appends)",
        ["staging pool", "append latency"], rows,
    ))
    print()

    claims = Claims()
    small = results[(2, 2 << 20)]
    large = results[(4, 8 << 20)]
    # A generous pool is never slower in the foreground.
    claims.compare("4 x 8 MB / 2 x 2 MB pool append latency",
                   large.ns_per_op / small.ns_per_op, "<=", 1.10)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
