"""Section 3.6: SplitFS tunable parameters — the mmap size.

The paper exposes three tunables: mmap size, staging-file count and
operation-log size (``tunables_staging.py``, ``tunables_oplog.py``).
Larger mmaps amortize VMA setup over more data (fewer, bigger mappings).
"""

import sys

from claims import Claims

from repro.bench import io_pattern_workload
from repro.bench.report import render_table
from repro.core.splitfs import SplitFSConfig
from repro.pmem.constants import HUGE_PAGE_SIZE


def main() -> int:
    results = {}
    for mult in (1, 4, 16):  # 2 MB .. 32 MB (paper: 2 MB .. 512 MB)
        cfg = SplitFSConfig(map_size=mult * HUGE_PAGE_SIZE)
        m = io_pattern_workload("splitfs-posix", "seq-read",
                                splitfs_config=cfg)
        results[mult] = m
    rows = [
        [f"{mult * 2} MB", f"{m.ns_per_op:.0f} ns/read"]
        for mult, m in sorted(results.items())
    ]
    print(render_table(
        "Section 3.6: mmap() size sweep (sequential 4K reads)",
        ["mmap size", "read latency"], rows,
    ))
    print()

    claims = Claims()
    # Larger mappings never hurt sequential reads (fewer VMA setups).
    claims.compare("32 MB / 2 MB mmap read latency",
                   results[16].ns_per_op / results[1].ns_per_op, "<=", 1.05)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
