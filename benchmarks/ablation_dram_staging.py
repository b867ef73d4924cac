"""Section 4 ablation: staging appends in DRAM instead of PM.

The paper tried DRAM staging and rejected it: DRAM buffering is cheap at
write time, but at fsync the whole staged run must be *copied* into PM,
which costs more than the relink saves — "DRAM buffering is less useful in
PM systems because PM and DRAM performances are similar."
"""

import sys

from claims import Claims

from repro.bench import io_pattern_workload
from repro.bench.report import render_table
from repro.core.splitfs import SplitFSConfig


def main() -> int:
    pm_staging = io_pattern_workload(
        "splitfs-posix", "append", fsync_every=10,
        splitfs_config=SplitFSConfig())
    dram_staging = io_pattern_workload(
        "splitfs-posix", "append", fsync_every=10,
        splitfs_config=SplitFSConfig(dram_staging=True))

    rows = [
        ["PM staging + relink", f"{pm_staging.ns_per_op:.0f} ns/op",
         f"{pm_staging.io.data_bytes_written / (1 << 20):.1f} MB data written"],
        ["DRAM staging + copy", f"{dram_staging.ns_per_op:.0f} ns/op",
         f"{dram_staging.io.data_bytes_written / (1 << 20):.1f} MB data written"],
    ]
    print(render_table(
        "Section 4 ablation: 4K appends, fsync every 10 ops "
        "(paper: fsync copy cost overshadows DRAM's cheaper writes)",
        ["configuration", "per-append cost", "device IO"], rows,
    ))
    print()

    claims = Claims()
    # End to end, DRAM staging loses: the fsync-time copy dominates.
    claims.compare("DRAM / PM staging ns/append",
                   dram_staging.ns_per_op / pm_staging.ns_per_op, ">", 1.2)
    # And it does not reduce PM data IO (the data lands on PM regardless).
    claims.compare("DRAM / PM staging data bytes written",
                   dram_staging.io.data_bytes_written
                   / pm_staging.io.data_bytes_written, ">=", 0.9)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
