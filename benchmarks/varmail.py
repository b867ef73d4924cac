"""Varmail personality across systems (complements Table 6's microbench).

The paper's Section 5.4 premise: trading slower metadata operations for
faster data operations wins on mixed workloads because data ops dominate.
Varmail is the canonical mixed mail-server workload; SplitFS should come out
ahead of ext4-DAX overall despite losing on open/close/unlink.
"""

import sys

from claims import Claims

from repro.apps.filebench import FilebenchConfig, run_personality
from repro.bench.harness import DEFAULT_PM
from repro.bench.report import render_table
from repro.factory import make_filesystem

SYSTEMS = ["ext4dax", "splitfs-posix", "pmfs", "nova-strict", "splitfs-strict"]


def run_varmail(system):
    machine, fs = make_filesystem(system, pm_size=DEFAULT_PM)
    cfg = FilebenchConfig(operations=400, nfiles=40)
    with machine.clock.measure() as acct:
        result = run_personality(fs, "varmail", cfg)
    return acct.total_ns / result.operations


def main() -> int:
    results = {s: run_varmail(s) for s in SYSTEMS}
    rows = [[s, f"{ns / 1000:.2f} us/op"] for s, ns in results.items()]
    print(render_table(
        "Varmail personality: mean latency per workload operation",
        ["system", "latency"], rows,
    ))
    print()

    claims = Claims()
    # The paper's trade-off premise (Table 6 compares against ext4-DAX):
    # despite slower metadata ops, SplitFS wins the mixed workload.
    claims.compare("splitfs-posix / ext4dax latency",
                   results["splitfs-posix"] / results["ext4dax"], "<", 0.75)
    # Against NOVA-strict, fsync-per-message workloads are SplitFS's worst
    # case (every fsync is a journaled relink vs NOVA's no-op fsync); we
    # only require it stays within the same order of magnitude.
    claims.compare("splitfs-strict / nova-strict latency",
                   results["splitfs-strict"] / results["nova-strict"],
                   "<", 3.0)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
