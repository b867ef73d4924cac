"""Figure 5: relative file-system software overhead in applications.

For three write-heavy workloads (YCSB Load A and Run A on LevelDB, TPC-C on
SQLite) we measure software overhead — total time minus the time moving file
data on the device (Section 5.7) — for each file system, normalized to the
SplitFS mode with the same guarantees (lower is better; SplitFS = 1.0).

Paper shape: ext4-DAX and NOVA-relaxed suffer the largest relative
overheads (up to 3.6x and 7.4x); PMFS the lowest of the baselines; SplitFS
the lowest overall at every guarantee level.
"""

import sys

from claims import Claims

from repro.bench import tpcc_workload, ycsb_workload
from repro.bench.report import render_table

PAIRS = [
    # (system, the SplitFS mode providing the same guarantees)
    ("ext4dax", "splitfs-posix"),
    ("pmfs", "splitfs-sync"),
    ("nova-relaxed", "splitfs-sync"),
    ("nova-strict", "splitfs-strict"),
]
WORKLOADS = ["ycsb-loadA", "ycsb-runA", "tpcc"]


def run_workload(system, workload):
    if workload == "ycsb-loadA":
        return ycsb_workload(system, "load")
    if workload == "ycsb-runA":
        return ycsb_workload(system, "A")
    return tpcc_workload(system)


def run_all():
    systems = {s for pair in PAIRS for s in pair}
    return {
        (system, wl): run_workload(system, wl)
        for system in systems
        for wl in WORKLOADS
    }


def main() -> int:
    results = run_all()

    def overhead(system, wl):
        return results[(system, wl)].account.software_overhead_ns

    rows = []
    for system, ref in PAIRS:
        row = [system, f"(vs {ref})"]
        for wl in WORKLOADS:
            row.append(f"{overhead(system, wl) / overhead(ref, wl):.2f}x")
        rows.append(row)
    print(render_table(
        "Figure 5: software overhead relative to SplitFS at equal "
        "guarantees (lower is better; SplitFS = 1.00x)",
        ["file system", "reference", *WORKLOADS], rows,
    ))
    print()

    claims = Claims()
    # SplitFS has the lowest software overhead at equal guarantees for
    # every write-heavy workload.
    claims.compare(
        "software overhead / SplitFS's at equal guarantees",
        {f"{system} {wl}": overhead(system, wl) / overhead(ref, wl)
         for system, ref in PAIRS for wl in WORKLOADS}, ">", 1)
    # ext4-DAX overhead is large (paper: up to 3.6x) on some workload.
    ext4 = {wl: overhead("ext4dax", wl) / overhead("splitfs-posix", wl)
            for wl in WORKLOADS}
    largest = max(ext4, key=ext4.get)
    claims.compare("largest ext4dax / splitfs-posix software overhead",
                   ext4[largest], ">", 1.5, where=largest)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
