"""Table 7: SplitFS-strict vs Strata on YCSB/LevelDB.

The paper could only run Strata on a smaller-scale YCSB (1M records / 1M
ops with a 20 GB private log) and reports SplitFS-strict at 1.72x-2.25x
Strata's throughput across workloads A-F.  We run the same matrix at
simulation scale and claim SplitFS-strict wins every workload.
"""

import sys

from claims import Claims

from repro.bench import ycsb_workload
from repro.bench.report import render_table

WORKLOADS = ["load", "A", "B", "C", "D", "E", "F"]
PAPER_RATIO = {"load": 1.73, "A": 1.76, "B": 2.16, "C": 2.14, "D": 2.25,
               "E": 2.03, "F": 2.25}


def run_all():
    out = {}
    for wl in WORKLOADS:
        for system in ("strata", "splitfs-strict"):
            out[(system, wl)] = ycsb_workload(system, wl)
    return out


def main() -> int:
    results = run_all()

    def label(wl):
        return "Load A" if wl == "load" else f"Run {wl}"

    rows = []
    for wl in WORKLOADS:
        strata = results[("strata", wl)].kops_per_sec
        splitfs = results[("splitfs-strict", wl)].kops_per_sec
        rows.append([
            label(wl),
            f"{strata:.1f} kops/s",
            f"{splitfs / strata:.2f}x",
            f"{PAPER_RATIO[wl]:.2f}x",
        ])
    print(render_table(
        "Table 7: SplitFS-strict vs Strata (YCSB on LevelDB)",
        ["workload", "Strata abs", "SplitFS-strict", "paper"], rows,
    ))
    print()

    claims = Claims()
    # SplitFS-strict outperforms Strata on every workload (paper: 1.7-2.3x).
    claims.compare("SplitFS-strict / Strata throughput", {
        label(wl): results[("splitfs-strict", wl)].kops_per_sec
        / results[("strata", wl)].kops_per_sec for wl in WORKLOADS
    }, ">", 1.0)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
