"""Figure 4: performance on different IO patterns, per guarantee group.

Five microbenchmarks (4 KB sequential/random reads, sequential/random
overwrites, appends over one file), with each file system normalized to the
baseline of its guarantee group: ext4-DAX (POSIX), PMFS (sync),
NOVA-strict (strict) — higher is better.

Paper shapes claimed: SplitFS wins clearly on every write pattern in every
group (up to ~8x on POSIX appends), and is modestly better or comparable on
reads.
"""

import sys

from claims import Claims

from repro.bench import io_pattern_workload
from repro.bench.report import render_bar_figure, render_table

PATTERNS = ["seq-read", "rand-read", "seq-write", "rand-write", "append"]
GROUPS = {
    "POSIX (baseline ext4-DAX)": ("ext4dax", ["ext4dax", "splitfs-posix"]),
    "sync (baseline PMFS)": ("pmfs", ["pmfs", "nova-relaxed", "splitfs-sync"]),
    "strict (baseline NOVA-strict)": (
        "nova-strict", ["nova-strict", "strata", "splitfs-strict"]),
}


def run_all():
    out = {}
    for pattern in PATTERNS:
        for _, (_, systems) in GROUPS.items():
            for system in systems:
                if (system, pattern) not in out:
                    out[(system, pattern)] = io_pattern_workload(
                        system, pattern, file_bytes=8 * 1024 * 1024)
    return out


def main() -> int:
    results = run_all()

    def tput(system, pattern):
        m = results[(system, pattern)]
        return m.operations / (m.total_ns / 1e9) / 1e6  # Mops/s

    sections = []
    figure_groups = {}
    for group_name, (baseline, systems) in GROUPS.items():
        rows = []
        for pattern in PATTERNS:
            base = tput(baseline, pattern)
            row = [pattern, f"{base:.2f} Mops/s"]
            for system in systems:
                row.append(f"{tput(system, pattern) / base:.2f}x")
            rows.append(row)
        sections.append(render_table(
            f"Figure 4 — {group_name}",
            ["pattern", "baseline abs"] + systems, rows,
        ))
        figure_groups[group_name] = {
            s: tput(s, "append") / tput(baseline, "append") for s in systems
        }
    text = "\n\n".join(sections)
    text += "\n\n" + render_bar_figure(
        "Figure 4 (bars): append throughput normalized to group baseline",
        figure_groups,
    )
    print(text)
    print()

    def ratios(system, baseline, patterns):
        return {p: tput(system, p) / tput(baseline, p) for p in patterns}

    claims = Claims()
    # POSIX group: SplitFS >= ext4 everywhere; appends by far the most.
    claims.compare("splitfs-posix / ext4dax throughput",
                   ratios("splitfs-posix", "ext4dax", PATTERNS), ">=", 0.95)
    claims.compare("splitfs-posix / ext4dax append throughput",
                   tput("splitfs-posix", "append") / tput("ext4dax", "append"),
                   ">", 4.0)
    writes = ("seq-write", "rand-write", "append")
    # Sync group: SplitFS beats PMFS on writes.
    claims.compare("splitfs-sync / pmfs write throughput",
                   ratios("splitfs-sync", "pmfs", writes), ">", 1.3)
    # Strict group: SplitFS beats NOVA-strict on writes (paper: up to 5.8x
    # on random writes thanks to cheaper logging).
    claims.compare("splitfs-strict / nova-strict write throughput",
                   ratios("splitfs-strict", "nova-strict", writes), ">", 1.3)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
