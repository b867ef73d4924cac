"""Table 1: software overhead of appending a 4 KB block.

Paper numbers (ns/op): ext4-DAX 9002 (overhead 8331, 1241%), PMFS 4150
(3479, 518%), NOVA-strict 3021 (2350, 350%), SplitFS-strict 1251 (580, 86%),
SplitFS-POSIX 1160 (488, 73%).  Writing 4 KB to PM takes 671 ns.
"""

import sys

from claims import Claims

from repro.bench import append_4k_workload
from repro.bench.report import render_table
from repro.pmem.constants import PM_WRITE_4K_NS

SYSTEMS = ["ext4dax", "pmfs", "nova-strict", "splitfs-strict", "splitfs-posix"]
PAPER = {"ext4dax": 9002, "pmfs": 4150, "nova-strict": 3021,
         "splitfs-strict": 1251, "splitfs-posix": 1160}


def main() -> int:
    results = {name: append_4k_workload(name) for name in SYSTEMS}

    rows = []
    for name in SYSTEMS:
        m = results[name]
        overhead = m.ns_per_op - PM_WRITE_4K_NS
        rows.append([
            name,
            f"{m.ns_per_op:.0f}",
            f"{overhead:.0f}",
            f"{overhead / PM_WRITE_4K_NS * 100:.0f}%",
            f"{PAPER[name]}",
        ])
    print(render_table(
        "Table 1: 4K append — time, software overhead (671 ns = raw PM write)",
        ["file system", "append ns/op", "overhead ns", "overhead %", "paper ns/op"],
        rows,
    ))
    print()

    t = {n: results[n].ns_per_op for n in SYSTEMS}

    def ordered(*names):
        """Each system's ns/op over the next faster one's, keyed b / a."""
        return {f"{b} / {a}": t[b] / t[a] for a, b in zip(names, names[1:])}

    claims = Claims()
    # Shape claims: strict ordering of overheads as in the paper.
    claims.compare(
        "ns/op ratio along splitfs-posix < splitfs-strict < nova-strict",
        ordered("splitfs-posix", "splitfs-strict", "nova-strict"), ">", 1)
    claims.compare("ns/op ratio along nova-strict < pmfs < ext4dax",
                   ordered("nova-strict", "pmfs", "ext4dax"), ">", 1)
    # Magnitudes within 25% of the paper.
    claims.compare("|ns/op - paper's| / paper's", {
        name: abs(t[name] - PAPER[name]) / PAPER[name] for name in SYSTEMS
    }, "<", 0.25)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
