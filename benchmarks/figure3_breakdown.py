"""Figure 3: contribution of each SplitFS technique.

Two write-intensive microbenchmarks (sequential 4K overwrites and 4K
appends, fsync every 10 operations) run under four configurations:

1. ext4-DAX (the baseline),
2. split architecture only (data ops in user space; appends fall through
   to the kernel because without staging they are metadata operations),
3. + staging (appends buffered in staging files, copied at fsync),
4. + relink (the full system: staged appends spliced without copies).

Paper shapes: overwrites gain >2x from the split alone and almost nothing
from staging/relink; appends gain ~2x from staging and a further jump
(5x total over the staged-copy configuration's baseline) once relink
removes the fsync copies.
"""

import sys

from claims import Claims

from repro.bench import io_pattern_workload
from repro.bench.report import render_bar_figure
from repro.core.splitfs import SplitFSConfig

CONFIGS = [
    ("ext4-DAX", "ext4dax", None),
    ("+split", "splitfs-posix", SplitFSConfig(use_staging=False)),
    ("+staging", "splitfs-posix", SplitFSConfig(use_relink=False)),
    ("+relink", "splitfs-posix", SplitFSConfig()),
]


def run_all():
    out = {}
    for label, system, cfg in CONFIGS:
        for pattern in ("seq-write", "append"):
            m = io_pattern_workload(system, pattern, fsync_every=10,
                                    splitfs_config=cfg)
            out[(label, pattern)] = m.operations / (m.total_ns / 1e9) / 1e6
    return out


def main() -> int:
    tput = run_all()

    groups = {}
    for pattern, title in (("seq-write", "sequential 4K overwrites"),
                           ("append", "4K appends")):
        base = tput[("ext4-DAX", pattern)]
        groups[title] = {
            label: tput[(label, pattern)] / base for label, _, _ in CONFIGS
        }
    print(render_bar_figure(
        "Figure 3: SplitFS technique contributions "
        "(normalized to ext4-DAX, fsync every 10 ops)", groups,
    ))
    print()

    claims = Claims()
    ow = {label: tput[(label, "seq-write")] for label, _, _ in CONFIGS}
    ap = {label: tput[(label, "append")] for label, _, _ in CONFIGS}
    # Overwrites: the split alone gives >2x; staging/relink change little.
    claims.compare("overwrites, +split / ext4-DAX",
                   ow["+split"] / ow["ext4-DAX"], ">", 2.0)
    claims.compare("overwrites, |+relink - +split| / +split",
                   abs(ow["+relink"] - ow["+split"]) / ow["+split"], "<", 0.35)
    # Appends: split alone does not accelerate them (they go to the kernel).
    claims.compare("appends, +split / ext4-DAX",
                   ap["+split"] / ap["ext4-DAX"], "<", 1.5)
    # Staging buys roughly 2x; relink a clear further jump.
    claims.compare("appends, +staging / ext4-DAX",
                   ap["+staging"] / ap["ext4-DAX"], ">", 1.5)
    claims.compare("appends, +relink / +staging",
                   ap["+relink"] / ap["+staging"], ">", 1.5)
    claims.compare("appends, +relink / ext4-DAX",
                   ap["+relink"] / ap["ext4-DAX"], ">", 4.0)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
