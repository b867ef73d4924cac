"""Aging ablation: performance on a fresh vs a churned (aged) file system.

Section 4 of the paper: "after a few thousand files were created and
deleted, fragmenting PM, we found it impossible to create any new huge
pages" — and SplitFS's collection-of-mmaps sidesteps this by creating its
huge mappings early (the pre-allocated staging files) and reusing them.

We age the file system with create/delete churn, then measure a cold
append+read workload.  ext4-DAX degrades (new files fragment, reads lose
huge mappings); SplitFS's staged appends keep landing in its early,
huge-aligned staging files.
"""

import sys

from claims import Claims

from repro.bench.harness import DEFAULT_PM
from repro.bench.report import render_table
from repro.factory import make_filesystem
from repro.posix import flags as F

BLOCK = 4096
FILE = 4 * 1024 * 1024


def churn(fs, rounds=2, nfiles=700) -> None:
    for r in range(rounds):
        for i in range(nfiles):
            fd = fs.open(f"/age-{r}-{i}", F.O_CREAT | F.O_RDWR)
            fs.write(fd, b"a" * (BLOCK * (1 + i % 3)))
            fs.close(fd)
        for i in range(0, nfiles, 2):
            fs.unlink(f"/age-{r}-{i}")


def workload(system: str, aged: bool):
    machine, fs = make_filesystem(system, pm_size=DEFAULT_PM)
    if aged:
        churn(fs)
    fd = fs.open("/hot", F.O_CREAT | F.O_RDWR)
    with machine.clock.measure() as acct:
        for off in range(0, FILE, BLOCK):
            fs.pwrite(fd, b"w" * BLOCK, off)
        fs.fsync(fd)
        for off in range(0, FILE, BLOCK):
            fs.pread(fd, BLOCK, off)
    return acct.total_ns / (2 * FILE // BLOCK)


def main() -> int:
    results = {}
    for system in ("ext4dax", "splitfs-posix"):
        results[(system, "fresh")] = workload(system, aged=False)
        results[(system, "aged")] = workload(system, aged=True)
    rows = []
    for system in ("ext4dax", "splitfs-posix"):
        fresh = results[(system, "fresh")]
        aged = results[(system, "aged")]
        rows.append([system, f"{fresh:.0f} ns/op", f"{aged:.0f} ns/op",
                     f"{aged / fresh:.2f}x"])
    print(render_table(
        "Section 4 ablation: fresh vs aged (churned) file system, "
        "4K append+read workload (slowdown factor; lower is better)",
        ["system", "fresh", "aged", "aging slowdown"], rows,
    ))
    print()

    claims = Claims()
    slowdown = {system: results[(system, "aged")] / results[(system, "fresh")]
                for system in ("splitfs-posix", "ext4dax")}
    # Aging stays modest for both (the paper's catastrophic case — no new
    # huge pages at all — is the separate hugepage ablation).
    claims.compare("aging slowdown, aged / fresh ns/op", slowdown, "<", 1.5)
    # SplitFS's advantage survives aging: even aged it beats *fresh* ext4.
    claims.compare("aged splitfs-posix / fresh ext4dax ns/op",
                   results[("splitfs-posix", "aged")]
                   / results[("ext4dax", "fresh")], "<", 1)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
