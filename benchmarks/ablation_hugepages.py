"""Section 4 ablation: huge pages are fragile, and losing them hurts reads.

The paper found that (a) huge-page mappings need 2 MB alignment in both
virtual and physical space, (b) PM fragmentation makes fresh huge mappings
impossible after file churn, and (c) losing huge pages cost ~50% of read
performance.  SplitFS sidesteps this by pre-allocating aligned staging files
early and reusing their mappings.

Three configurations of a cold 8 MB sequential read (mapping population
included in the measurement):

1. huge pages available (fresh PM, aligned allocations),
2. huge pages disabled (every mapping uses 4 KB pages),
3. PM pre-fragmented by file churn (huge mappings impossible).
"""

import sys

from claims import Claims

from repro.bench.harness import DEFAULT_PM
from repro.bench.report import render_table
from repro.core.splitfs import SplitFSConfig
from repro.factory import make_filesystem
from repro.posix import flags as F

FILE = 8 * 1024 * 1024
BLOCK = 4096


def fragment_pm(fs):
    """File churn that shreds the allocator's free space (Section 4)."""
    for round_ in range(2):
        for i in range(600):
            fd = fs.open(f"/frag-{round_}-{i}", F.O_CREAT | F.O_RDWR)
            fs.write(fd, b"f" * BLOCK * 3)
            fs.close(fd)
        for i in range(0, 600, 2):
            fs.unlink(f"/frag-{round_}-{i}")


def cold_read(config: SplitFSConfig, fragment: bool):
    machine, fs = make_filesystem("splitfs-posix", pm_size=DEFAULT_PM,
                                  splitfs_config=config)
    if fragment:
        fragment_pm(fs)
    fd = fs.open("/data", F.O_CREAT | F.O_RDWR)
    for off in range(0, FILE, 64 * 1024):
        fs.pwrite(fd, b"d" * 64 * 1024, off)
    fs.fsync(fd)
    # A *different* process reads the file: its U-Split starts with an empty
    # mapping collection, so the reads pay the real mapping/fault costs.
    from repro.core import SplitFS

    reader = SplitFS(fs.kfs, config=config)
    rfd = reader.open("/data", F.O_RDWR)
    vm = machine.vm
    before = _vm_snapshot(vm)
    with machine.clock.measure() as acct:
        for off in range(0, FILE, BLOCK):
            reader.pread(rfd, BLOCK, off)
    return acct.total_ns, _vm_delta(before, vm)


def _vm_snapshot(vm):
    return dict(vars(vm.stats))


def _vm_delta(before, vm):
    from repro.kernel.vm import VMStats

    return VMStats(**{k: getattr(vm.stats, k) - before[k] for k in before})


def main() -> int:
    results = {
        "huge pages": cold_read(SplitFSConfig(), fragment=False),
        "no huge pages": cold_read(
            SplitFSConfig(want_huge_pages=False), fragment=False),
        "fragmented PM": cold_read(SplitFSConfig(), fragment=True),
    }
    nops = FILE // BLOCK
    rows = []
    for label, (ns, vmstats) in results.items():
        rows.append([
            label,
            f"{ns / nops:.0f} ns/read",
            f"{vmstats.faults_huge}",
            f"{vmstats.faults_4k}",
            f"{vmstats.huge_mappings}/{vmstats.huge_mappings + vmstats.small_mappings}",
        ])
    print(render_table(
        "Section 4 ablation: cold 4K reads of an 8 MB file "
        "(paper: losing huge pages cost ~50% read performance)",
        ["configuration", "read latency", "huge faults", "4K faults",
         "huge mappings"], rows,
    ))
    print()

    claims = Claims()
    t_huge = results["huge pages"][0]
    t_small = results["no huge pages"][0]
    t_frag = results["fragmented PM"][0]
    # Huge pages must be materially faster for cold reads.
    claims.compare("no-huge-pages / huge-pages cold read time",
                   t_small / t_huge, ">", 1.2)
    # Fragmentation degrades toward the no-huge-pages case.
    claims.compare("fragmented-PM / huge-pages cold read time",
                   t_frag / t_huge, ">", 1.1)
    # And fragmentation actually prevented huge mappings for the data file.
    frag_stats = results["fragmented PM"][1]
    huge_stats = results["huge pages"][1]
    claims.compare("fragmented-PM / huge-pages 4K faults",
                   frag_stats.faults_4k / huge_stats.faults_4k, ">", 1)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
