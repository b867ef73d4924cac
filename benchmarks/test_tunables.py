"""Section 3.6: SplitFS tunable parameters.

Sweeps the three tunables the paper exposes — mmap size, staging-file count,
and operation-log size — and reports their performance effects:

* larger mmaps amortize VMA setup over more data (fewer, bigger mappings);
* more/larger staging reduces background refills under append pressure;
* a small operation log forces frequent checkpoints (relink-all + zero).
"""

from conftest import run_once

from repro.bench import io_pattern_workload
from repro.bench.report import render_table
from repro.core.splitfs import SplitFSConfig
from repro.pmem.constants import HUGE_PAGE_SIZE


def test_mmap_size_sweep(benchmark, emit):
    def experiment():
        out = {}
        for mult in (1, 4, 16):  # 2 MB .. 32 MB (paper: 2 MB .. 512 MB)
            cfg = SplitFSConfig(map_size=mult * HUGE_PAGE_SIZE)
            m = io_pattern_workload("splitfs-posix", "seq-read",
                                    splitfs_config=cfg)
            out[mult] = m
        return out

    results = run_once(benchmark, experiment)
    rows = [
        [f"{mult * 2} MB", f"{m.ns_per_op:.0f} ns/read"]
        for mult, m in sorted(results.items())
    ]
    emit("tunables_mmap_size", render_table(
        "Section 3.6: mmap() size sweep (sequential 4K reads)",
        ["mmap size", "read latency"], rows,
    ))
    # Larger mappings never hurt sequential reads (fewer VMA setups).
    assert results[16].ns_per_op <= results[1].ns_per_op * 1.05


def test_staging_pool_sweep(benchmark, emit):
    def experiment():
        out = {}
        for count, size in ((2, 2 << 20), (4, 8 << 20)):
            cfg = SplitFSConfig(staging_count=count, staging_size=size)
            machine_holder = {}

            m = io_pattern_workload("splitfs-posix", "append",
                                    file_bytes=16 << 20, fsync_every=50,
                                    splitfs_config=cfg)
            out[(count, size)] = m
        return out

    results = run_once(benchmark, experiment)
    rows = [
        [f"{count} x {size >> 20} MB", f"{m.ns_per_op:.0f} ns/append"]
        for (count, size), m in sorted(results.items())
    ]
    emit("tunables_staging", render_table(
        "Section 3.6: staging pool sweep (16 MB of 4K appends)",
        ["staging pool", "append latency"], rows,
    ))
    small = results[(2, 2 << 20)]
    large = results[(4, 8 << 20)]
    # A generous pool is never slower in the foreground.
    assert large.ns_per_op <= small.ns_per_op * 1.10


def test_oplog_size_sweep(benchmark, emit):
    from repro.bench.harness import DEFAULT_PM
    from repro.factory import make_filesystem
    from repro.posix import flags as F

    def run_with_log(log_bytes):
        machine, fs = make_filesystem(
            "splitfs-strict", pm_size=DEFAULT_PM,
            splitfs_config=SplitFSConfig(oplog_bytes=log_bytes))
        fd = fs.open("/f", F.O_CREAT | F.O_RDWR)
        with machine.clock.measure() as acct:
            for _ in range(4000):
                fs.write(fd, b"x" * 256)
        return acct.total_ns / 4000, fs.oplog.checkpoints

    def experiment():
        return {
            "64 KB log": run_with_log(64 * 1024),
            "2 MB log": run_with_log(2 * 1024 * 1024),
        }

    results = run_once(benchmark, experiment)
    rows = [
        [label, f"{ns:.0f} ns/op", f"{ckpts}"]
        for label, (ns, ckpts) in results.items()
    ]
    emit("tunables_oplog", render_table(
        "Section 3.6: operation-log size sweep (4000 small strict writes)",
        ["log size", "write latency", "checkpoints forced"], rows,
    ))
    small_ns, small_ckpts = results["64 KB log"]
    big_ns, big_ckpts = results["2 MB log"]
    # A small log forces checkpoints; a right-sized one avoids them (the
    # paper sizes the log so "small bursts" never checkpoint).
    assert small_ckpts > 0
    assert big_ckpts == 0
    assert big_ns <= small_ns
