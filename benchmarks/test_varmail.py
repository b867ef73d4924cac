"""Varmail personality across systems (complements Table 6's microbench).

The paper's Section 5.4 premise: trading slower metadata operations for
faster data operations wins on mixed workloads because data ops dominate.
Varmail is the canonical mixed mail-server workload; SplitFS should come out
ahead of ext4-DAX overall despite losing on open/close/unlink.
"""

from conftest import run_once

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


def test_varmail(benchmark, emit):
    def experiment():
        return {s: run_varmail(s) for s in SYSTEMS}

    results = run_once(benchmark, experiment)
    rows = [[s, f"{ns / 1000:.2f} us/op"] for s, ns in results.items()]
    emit("varmail", render_table(
        "Varmail personality: mean latency per workload operation",
        ["system", "latency"], rows,
    ))

    # The paper's trade-off premise (Table 6 compares against ext4-DAX):
    # despite slower metadata ops, SplitFS wins the mixed workload.
    assert results["splitfs-posix"] < results["ext4dax"] * 0.75
    # Against NOVA-strict, fsync-per-message workloads are SplitFS's worst
    # case (every fsync is a journaled relink vs NOVA's no-op fsync); we
    # only require it stays within the same order of magnitude.
    assert results["splitfs-strict"] < results["nova-strict"] * 3.0
