"""Section 3.3 ablation: SplitFS's one-line/one-fence operation logging.

SplitFS logs each operation as a single 64-byte entry with an embedded
checksum and one fence; NOVA-style logging writes two cache lines (entry +
persistent tail pointer) with two fences.  The paper credits this with 4x
faster logging in the critical path and half the log writes/fences.
"""

import sys

from claims import Claims

from repro.bench import io_pattern_workload
from repro.bench.report import render_table
from repro.core.oplog import DataEntry, OP_APPEND, OperationLog
from repro.core.splitfs import SplitFSConfig
from repro.kernel.machine import Machine


def log_microbench(two_fence: bool, n: int = 5000):
    machine = Machine(64 * 1024 * 1024)
    log = OperationLog(machine.pm, 0, 8 * 1024 * 1024, two_fence=two_fence)
    log.initialize()
    fences_before = machine.pm.stats.fences
    bytes_before = machine.pm.stats.meta_bytes_written
    with machine.clock.measure() as acct:
        for i in range(n):
            log.append(DataEntry(OP_APPEND, i + 1, 2, 3, 4096, i * 4096, 0))
    return {
        "ns_per_entry": acct.total_ns / n,
        "fences_per_entry": (machine.pm.stats.fences - fences_before) / n,
        "bytes_per_entry": (machine.pm.stats.meta_bytes_written - bytes_before) / n,
    }


def main() -> int:
    micro = {
        "splitfs (1 line, 1 fence)": log_microbench(False),
        "nova-style (2 lines, 2 fences)": log_microbench(True),
    }
    e2e = {
        "splitfs log": io_pattern_workload(
            "splitfs-strict", "append",
            splitfs_config=SplitFSConfig()),
        "nova-style log": io_pattern_workload(
            "splitfs-strict", "append",
            splitfs_config=SplitFSConfig(oplog_two_fence=True)),
    }
    rows = []
    for label, r in micro.items():
        rows.append([label, f"{r['ns_per_entry']:.0f} ns",
                     f"{r['fences_per_entry']:.1f}",
                     f"{r['bytes_per_entry']:.0f} B"])
    for label, m in e2e.items():
        rows.append([label + " (4K appends e2e)", f"{m.ns_per_op:.0f} ns/op",
                     "-", "-"])
    print(render_table(
        "Section 3.3 ablation: operation-log critical path "
        "(paper: half the writes and fences, 4x faster logging)",
        ["configuration", "cost", "fences/op", "log bytes/op"], rows,
    ))
    print()

    claims = Claims()
    a = micro["splitfs (1 line, 1 fence)"]
    b = micro["nova-style (2 lines, 2 fences)"]
    claims.compare("splitfs fences per log entry",
                   a["fences_per_entry"], "==", 1.0)
    claims.compare("nova-style fences per log entry",
                   b["fences_per_entry"], "==", 2.0)
    claims.compare("nova-style / splitfs log bytes per entry",
                   b["bytes_per_entry"] / a["bytes_per_entry"], ">=", 2)
    claims.compare("nova-style / splitfs ns per log entry",
                   b["ns_per_entry"] / a["ns_per_entry"], ">", 1.8)
    # End to end, appends get measurably slower with two-fence logging.
    claims.compare("nova-style / splitfs log 4K append ns/op",
                   e2e["nova-style log"].ns_per_op
                   / e2e["splitfs log"].ns_per_op, ">", 1.02)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
