"""Section 5.10: SplitFS resource consumption.

The paper reports <=100 MB of DRAM for U-Split metadata (+40 MB in strict
mode) and one background hardware thread.  At our scaled workload sizes we
report the measured DRAM bookkeeping footprint, staging-file space, and the
background-thread time consumed by staging refills.
"""

import sys

from claims import Claims

from repro.bench.report import render_table
from repro.core import Mode, SplitFS
from repro.ext4.filesystem import Ext4DaxFS
from repro.kernel.machine import Machine
from repro.posix import flags as F

PM = 192 * 1024 * 1024


def run_workload(mode):
    m = Machine(PM)
    fs = SplitFS(Ext4DaxFS.format(m), mode=mode)
    for i in range(40):
        fd = fs.open(f"/f{i:03d}", F.O_CREAT | F.O_RDWR)
        for _ in range(8):
            fs.write(fd, b"z" * 4096)
        fs.fsync(fd)
    return fs


def main() -> int:
    results = {}
    for mode in (Mode.POSIX, Mode.STRICT):
        fs = run_workload(mode)
        results[mode.value] = {
            "dram": fs.dram_usage_bytes(),
            "staging": fs.staging.space_in_use(),
            "background_ms": fs.staging.background_account.total_ns / 1e6,
            "refills": fs.staging.background_refills,
            "oplog": fs.config.oplog_bytes if fs.oplog else 0,
        }
    rows = []
    for mode, r in results.items():
        rows.append([
            mode,
            f"{r['dram'] / 1024:.1f} KB",
            f"{r['staging'] / (1 << 20):.1f} MB",
            f"{r['oplog'] / (1 << 20):.1f} MB",
            f"{r['background_ms']:.2f} ms ({r['refills']} refills)",
        ])
    print(render_table(
        "Section 5.10: SplitFS resource consumption (scaled; paper: "
        "<=100 MB DRAM, +40 MB strict, one background thread)",
        ["mode", "U-Split DRAM", "staging space", "op log PM",
         "background thread time"], rows,
    ))
    print()

    claims = Claims()
    # Strict mode uses extra persistent state for its guarantees.
    claims.compare("strict-mode op log (MiB)",
                   results["strict"]["oplog"] / (1 << 20), ">", 0)
    claims.compare("posix-mode op log (MiB)",
                   results["posix"]["oplog"] / (1 << 20), "==", 0)
    # DRAM bookkeeping is modest relative to the data handled (160 files).
    claims.compare("strict-mode U-Split DRAM (KiB)",
                   results["strict"]["dram"] / 1024, "<", 1024)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
