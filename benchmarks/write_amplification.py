"""Sections 2.3 / 5: write IO and PM wear on append-heavy workloads.

Strata writes appended data twice (private log, then digest into the shared
area) — up to 2x PM wear; SplitFS writes data exactly once and relinks.
The paper also reports SplitFS producing ~2x less write IO than Strata on
some workloads.  We measure bytes actually written to the device.
"""

import sys

from claims import Claims

from repro.bench.harness import DEFAULT_PM
from repro.bench.report import render_table
from repro.factory import make_filesystem
from repro.posix import flags as F

TOTAL = 8 * 1024 * 1024
BLOCK = 4096

SYSTEMS = ["splitfs-strict", "nova-strict", "strata", "ext4dax"]


def append_and_settle(system):
    machine, fs = make_filesystem(system, pm_size=DEFAULT_PM)
    fd = fs.open("/wear", F.O_CREAT | F.O_RDWR)
    before = machine.pm.stats.snapshot()
    for i in range(TOTAL // BLOCK):
        fs.write(fd, b"w" * BLOCK)
        if (i + 1) % 100 == 0:
            fs.fsync(fd)
    fs.fsync(fd)
    if hasattr(fs, "digest"):
        fs.digest()  # force Strata's second copy to happen now
    delta = machine.pm.stats.delta_since(before)
    return delta


def main() -> int:
    results = {name: append_and_settle(name) for name in SYSTEMS}
    rows = []
    for name in SYSTEMS:
        d = results[name]
        rows.append([
            name,
            f"{d.data_bytes_written / (1 << 20):.1f} MB",
            f"{d.data_bytes_written / TOTAL:.2f}x",
            f"{d.meta_bytes_written / (1 << 20):.2f} MB",
            f"{(d.bytes_written) / TOTAL:.2f}x",
        ])
    print(render_table(
        "Write IO for 8 MB of 4K appends (data amplification: Strata ~2x, "
        "SplitFS ~1x — paper Sections 2.3/5)",
        ["file system", "data written", "data amp", "metadata written",
         "total amp"], rows,
    ))
    print()

    claims = Claims()
    amp = {n: results[n].data_bytes_written / TOTAL for n in SYSTEMS}
    # Strata writes the data twice; SplitFS once.
    claims.compare("strata data amplification", amp["strata"], "in",
                   (1.8, 2.3))
    claims.compare("splitfs-strict data amplification",
                   amp["splitfs-strict"], "<", 1.1)
    claims.compare("nova-strict data amplification",
                   amp["nova-strict"], "<", 1.1)
    # SplitFS total write IO is ~2x lower than Strata's.
    claims.compare("strata / splitfs-strict total bytes written",
                   results["strata"].bytes_written
                   / results["splitfs-strict"].bytes_written, ">", 1.5)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
