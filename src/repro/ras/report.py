"""The ``repro ras-report`` experiment driver.

Three demonstrations of the online RAS layer, printed as one report:

1. **Checksum overhead** — the same 4K-append + fsync workload with the RAS
   layer off and on, quantifying what metadata replication and inline CRC
   verification cost per operation (the paper's "software overhead" lens
   applied to reliability).
2. **Repair ledger** — a file's extents are protected, seeded random poison
   is scattered over them, and the file is read back: every media error is
   detected and repaired from the replica (``detected == repaired``,
   ``unrecoverable == 0``, contents intact).  The same run with replication
   disabled surfaces a clean EIO instead — no crash, no wrong data.
3. **Graceful degradation** — a workload sized to exhaust staging space
   completes with zero failed writes by falling back to the kernel path,
   and the ledger shows the retry/degradation counters.
"""

from __future__ import annotations

import random
from typing import List

from ..bench.harness import io_pattern_workload
from ..bench.report import render_ras_summary, render_table
from ..core.modes import Mode
from ..core.splitfs import SplitFS, SplitFSConfig
from ..ext4.filesystem import Ext4Config, Ext4DaxFS
from ..kernel.machine import Machine
from ..posix import flags as F
from ..posix.errors import FSError, IOFSError
from .controller import RASConfig

BLOCK = 4096


def _overhead_section(system: str, lines: List[str]) -> None:
    base = io_pattern_workload(system, "append", file_bytes=2 * 1024 * 1024,
                               fsync_every=100)
    prot = io_pattern_workload(system, "append", file_bytes=2 * 1024 * 1024,
                               fsync_every=100, ras=True)
    delta = prot.ns_per_op - base.ns_per_op
    pct = 100.0 * delta / base.ns_per_op if base.ns_per_op else 0.0
    lines.append(render_table(
        f"Checksum/replication overhead — {system}, 4K append + fsync/100",
        ["run", "ns/op", "sw overhead ns/op", "replica bytes", "crc bytes"],
        [
            ["ras-off", f"{base.ns_per_op:.0f}",
             f"{base.software_overhead_ns_per_op:.0f}", "0", "0"],
            ["ras-on", f"{prot.ns_per_op:.0f}",
             f"{prot.software_overhead_ns_per_op:.0f}",
             f"{prot.extras.get('ras_replica_bytes_written', 0):.0f}",
             f"{prot.extras.get('ras_crc_bytes_verified', 0):.0f}"],
            ["delta", f"{delta:+.0f}", "", "", f"({pct:+.1f}%)"],
        ]))
    lines.append("")


def _repair_section(lines: List[str], seed: int) -> None:
    results = []
    for replicate in (True, False):
        machine = Machine()
        ras = machine.enable_ras(RASConfig(replicate=replicate))
        fs = Ext4DaxFS.format(machine)
        payload = bytes(random.Random(seed).randrange(256)
                        for _ in range(BLOCK)) * 16
        fs.write_file("/victim", payload)
        fd = fs.open("/victim", F.O_RDWR)
        fs.fsync(fd)
        fs.ras_protect_file("/victim")
        # Setup (replication + protect) bumps RAS counters too; rewind them
        # through the consolidated reset so the ledger below shows only the
        # repair activity of the poisoned read-back.
        ras.stats.reset()
        ext = fs.inodes[fs._resolve("/victim")].extmap.physical_extents()[0]
        hits = machine.faults.poison_rate(
            0.02, seed=seed,
            region=(ext.start * BLOCK, (ext.start + ext.length) * BLOCK))
        outcome = "?"
        try:
            data = fs.pread(fd, len(payload), 0)
            outcome = ("read OK, intact" if data == payload
                       else "READ OK BUT WRONG DATA")
        except IOFSError:
            outcome = "clean EIO"
        results.append([
            "replicated" if replicate else "checksum-only",
            str(hits),
            str(ras.stats.detected),
            str(ras.stats.repaired),
            str(ras.stats.unrecoverable),
            outcome,
        ])
    lines.append(render_table(
        f"Poisoned-extent repair — ext4dax, poison_rate(p=0.02, seed={seed})",
        ["config", "lines poisoned", "detected", "repaired", "unrecov",
         "outcome"],
        results))
    lines.append("")


def _degradation_section(lines: List[str]) -> None:
    # Small enough that the staging pool runs out of space: the section
    # exists to show SplitFS degrading instead of failing writes.
    machine = Machine(pm_size=48 * 1024 * 1024)
    machine.enable_ras()
    kfs = Ext4DaxFS.format(machine, Ext4Config(journal_blocks=256,
                                               max_inodes=256))
    fs = SplitFS(kfs, Mode.POSIX,
                 SplitFSConfig(staging_count=1, staging_size=4 * 1024 * 1024))
    fd = fs.open("/big", F.O_CREAT | F.O_RDWR)
    failed = 0
    offset = 0
    # 64K appends past the point where the 4 MB staging pool can refill,
    # then 4K appends into the remaining slack.
    for _ in range(655):
        try:
            fs.pwrite(fd, b"d" * 65536, offset)
        except FSError:
            failed += 1
        offset += 65536
    for _ in range(200):
        try:
            fs.pwrite(fd, b"t" * BLOCK, offset)
        except FSError:
            failed += 1
        offset += BLOCK
    st = fs.rstats
    lines.append(render_table(
        "Graceful degradation — splitfs-posix, staging exhaustion (48 MB device)",
        ["writes", "failed", "enospc retries", "degraded entries",
         "degraded ops", "still degraded"],
        [[str(655 + 200), str(failed), str(st.enospc_retries),
          str(st.degraded_entries), str(st.degraded_ops), str(fs.degraded)]]))
    lines.append("")


def run_ras_report(system: str = "splitfs-posix", seed: int = 11) -> str:
    lines: List[str] = []
    _overhead_section(system, lines)
    _repair_section(lines, seed)
    _degradation_section(lines)
    meas = [io_pattern_workload(system, "append",
                                file_bytes=2 * 1024 * 1024,
                                fsync_every=100, ras=True)]
    lines.append(render_ras_summary(meas))
    return "\n".join(lines)
