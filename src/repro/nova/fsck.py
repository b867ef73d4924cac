"""Integrity checker for the simulated NOVA.

Invariants checked on a mounted instance:

* data extents and log pages lie inside the data region, no block is owned
  twice (data vs. data, log vs. log, or across inodes);
* every directory entry points to a live inode; live inodes are reachable;
* block accounting partitions the data region between claims and free space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..kernel.claims import OUTSIDE, BlockClaims
from .filesystem import NovaFS, ROOT_INO


@dataclass
class NovaFsckReport:
    errors: List[str] = field(default_factory=list)
    inodes_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.errors

    def error(self, message: str) -> None:
        self.errors.append(message)


def _claim(report: NovaFsckReport, claimed: BlockClaims, block: int,
           length: int, what: str) -> None:
    """Give ``length`` blocks from ``block`` to ``what``; any second claim
    of a block is an error."""
    for b, owner in claimed.claim(block, length, what):
        if owner is OUTSIDE:
            report.error(f"{what}: block {b} outside data region")
        else:
            report.error(f"block {b} claimed by {owner} and {what}")


def fsck(fs: NovaFS) -> NovaFsckReport:
    report = NovaFsckReport()
    claimed = BlockClaims(fs.data_start, fs.total_blocks)  # block -> what

    for ino, inode in fs.inodes.items():
        report.inodes_checked += 1
        if inode.nlink <= 0:
            report.error(f"ino {ino}: live inode with nlink={inode.nlink}")
        for ext in inode.extmap:
            _claim(report, claimed, ext.phys, ext.length, f"ino {ino} data")
        for page in inode.log_pages:
            _claim(report, claimed, page, 1, f"ino {ino} log")

    if ROOT_INO not in fs.inodes:
        report.error("no root inode")
        return report
    reachable = set()
    stack = [ROOT_INO]
    while stack:
        ino = stack.pop()
        if ino in reachable:
            report.error(f"directory cycle through ino {ino}")
            continue
        reachable.add(ino)
        inode = fs.inodes.get(ino)
        if inode is None or not inode.is_dir:
            continue
        for name, child in inode.entries.items():
            if child not in fs.inodes:
                report.error(f"dirent {name!r} in ino {ino} -> dead ino {child}")
            elif fs.inodes[child].is_dir:
                stack.append(child)
            else:
                reachable.add(child)
    for ino in fs.inodes:
        if ino not in reachable and ino not in fs.orphans:
            report.error(f"ino {ino} live but unreachable")

    total_data = fs.total_blocks - fs.data_start
    accounted = len(claimed) + fs.alloc.free_blocks
    if accounted != total_data:
        report.error(
            f"block accounting mismatch: {len(claimed)} claimed + "
            f"{fs.alloc.free_blocks} free != {total_data}"
        )
    return report


def assert_clean(fs: NovaFS) -> NovaFsckReport:
    report = fsck(fs)
    if not report.clean:
        raise AssertionError("nova fsck found errors:\n  "
                             + "\n  ".join(report.errors))
    return report
