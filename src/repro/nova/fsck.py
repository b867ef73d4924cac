"""Integrity checker for the simulated NOVA.

Invariants checked on a mounted instance:

* data extents and log pages lie inside the data region, no block is owned
  twice (data vs. data, log vs. log, or across inodes);
* every directory entry points to a live inode; live inodes are reachable;
* block accounting partitions the data region between claims, free space
  and the RAS metadata mirror.
"""

from __future__ import annotations

from ..kernel.claims import OUTSIDE, BlockClaims, FsckReport, walk_namespace
from .filesystem import NovaFS, ROOT_INO


def _claim(report: FsckReport, claimed: BlockClaims, block: int,
           length: int, what: str) -> None:
    """Give ``length`` blocks from ``block`` to ``what``; any second claim
    of a block is an error."""
    for b, owner in claimed.claim(block, length, what):
        if owner is OUTSIDE:
            report.error(f"{what}: block {b} outside data region")
        else:
            report.error(f"block {b} claimed by {owner} and {what}")


def fsck(fs: NovaFS) -> FsckReport:
    report = FsckReport()
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
    reachable, errors = walk_namespace(fs.inodes, fs._dir_entries)
    report.errors += errors
    for ino in fs.inodes:
        if ino not in reachable and ino not in fs.orphans:
            report.error(f"ino {ino} live but unreachable")

    total_data = fs.total_blocks - fs.data_start
    # The RAS metadata mirror (superblock + inode-table replicas) sits in
    # the data region but belongs to no inode.
    ras_mirror = ((1 + fs.data_start - fs.itable_start)
                  if fs.ras_replica_start else 0)
    accounted = len(claimed) + fs.alloc.free_blocks + ras_mirror
    if accounted != total_data:
        report.error(
            f"block accounting mismatch: {len(claimed)} claimed + "
            f"{fs.alloc.free_blocks} free + {ras_mirror} ras-mirror "
            f"!= {total_data}"
        )
    return report


def assert_clean(fs: NovaFS) -> FsckReport:
    report = fsck(fs)
    if not report.clean:
        raise AssertionError("nova fsck found errors:\n  "
                             + "\n  ".join(report.errors))
    return report
