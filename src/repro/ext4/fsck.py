"""fsck for the simulated ext4: structural integrity checking.

Run after crash-recovery in tests to prove the journal kept metadata
consistent — not just "the files we look at read back", but global
invariants:

* every inode's extents lie inside the data region and within device bounds;
* no physical block is claimed by two inodes (or an inode and a
  continuation block);
* every directory entry points to a live inode; every non-directory inode
  with nlink > 0 is reachable from the root;
* directory sizes cover their dirent slots; file sizes fit their mappings
  (a file may be sparse, never the reverse);
* the allocator's free space and the metadata's claims partition the data
  region (when a live FS instance is supplied).
"""

from __future__ import annotations

from typing import List, Tuple

from ..kernel.claims import OUTSIDE, BlockClaims, FsckReport, walk_namespace
from ..pmem import constants as C
from .filesystem import Ext4DaxFS, ROOT_INO


def _claim(report: FsckReport, claimed: BlockClaims, block: int, length: int,
           ino: int, what: str) -> None:
    """Give ``length`` blocks from ``block`` to ``ino``; a block may be
    claimed again by the same ino, never by another."""
    outside = 0
    for b, owner in claimed.claim(block, length, ino):
        if owner is OUTSIDE:
            outside += 1
            report.error(f"ino {ino}: {what} block {b} outside data region")
        elif owner != ino:
            report.error(
                f"block {b} claimed by both ino {owner} and ino {ino} ({what})"
            )
    report.blocks_claimed += length - outside


def fsck(fs: Ext4DaxFS) -> FsckReport:
    """Check a mounted file system; returns a report (raises nothing)."""
    report = FsckReport()
    claimed = BlockClaims(fs.data_start, fs.total_blocks)  # block -> ino

    # -- per-inode structural checks ---------------------------------------
    for ino, inode in fs.inodes.items():
        report.inodes_checked += 1
        if inode.ino != ino:
            report.error(f"inode table slot {ino} holds record for {inode.ino}")
        if inode.nlink <= 0:
            report.error(f"ino {ino}: live inode with nlink={inode.nlink}")
        last_logical = -1
        for ext in inode.extmap:
            if ext.logical <= last_logical:
                report.error(f"ino {ino}: extents out of order at {ext}")
            last_logical = ext.logical_end - 1
            _claim(report, claimed, ext.phys, ext.length, ino, "data")
        for block in inode.cont_blocks:
            _claim(report, claimed, block, 1, ino, "extent-continuation")
        if inode.is_dir:
            d = fs.dirs.get(ino)
            if d is None:
                report.error(f"ino {ino}: directory without runtime dirents")
                continue
            needed = d.capacity_blocks() * C.BLOCK_SIZE
            if inode.size < needed:
                report.error(
                    f"ino {ino}: dir size {inode.size} < dirent capacity {needed}"
                )
        else:
            # A size beyond every mapping is a sparse tail, which reads as
            # zeros; only mappings a whole block past EOF are an error.
            max_mapped = max((e.logical_end for e in inode.extmap), default=0)
            if max_mapped * C.BLOCK_SIZE >= inode.size + C.BLOCK_SIZE and inode.size > 0:
                report.error(
                    f"ino {ino}: mappings extend a full block past EOF "
                    f"({max_mapped * C.BLOCK_SIZE} vs size {inode.size})"
                )

    # -- namespace connectivity ---------------------------------------------
    if ROOT_INO not in fs.inodes:
        report.error("no root inode")
        return report

    def dirents(ino: int) -> List[Tuple[str, int]]:
        d = fs.dirs.get(ino)
        return [] if d is None else [(name, d.lookup(name))
                                     for name in d.names()]

    reachable, errors = walk_namespace(fs.inodes, dirents)
    report.errors += errors
    for ino in fs.inodes:
        if ino not in reachable and ino not in fs.orphans:
            report.error(f"ino {ino} is live but unreachable from the root")

    # -- allocator consistency ------------------------------------------------
    quarantined = sum(e.length for e in fs._quarantine)
    # The RAS metadata mirror (superblock + inode-table replicas) sits in
    # the data region but belongs to no inode.
    ras_mirror = (1 + fs.config.max_inodes) if fs.ras_replica_start else 0
    accounted = len(claimed) + fs.alloc.free_blocks + quarantined + ras_mirror
    total_data_blocks = fs.total_blocks - fs.data_start
    if accounted != total_data_blocks:
        report.error(
            f"block accounting mismatch: {len(claimed)} claimed + "
            f"{fs.alloc.free_blocks} free + {quarantined} quarantined + "
            f"{ras_mirror} ras-mirror != {total_data_blocks} data blocks"
        )
    return report


def assert_clean(fs: Ext4DaxFS) -> FsckReport:
    """fsck and raise AssertionError with all findings if not clean."""
    report = fsck(fs)
    if not report.clean:
        raise AssertionError("fsck found errors:\n  " + "\n  ".join(report.errors))
    return report
