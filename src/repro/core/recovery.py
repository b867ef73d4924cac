"""SplitFS crash recovery (paper Section 5.3).

POSIX and sync modes need nothing beyond ext4-DAX's own journal recovery —
that happens in :meth:`Ext4DaxFS.mount`.  Strict mode additionally replays
the operation log on top:

* the log region is scanned; non-zero 64-byte slots whose checksum validates
  are valid entries (torn entries are discarded);
* data entries are replayed by copying the staged bytes into the target file
  — a copy, not a relink, so replay is **idempotent** (replaying twice after
  a second crash is safe, as the paper requires);
* entries whose staged range was already relinked are recognized because
  relink leaves a hole in the staging file, and are skipped;
* namespace entries (create/unlink/rename) are re-applied; a re-created file
  gets a fresh inode number, so a translation map carries following data
  entries to the right file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ext4.filesystem import Ext4DaxFS, ROOT_INO
from ..kernel.machine import Machine
from ..pmem import constants as C
from ..posix import flags as F
from .oplog import (
    OP_CREATE,
    OP_MKDIR,
    OP_RENAME_FROM,
    OP_RENAME_TO,
    OP_RMDIR,
    OP_TRUNCATE,
    OP_UNLINK,
    DataEntry,
    NamespaceEntry,
    OperationLog,
)
from .staging import STAGING_DIR


@dataclass
class RecoveryReport:
    """What a strict-mode recovery did."""

    entries_scanned: int = 0
    data_entries_replayed: int = 0
    data_entries_skipped: int = 0
    namespace_entries_replayed: int = 0
    replay_time_ns: float = 0.0


def find_oplogs(kfs: Ext4DaxFS) -> List[Tuple[str, int, int]]:
    """Locate operation-log files: (path, base_addr, size)."""
    out = []
    if not kfs.exists(STAGING_DIR):
        return out
    for name in kfs.listdir(STAGING_DIR):
        if not name.startswith("oplog-"):
            continue
        path = f"{STAGING_DIR}/{name}"
        ino = kfs._resolve(path)
        inode = kfs.inodes[ino]
        if not inode.extmap.extents:
            continue
        ext = inode.extmap.extents[0]
        out.append((path, ext.phys * C.BLOCK_SIZE, inode.size))
    return out


def recover(machine: Machine, strict: bool = True) -> Tuple[Ext4DaxFS, RecoveryReport]:
    """Mount after a crash and (in strict mode) replay the operation logs.

    Returns the recovered kernel file system and a report.  A fresh
    :class:`~repro.core.splitfs.SplitFS` instance can then be constructed
    over the returned K-Split.
    """
    report = RecoveryReport()
    kfs = Ext4DaxFS.mount(machine)  # ext4 journal recovery happens here
    if not strict:
        return kfs, report
    start = machine.clock.now_ns
    logs = []
    for _, base, size in find_oplogs(kfs):
        log = OperationLog(machine.pm, base, size)
        entries = log.scan()
        report.entries_scanned += len(entries)
        _replay(kfs, entries, report)
        logs.append(log)
    # The replayed state must be durably committed *before* the logs are
    # zeroed: a crash between the two steps must still find replayable
    # entries (replay is idempotent, so re-running them is safe).
    kfs.sync()
    for log in logs:
        log.initialize()  # zero for reuse
    report.replay_time_ns = machine.clock.now_ns - start
    return kfs, report


def _replay(kfs: Ext4DaxFS, entries: List, report: RecoveryReport) -> None:
    ino_map: Dict[int, int] = {}  # logged ino -> post-replay ino
    pending_rename: Optional[NamespaceEntry] = None
    for entry in entries:
        if isinstance(entry, DataEntry):
            _replay_data(kfs, entry, ino_map, report)
        else:
            pending_rename = _replay_namespace(kfs, entry, ino_map,
                                               pending_rename, report)


def _replay_data(kfs: Ext4DaxFS, e: DataEntry, ino_map: Dict[int, int],
                 report: RecoveryReport) -> None:
    target_ino = ino_map.get(e.target_ino, e.target_ino)
    if e.op == OP_TRUNCATE:
        inode = kfs.inodes.get(target_ino)
        if inode is None:
            report.data_entries_skipped += 1
            return
        kfs._truncate(inode, e.size)
        report.data_entries_replayed += 1
        return
    target = kfs.inodes.get(target_ino)
    staging = kfs.inodes.get(e.staging_ino)
    if target is None or staging is None or target.is_dir or staging.is_dir:
        report.data_entries_skipped += 1
        return
    first = e.staging_off // C.BLOCK_SIZE
    nblocks = (e.staging_off + e.size + C.BLOCK_SIZE - 1) // C.BLOCK_SIZE - first
    mapped = sum(x.length for x in staging.extmap.slice_mappings(first, nblocks))
    if mapped != nblocks:
        # The staged range was already relinked away (hole): nothing to do.
        report.data_entries_skipped += 1
        return
    data = kfs._load_range(staging, e.staging_off, e.size, False)
    kfs._ensure_blocks(target, e.target_off, e.size)
    kfs._store_range(target, e.target_off, data)
    if e.target_off + e.size > target.size:
        target.size = e.target_off + e.size
    kfs._journal_inode(target)
    report.data_entries_replayed += 1


def _replay_namespace(
    kfs: Ext4DaxFS,
    e: NamespaceEntry,
    ino_map: Dict[int, int],
    pending_rename: Optional[NamespaceEntry],
    report: RecoveryReport,
) -> Optional[NamespaceEntry]:
    parent = ino_map.get(e.parent_ino, e.parent_ino)
    if parent not in kfs.dirs:
        parent = ROOT_INO if e.parent_ino == 0 else parent
    if e.op == OP_CREATE:
        if parent in kfs.dirs and kfs.dirs[parent].lookup(e.name) is None:
            inode = kfs._new_inode(is_dir=False, mode=0o644)
            kfs._dir_add(parent, e.name, inode.ino)
            kfs._journal_inode(inode)
            ino_map[e.child_ino] = inode.ino
            report.namespace_entries_replayed += 1
        else:
            existing = kfs.dirs[parent].lookup(e.name) if parent in kfs.dirs else None
            if existing is not None:
                ino_map[e.child_ino] = existing
        return None
    if e.op == OP_UNLINK:
        if parent in kfs.dirs and kfs.dirs[parent].lookup(e.name) is not None:
            path = _path_of(kfs, parent, e.name)
            if path is not None:
                kfs.unlink(path)
                report.namespace_entries_replayed += 1
        return None
    if e.op == OP_MKDIR:
        if parent in kfs.dirs and kfs.dirs[parent].lookup(e.name) is None:
            inode = kfs._new_inode(is_dir=True, mode=0o755)
            kfs._dir_add(parent, e.name, inode.ino)
            kfs._journal_inode(inode)
            report.namespace_entries_replayed += 1
        return None
    if e.op == OP_RMDIR:
        if parent in kfs.dirs:
            ino = kfs.dirs[parent].lookup(e.name)
            if ino is not None and ino in kfs.dirs and not len(kfs.dirs[ino]):
                path = _path_of(kfs, parent, e.name)
                if path is not None:
                    kfs.rmdir(path)
                    report.namespace_entries_replayed += 1
        return None
    if e.op == OP_RENAME_FROM:
        return e
    if e.op == OP_RENAME_TO and pending_rename is not None:
        src_parent = ino_map.get(pending_rename.parent_ino, pending_rename.parent_ino)
        src = _path_of(kfs, src_parent, pending_rename.name)
        dst = _path_of(kfs, parent, e.name)
        if src is not None and dst is not None and kfs.exists(src):
            kfs.rename(src, dst)
            report.namespace_entries_replayed += 1
        return None
    return None


def _path_of(kfs: Ext4DaxFS, parent_ino: int, name: str) -> Optional[str]:
    """Reconstruct an absolute path for (parent, name) by walking up."""
    comps = [name]
    current = parent_ino
    seen = set()
    while current != ROOT_INO:
        if current in seen:
            return None
        seen.add(current)
        found = None
        for dino, d in kfs.dirs.items():
            for child_name in d.names():
                if d.lookup(child_name) == current:
                    found = (dino, child_name)
                    break
            if found:
                break
        if not found:
            return None
        comps.append(found[1])
        current = found[0]
    return "/" + "/".join(reversed(comps))
