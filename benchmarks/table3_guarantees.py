"""Table 3: the guarantee matrix, demonstrated by crash experiments.

For each SplitFS mode this bench *measures* (rather than asserts from
documentation) whether operations are synchronous and atomic, by crashing
the machine and recovering — regenerating the paper's Table 3 checkmarks.

Documented deviation (see EXPERIMENTS.md): in sync mode, *overwrites* and
metadata operations are synchronous, but staged appends become durable only
at fsync — the strict mode's operation log is what makes unsynced appends
recoverable.
"""

import sys

from claims import Claims

from repro.bench.report import render_table
from repro.core import Mode, SplitFS, recover
from repro.ext4.filesystem import Ext4DaxFS
from repro.kernel.machine import Machine
from repro.posix import flags as F

PM = 96 * 1024 * 1024
BLOCK = 4096


def _fresh(mode):
    m = Machine(PM)
    # Sync mode enables per-operation metadata commits for this guarantee
    # demonstration (a documented tunable; see EXPERIMENTS.md).
    from repro.core import SplitFSConfig

    cfg = SplitFSConfig(sync_metadata_commits=True) if mode is Mode.SYNC else None
    return m, SplitFS(Ext4DaxFS.format(m), mode=mode, config=cfg)


def _recover(m, mode):
    return recover(m, strict=mode is Mode.STRICT)[0]


def probe_sync_append(mode) -> bool:
    m, fs = _fresh(mode)
    fd = fs.open("/p", F.O_CREAT | F.O_RDWR)
    fs.write(fd, b"S" * BLOCK)
    m.crash()
    kfs = _recover(m, mode)
    return kfs.exists("/p") and kfs.stat("/p").st_size == BLOCK


def probe_sync_overwrite(mode) -> bool:
    m, fs = _fresh(mode)
    fd = fs.open("/p", F.O_CREAT | F.O_RDWR)
    fs.write(fd, b"0" * BLOCK)
    fs.fsync(fd)
    fs.pwrite(fd, b"1" * 64, 100)  # no fsync afterwards
    m.crash()
    kfs = _recover(m, mode)
    f2 = kfs.open("/p", F.O_RDONLY)
    return kfs.pread(f2, 64, 100) == b"1" * 64


def probe_atomic_overwrite(mode) -> bool:
    m, fs = _fresh(mode)
    fd = fs.open("/p", F.O_CREAT | F.O_RDWR)
    fs.write(fd, b"O" * (2 * BLOCK))
    fs.fsync(fd)
    fs.pwrite(fd, b"N" * BLOCK, BLOCK // 2)
    m.crash()
    kfs = _recover(m, mode)
    f2 = kfs.open("/p", F.O_RDONLY)
    data = kfs.pread(f2, 2 * BLOCK, 0)
    old = b"O" * (2 * BLOCK)
    new = b"O" * (BLOCK // 2) + b"N" * BLOCK + b"O" * (BLOCK // 2)
    return data in (old, new)


def probe_sync_metadata(mode) -> bool:
    m, fs = _fresh(mode)
    fs.open("/created", F.O_CREAT | F.O_RDWR)
    m.crash()
    kfs = _recover(m, mode)
    return kfs.exists("/created")


def probe_atomic_appends(mode) -> bool:
    m, fs = _fresh(mode)
    fd = fs.open("/a", F.O_CREAT | F.O_RDWR)
    for i in range(4):
        fs.write(fd, bytes([65 + i]) * BLOCK)
    fs.fsync(fd)
    m.crash()
    kfs = _recover(m, mode)
    f2 = kfs.open("/a", F.O_RDONLY)
    data = kfs.pread(f2, 4 * BLOCK, 0)
    return all(
        data[i * BLOCK : (i + 1) * BLOCK] == bytes([65 + i]) * BLOCK
        for i in range(4)
    )


COLUMNS = ["sync append", "sync overwrite", "atomic overwrite",
           "sync metadata", "atomic appends"]


def main() -> int:
    results = {}
    for mode in (Mode.POSIX, Mode.SYNC, Mode.STRICT):
        results[mode] = (
            probe_sync_append(mode),
            probe_sync_overwrite(mode),
            probe_atomic_overwrite(mode),
            probe_sync_metadata(mode),
            probe_atomic_appends(mode),
        )
    rows = []
    for mode, flags_ in results.items():
        rows.append([mode.value] + ["yes" if f else "no" for f in flags_]
                    + [mode.equivalent_systems])
    print(render_table(
        "Table 3: measured guarantees per SplitFS mode",
        ["mode", *COLUMNS, "equivalent to"],
        rows,
    ))
    print()

    claims = Claims()
    # POSIX: unsynced appends and creates are lost; appends+fsync atomic.
    claims.observe("posix mode, sync append", results[Mode.POSIX][0], False)
    claims.observe("posix mode, sync metadata", results[Mode.POSIX][3], False)
    # Sync: overwrites and metadata synchronous; overwrites not atomic is
    # permitted (no claim on column 2 either way for sync).
    claims.observe("sync mode, sync overwrite", results[Mode.SYNC][1], True)
    claims.observe("sync mode, sync metadata", results[Mode.SYNC][3], True)
    # Strict: everything.
    claims.observe("strict mode, every column",
                   dict(zip(COLUMNS, results[Mode.STRICT])), True)
    # Appends are atomic in every mode (paper Section 3.2).
    claims.observe("atomic appends, every mode",
                   {mode.value: flags_[4] for mode, flags_ in results.items()},
                   True)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
