"""Crash-differential mode: fuzz sequences projected onto crashmc."""

from __future__ import annotations

from repro.crashmc.explorer import explore
from repro.difftest import FuzzOp, generate_ops, run_crash_differential, to_crash_ops
from repro.posix import flags as F


def test_projection_classifies_append_vs_overwrite():
    ops = [
        FuzzOp("open", slot=0, path="/f0", flags=F.O_CREAT | F.O_RDWR),
        FuzzOp("write", slot=0, data=b"a" * 100),     # EOF → append
        FuzzOp("pwrite", slot=0, data=b"b" * 10, offset=20),  # interior
        FuzzOp("fsync", slot=0),
        FuzzOp("write", slot=0, data=b"c" * 50),      # offset 100 == size
    ]
    crash_ops = to_crash_ops(ops)
    assert [op.kind for op in crash_ops] == [
        "append", "overwrite", "fsync", "append"]
    assert crash_ops[1].offset == 20
    assert crash_ops[3].size == 50


def test_projection_drops_failed_and_inexpressible_ops():
    ops = [
        FuzzOp("open", slot=0, path="/f0", flags=F.O_CREAT | F.O_RDWR),
        FuzzOp("write", slot=3, data=b"x" * 10),  # EBADF: dropped
        FuzzOp("mkdir", path="/d0"),              # namespace: dropped
        FuzzOp("write", slot=0, data=b"y" * 10),
    ]
    crash_ops = to_crash_ops(ops)
    assert len(crash_ops) == 1
    assert crash_ops[0].kind == "append" and crash_ops[0].size == 10


def test_projection_respects_o_append_repositioning():
    ops = [
        FuzzOp("open", slot=0, path="/f0",
               flags=F.O_CREAT | F.O_RDWR | F.O_APPEND),
        FuzzOp("write", slot=0, data=b"a" * 64),
        FuzzOp("lseek", slot=0, offset=0, whence=F.SEEK_SET),
        FuzzOp("write", slot=0, data=b"b" * 64),  # O_APPEND → still EOF
    ]
    crash_ops = to_crash_ops(ops)
    assert [op.kind for op in crash_ops] == ["append", "append"]


def test_crash_differential_bounded_run_is_clean():
    ops = generate_ops(3, 30)
    reports = run_crash_differential(
        ops, kinds=("ext4dax", "splitfs-strict"), seed=3, max_states=150)
    for kind, report in reports.items():
        assert report.ok, f"{kind}:\n{report.format()}"


def test_seed4_strict_recovery_replays_no_reused_staging_block():
    """A U-Split fsync punches a byte-copied staging run, then a later relink
    in the same uncommitted transaction fills a hole in ``/w0``.  When the
    punched block was handed out for that hole, a crash before the commit
    replayed zeros from it over ``/w0`` [1040, 1104)."""
    report = explore("splitfs-strict", ops=to_crash_ops(generate_ops(4, 300)),
                     seed=4)
    assert report.ok, report.format()
    assert report.states_explored == 40
