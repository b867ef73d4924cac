"""Crash-differential mode: fuzz sequences fed to the crashmc explorer.

The crashmc subsystem enumerates per-fence crash states against each
kind's Table-3 guarantee oracle — but only over its own restricted op
vocabulary (append / overwrite / fsync on two files).  This module
projects a rich fuzz sequence onto that vocabulary, so the same generated
workload that exercises the POSIX surface also exercises the crash
guarantees of the data path it implies.

The projection replays the sequence on the oracle model to learn where
each write actually landed (after O_APPEND repositioning, lseeks, holes,
truncates); the first two file paths that receive data become crashmc's
``/w0``/``/w1``.  Because namespace ops and truncates are not expressible
in the crashmc vocabulary they are dropped, and append-vs-overwrite is
decided against a running model of the *projected* file sizes — the
projected workload is self-consistent even where it has diverged from
the full sequence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..crashmc.explorer import ExplorationReport, explore
from ..crashmc.workload import NUM_FILES, Op
from ..posix import flags as F
from .model import OracleFS
from .ops import FuzzOp, apply_op


def to_crash_ops(ops: Sequence[FuzzOp]) -> List[Op]:
    """Project a fuzz sequence onto the crashmc append/overwrite/fsync
    vocabulary (see module docstring)."""
    oracle = OracleFS()
    slots: Dict[int, int] = {}
    mapping: Dict[str, int] = {}  # fuzz path → crashmc file index
    sizes = [0] * NUM_FILES  # projected-model sizes
    out: List[Op] = []

    def file_index(path: str) -> Optional[int]:
        if path in mapping:
            return mapping[path]
        if len(mapping) < NUM_FILES:
            mapping[path] = len(mapping)
            return mapping[path]
        return None

    for i, op in enumerate(ops):
        path = None
        offset = None
        length = 0
        if op.call in ("write", "writev"):
            of = oracle.fdt._open.get(slots.get(op.slot, -1))
            if of is not None:
                path = of.path
                node = oracle.nodes[of.ino]
                offset = (len(node.data) if of.flags & F.O_APPEND
                          else of.offset)
                length = len(op.data)
        elif op.call == "pwrite":
            of = oracle.fdt._open.get(slots.get(op.slot, -1))
            if of is not None:
                path = of.path
                offset = op.offset
                length = len(op.data)
        elif op.call in ("fsync", "fdatasync"):
            of = oracle.fdt._open.get(slots.get(op.slot, -1))
            if of is not None:
                path = of.path

        outcome = apply_op(oracle, slots, op)
        if outcome[0] != "ok" or path is None:
            continue
        idx = file_index(path)
        if idx is None:
            continue
        if op.call in ("fsync", "fdatasync"):
            out.append(Op("fsync", idx))
            continue
        if length == 0:
            continue
        fill = (i % 251) + 1
        if offset == sizes[idx]:
            out.append(Op("append", idx, size=length, fill=fill))
        else:
            out.append(Op("overwrite", idx, offset=offset,
                          size=length, fill=fill))
        sizes[idx] = max(sizes[idx], offset + length)
    return out


def run_crash_differential(
    ops: Sequence[FuzzOp],
    kinds: Sequence[str],
    seed: int = 0,
    intra: int = 0,
    max_states: Optional[int] = None,
    prune: bool = False,
    reorder: int = 0,
) -> Dict[str, ExplorationReport]:
    """Explore the projected workload's crash states on every kind."""
    crash_ops = to_crash_ops(ops)
    reports: Dict[str, ExplorationReport] = {}
    for kind in kinds:
        reports[kind] = explore(kind, ops=crash_ops, seed=seed, intra=intra,
                                max_states=max_states, prune=prune,
                                reorder=reorder)
    return reports
