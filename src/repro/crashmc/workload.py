"""Deterministic workload generation and the oracle shadow model.

A workload is a list of :class:`Op` tuples over a small set of files —
appends, overwrites, and fsyncs, the operations whose crash semantics
differ across the Table-3 guarantee groups.  Generation is pure in the
seed, so a ``(kind, seed, nops)`` triple names a workload forever (the
minimizer and reproducer scripts rely on this).

:class:`Shadow` tracks, per file, the volatile content after every
*completed* operation plus the **durable floor**: bytes the current kind
guarantees survive any crash.  Barrier kinds raise the floor at fsync;
synchronous kinds raise it after every operation; SplitFS additionally
folds in-place overwrites of committed bytes into the floor (paper
Section 3.2).  The floor is kept as bytes.  Beside it, a sparse map holds
the *extra values* of the few floor positions written since the last
barrier, so that a byte legitimately overwritten twice since then can
surface with either value without a false positive.  A position's allowed
values are its floor byte plus its extra values
(:meth:`Shadow.allowed_values`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..posix import flags as F
from .oracles import KindProps
from .trace import CrashTriggered

#: Number of files every workload touches.
NUM_FILES = 2

MAX_APPEND = 5000
MAX_OVERWRITE_OFF = 8000
MAX_OVERWRITE_LEN = 3000


@dataclass(frozen=True)
class Op:
    """One workload step: ``kind`` is append / overwrite / fsync."""

    kind: str
    file: int
    offset: int = 0
    size: int = 0
    fill: int = 0

    def describe(self) -> str:
        if self.kind == "fsync":
            return f"fsync(w{self.file})"
        if self.kind == "append":
            return f"append(w{self.file}, {self.size}x{self.fill:#04x})"
        return (
            f"overwrite(w{self.file}, off={self.offset}, "
            f"{self.size}x{self.fill:#04x})"
        )


def generate_workload(seed: int, nops: int, nfiles: int = NUM_FILES) -> List[Op]:
    """A reproducible random workload (pure in ``seed`` and ``nops``)."""
    rng = random.Random(seed)
    ops: List[Op] = []
    for _ in range(nops):
        f = rng.randrange(nfiles)
        roll = rng.random()
        if roll < 0.45:
            ops.append(Op("append", f, size=rng.randint(1, MAX_APPEND),
                          fill=rng.randint(1, 255)))
        elif roll < 0.8:
            ops.append(Op("overwrite", f,
                          offset=rng.randint(0, MAX_OVERWRITE_OFF),
                          size=rng.randint(1, MAX_OVERWRITE_LEN),
                          fill=rng.randint(1, 255)))
        else:
            ops.append(Op("fsync", f))
    return ops


class Shadow:
    """Durability oracle state for one workload run (see module docstring)."""

    def __init__(self, props: KindProps, nfiles: int = NUM_FILES) -> None:
        self.props = props
        self.nfiles = nfiles
        self.content: Dict[int, bytearray] = {i: bytearray() for i in range(nfiles)}
        self.floor: Dict[int, bytearray] = {i: bytearray() for i in range(nfiles)}
        #: per file: floor position -> the values other than its floor byte
        #: that it may also hold after a crash (later unfenced writes).
        #: Positions with no such value are absent.
        self.extra: Dict[int, Dict[int, Set[int]]] = {i: {} for i in range(nfiles)}
        #: is the file's existence guaranteed to survive a crash?
        self.exists_floor: Dict[int, bool] = {i: False for i in range(nfiles)}

    def allowed_values(self, i: int, pos: int) -> Set[int]:
        """Every value floor byte ``pos`` of file ``i`` may hold after a crash."""
        return {self.floor[i][pos]} | self.extra[i].get(pos, set())

    # -- volatile image ----------------------------------------------------

    def _write(self, i: int, off: int, size: int, fill: int) -> None:
        buf = self.content[i]
        if off > len(buf):
            buf.extend(b"\x00" * (off - len(buf)))
        end = off + size
        if end > len(buf):
            buf.extend(b"\x00" * (end - len(buf)))
        buf[off:end] = bytes([fill]) * size
        # Bytes inside the durable floor may now also show the new value.
        floor = self.floor[i]
        extra = self.extra[i]
        for pos in range(off, min(end, len(floor))):
            if floor[pos] != fill:
                extra.setdefault(pos, set()).add(fill)

    def _raise_floor(self, i: int) -> None:
        self.floor[i] = bytearray(self.content[i])
        self.extra[i] = {}
        self.exists_floor[i] = True

    # -- op application ----------------------------------------------------

    def created(self, i: int) -> None:
        """The file was created (workload setup).

        Bare creates are deliberately not treated as durable for any kind —
        the existence floor rises with the data floor (first barrier or, for
        synchronous kinds, first completed data op), which keeps the oracle
        free of false positives across all eight kinds.
        """

    def apply(self, op: Op) -> None:
        """Fold one *completed* operation into the shadow."""
        if op.kind == "append":
            self._write(op.file, len(self.content[op.file]), op.size, op.fill)
        elif op.kind == "overwrite":
            self._write(op.file, op.offset, op.size, op.fill)
        elif op.kind == "fsync":
            self._raise_floor(op.file)
            return
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
        if self.props.sync_data:
            # Every completed data op is durable.
            self._raise_floor(op.file)
        elif self.props.overwrites_sync and op.kind == "overwrite":
            # SplitFS POSIX/sync: the part of an overwrite landing inside
            # already-committed bytes is in-place and fenced before return.
            end = min(op.offset + op.size, len(self.floor[op.file]))
            if end > op.offset:
                self.floor[op.file][op.offset:end] = (
                    bytes([op.fill]) * (end - op.offset))
                extra = self.extra[op.file]
                for pos in [p for p in extra if op.offset <= p < end]:
                    del extra[pos]

    def content_after(self, op: Op) -> bytes:
        """File content if ``op`` (the in-flight operation) had completed."""
        buf = bytearray(self.content[op.file])
        if op.kind == "append":
            buf.extend(bytes([op.fill]) * op.size)
        elif op.kind == "overwrite":
            if op.offset > len(buf):
                buf.extend(b"\x00" * (op.offset - len(buf)))
            end = op.offset + op.size
            if end > len(buf):
                buf.extend(b"\x00" * (end - len(buf)))
            buf[op.offset:end] = bytes([op.fill]) * op.size
        return bytes(buf)


@dataclass
class RunOutcome:
    """How far a (possibly crash-interrupted) workload run got."""

    completed: int
    inflight: Optional[int]  # op index being applied when the crash hit
    crashed: bool


class OpCursor:
    """Live position of a workload run: the op index currently being applied.

    The fork-engine explorer pauses the run *inside* persistence-event
    hooks (mid-syscall); the cursor tells it which op is in flight at that
    instant — ``None`` during setup (file creation) and after completion.
    """

    __slots__ = ("index",)

    def __init__(self) -> None:
        self.index: Optional[int] = None


def run_workload(fs, shadow: Shadow, ops: List[Op],
                 nfiles: int = NUM_FILES,
                 cursor: Optional[OpCursor] = None) -> RunOutcome:
    """Apply ``ops`` to ``fs``, mirroring completed ops into ``shadow``.

    A :class:`~repro.crashmc.trace.CrashTriggered` escaping an operation
    ends the run; the outcome records which op was in flight.  The shadow
    only ever reflects *completed* operations.
    """
    fds: Dict[int, int] = {}
    try:
        for i in range(nfiles):
            fds[i] = fs.open(f"/w{i}", F.O_CREAT | F.O_RDWR)
            shadow.created(i)
    except CrashTriggered:
        return RunOutcome(completed=0, inflight=None, crashed=True)
    for idx, op in enumerate(ops):
        if cursor is not None:
            cursor.index = idx
        try:
            if op.kind == "append":
                fs.pwrite(fds[op.file], bytes([op.fill]) * op.size,
                          fs.fstat(fds[op.file]).st_size)
            elif op.kind == "overwrite":
                fs.pwrite(fds[op.file], bytes([op.fill]) * op.size, op.offset)
            elif op.kind == "fsync":
                fs.fsync(fds[op.file])
        except CrashTriggered:
            return RunOutcome(completed=idx, inflight=idx, crashed=True)
        shadow.apply(op)
    if cursor is not None:
        cursor.index = None
    return RunOutcome(completed=len(ops), inflight=None, crashed=False)
