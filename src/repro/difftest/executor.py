"""The differential executor: one sequence, every system, one verdict.

Each sequence is replayed first on the :class:`OracleFS` to produce the
expected outcome per op, then on a freshly formatted instance of every
requested system.  Three comparison layers:

1. **Per-op**: status + normalized result + errno must match the oracle
   exactly.  A non-FSError escaping any call is always a divergence, no
   matter what the oracle expected — raw simulator exceptions crossing
   the POSIX boundary are bugs by definition.
2. **ENOSPC forks**: inside a ``fail_alloc`` … ``clear_faults`` window
   the five systems legitimately differ (allocation count and order is
   exactly what distinguishes them), so the first in-window mismatch
   marks the system *forked* rather than divergent.  A forked system is
   still replayed to the end and still must not crash — robustness under
   ENOSPC is precisely what the window tests — but its results and final
   state are no longer comparable to the oracle's.
3. **Post-state**: after the replay (faults cleared) the visible
   namespace — every path, node kind, and file content, collected
   through the public API — must match the oracle's for every un-forked
   system.

Reports format deterministically (no timing, no addresses), so CI can
diff two runs of the same seed byte-for-byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..factory import SYSTEM_NAMES, make_filesystem
from ..kernel.machine import DEFAULT_PM_SIZE
from .model import OracleFS
from .ops import FuzzOp, apply_op, format_outcome

Snapshot = Dict[str, Tuple[str, Optional[bytes]]]

#: Per-op divergences a report records for one system before it
#: summarises the rest in one line.
MAX_DIVERGENCES_PER_KIND = 5
#: Divergences :meth:`DiffReport.format` prints before "... N more".
MAX_PRINTED_DIVERGENCES = 8


def snapshot(fs) -> Snapshot:
    """The visible namespace through the public API: path → (kind, data)."""
    out: Snapshot = {}

    def walk(path: str) -> None:
        for name in fs.listdir(path):
            child = (path.rstrip("/") or "") + "/" + name
            st = fs.stat(child)
            if st.is_dir:
                out[child] = ("dir", None)
                walk(child)
            else:
                out[child] = ("file", fs.read_file(child))

    walk("/")
    return out


def _digest(snap: Snapshot) -> str:
    h = hashlib.sha256()
    for path in sorted(snap):
        kind, data = snap[path]
        h.update(path.encode())
        h.update(kind.encode())
        h.update(data or b"")
        h.update(b"\x00")
    return h.hexdigest()[:16]


@dataclass
class Divergence:
    """One point where a system left the oracle's behavior."""

    kind: str
    index: int  # op index; -1 = post-run state comparison
    detail: str

    def format(self) -> str:
        where = "post-state" if self.index < 0 else f"op {self.index}"
        return f"{self.kind}: {where}: {self.detail}"


@dataclass
class DiffReport:
    """Outcome of one differential run (deterministic ``format``)."""

    kinds: Sequence[str]
    nops: int
    seed: Optional[int]
    state_digest: str
    divergences: List[Divergence] = field(default_factory=list)
    forked: Dict[str, int] = field(default_factory=dict)
    ops: List[FuzzOp] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def format(self) -> str:
        seed = "-" if self.seed is None else str(self.seed)
        lines = [
            f"difftest: seed={seed} ops={self.nops} "
            f"kinds={len(self.kinds)} oracle-digest={self.state_digest} "
            f"verdict={'OK' if self.ok else 'DIVERGED'}"
        ]
        for kind in self.kinds:
            mine = [d for d in self.divergences if d.kind == kind]
            if mine:
                status = f"DIVERGED ({len(mine)})"
            elif kind in self.forked:
                status = f"ok (ENOSPC fork at op {self.forked[kind]})"
            else:
                status = "ok"
            lines.append(f"  {kind:<16} {status}")
        for div in self.divergences[:MAX_PRINTED_DIVERGENCES]:
            lines.append(f"    {div.format()}")
        unprinted = len(self.divergences) - MAX_PRINTED_DIVERGENCES
        if unprinted > 0:
            lines.append(f"    ... {unprinted} more")
        return "\n".join(lines)


def _state_diff(kind: str, got: Snapshot, want: Snapshot,
                limit: int = 3) -> List[str]:
    problems = []
    for path in sorted(set(want) | set(got)):
        if path not in got:
            problems.append(f"missing {path!r}")
        elif path not in want:
            problems.append(f"unexpected {path!r}")
        elif got[path] != want[path]:
            g_kind, g_data = got[path]
            w_kind, w_data = want[path]
            if g_kind != w_kind:
                problems.append(f"{path!r} is {g_kind}, expected {w_kind}")
            else:
                problems.append(
                    f"{path!r} content differs "
                    f"({len(g_data or b'')} vs {len(w_data or b'')} bytes)")
        if len(problems) >= limit:
            problems.append("...")
            break
    return problems


FsFactory = Callable[[str, int], tuple]


def run_differential(
    ops: Sequence[FuzzOp],
    kinds: Sequence[str] = SYSTEM_NAMES,
    seed: Optional[int] = None,
    fs_factory: Optional[FsFactory] = None,
) -> DiffReport:
    """Replay ``ops`` on the oracle and on every system in ``kinds``.

    ``fs_factory(kind, pm_size) -> (machine, fs)`` overrides system
    construction; it is called with ``DEFAULT_PM_SIZE`` (tests use it to
    inject a synthetically broken system and prove the pipeline catches
    it, or to run on another device size).
    """
    oracle = OracleFS()
    oracle_slots: Dict[int, int] = {}
    expected = []
    for i, op in enumerate(ops):
        outcome = apply_op(oracle, oracle_slots, op)
        if outcome[0] == "crash":
            raise RuntimeError(
                f"oracle model crashed at op {i} ({op.describe()}): "
                f"{outcome[1]}")
        expected.append(outcome)
    oracle_snap = snapshot(oracle)

    report = DiffReport(kinds=list(kinds), nops=len(ops), seed=seed,
                        state_digest=_digest(oracle_snap), ops=list(ops))
    factory = fs_factory or (
        lambda kind, size: make_filesystem(kind, pm_size=size))

    for kind in kinds:
        machine, fs = factory(kind, DEFAULT_PM_SIZE)
        slots: Dict[int, int] = {}
        forked_at: Optional[int] = None
        in_window = False
        found = 0
        for i, op in enumerate(ops):
            outcome = apply_op(fs, slots, op,
                               faults=getattr(machine, "faults", None))
            if op.call == "fail_alloc":
                in_window = True
            elif op.call == "clear_faults":
                in_window = False
            if outcome == expected[i]:
                continue
            if outcome[0] != "crash" and forked_at is not None:
                continue
            if outcome[0] != "crash" and in_window:
                forked_at = i
                report.forked[kind] = i
                continue
            found += 1
            if found <= MAX_DIVERGENCES_PER_KIND:
                report.divergences.append(Divergence(
                    kind=kind, index=i,
                    detail=f"{op.describe()}: expected "
                           f"{format_outcome(expected[i])}, got "
                           f"{format_outcome(outcome)}"))
        if found > MAX_DIVERGENCES_PER_KIND:
            report.divergences.append(Divergence(
                kind=kind, index=len(ops) - 1,
                detail=f"... {found - MAX_DIVERGENCES_PER_KIND} further "
                       f"per-op divergences suppressed"))
        if getattr(machine, "faults", None) is not None:
            machine.faults.clear()
        if forked_at is None and found == 0:
            try:
                fs_snap = snapshot(fs)
            except Exception as exc:  # noqa: BLE001 — snapshot crash = bug
                report.divergences.append(Divergence(
                    kind=kind, index=-1,
                    detail=f"snapshot raised {type(exc).__name__}: {exc}"))
            else:
                for problem in _state_diff(kind, fs_snap, oracle_snap):
                    report.divergences.append(
                        Divergence(kind=kind, index=-1, detail=problem))
    return report
