"""Shrinking divergent fuzz sequences into committed reproducers.

:func:`shrink` is the repository's one ddmin loop; the crash-state
minimiser (:mod:`repro.crashmc.minimize`) runs it too.  Over the fuzz op
vocabulary, because descriptor identity goes through slots (see
:mod:`repro.difftest.ops`), *every* subsequence of a sequence is a valid
sequence — dropping the ``open`` that fed a slot just turns the slot's
later users into well-defined EBADF ops on every system and on the
oracle alike.  That property is what lets ddmin cut anywhere.

The emitted artifact is a standalone pytest module (committed under
``tests/difftest/repros/``), so every divergence the fuzzer ever found
stays in the tier-1 suite as a regression test.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TypeVar

from .executor import DiffReport, FsFactory, run_differential
from .ops import FuzzOp


T = TypeVar("T")


def shrink(ops: Sequence[T], failing: Callable[[List[T]], bool]) -> List[T]:
    """ddmin: the smallest op subsequence for which ``failing`` holds."""
    if not failing(list(ops)):
        raise ValueError("the full sequence does not fail")
    current = list(ops)
    chunk = max(1, len(current) // 2)
    while True:
        reduced = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk:]
            if candidate and failing(candidate):
                current = candidate
                reduced = True
                continue  # same start now addresses the next chunk
            start += chunk
        if reduced:
            chunk = min(chunk, max(1, len(current) // 2))
            continue
        if chunk == 1:
            break
        chunk = max(1, chunk // 2)
    return current


def minimize_divergence(
    ops: Sequence[FuzzOp],
    kinds: Sequence[str],
    fs_factory: Optional[FsFactory] = None,
) -> DiffReport:
    """Shrink a divergent sequence; returns the minimised run's report."""

    def failing(candidate: List[FuzzOp]) -> bool:
        return not run_differential(candidate, kinds=kinds,
                                    fs_factory=fs_factory).ok

    small = shrink(ops, failing)
    return run_differential(small, kinds=kinds, fs_factory=fs_factory)


PYTEST_TEMPLATE = '''\
"""Minimized difftest reproducer: {title}.

Auto-generated by repro.difftest.shrink ({nops} op(s)); replays the
minimised sequence on {nkinds} system(s) and asserts the differential
report is clean.  Regenerate with `repro fuzz ... --emit-repro`.
"""

from repro.difftest import FuzzOp, run_differential

KINDS = {kinds!r}
OPS = [
{ops_literal}
]


def test_minimized_reproducer():
    report = run_differential(OPS, kinds=KINDS)
    assert report.ok, "\\n" + report.format()
'''


def emit_pytest_reproducer(report: DiffReport,
                           title: str = "cross-FS divergence") -> str:
    """A standalone pytest module replaying the report's sequence."""
    ops_literal = "\n".join(f"    {op.to_literal()}," for op in report.ops)
    return PYTEST_TEMPLATE.format(
        title=title,
        nops=len(report.ops),
        nkinds=len(report.kinds),
        kinds=list(report.kinds),
        ops_literal=ops_literal,
    )
