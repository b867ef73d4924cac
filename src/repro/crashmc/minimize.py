"""Delta-debugging minimisation of violation-producing workloads.

When :func:`~repro.crashmc.explorer.explore` finds a violation, the whole
workload is rarely needed to reproduce it.  :func:`minimize` runs the
fuzzer's ddmin (:func:`repro.difftest.shrink.shrink`) over the op list —
re-exploring each candidate subset — and returns the smallest subsequence
that still produces at least one violation, together with a standalone
reproducer script.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .explorer import ExplorationReport, explore
from .workload import Op


def _default_failing(report: ExplorationReport) -> bool:
    return bool(report.violations)


def minimize(
    kind: str,
    ops: List[Op],
    seed: int = 0,
    failing: Callable[[ExplorationReport], bool] = _default_failing,
    **options,
) -> ExplorationReport:
    """ddmin: smallest op subsequence whose exploration still fails.

    ``failing`` decides whether a report reproduces the problem (default:
    any violation).  ``options`` are :func:`explore`'s keyword arguments
    (``intra``, ``reorder``, ``ras``, ...); every candidate is
    explored with them, so a violation only some state family exposes
    still reproduces.  Returns the exploration report of the minimised
    workload; its ``ops`` attribute is the reproducer sequence.
    """
    # Function-local: repro.difftest imports repro.crashmc, so a module-level
    # import would make the import order of the two packages matter.
    from ..difftest.shrink import shrink

    report: Optional[ExplorationReport] = None

    def test(candidate: List[Op]) -> bool:
        nonlocal report
        r = explore(kind, ops=candidate, seed=seed, **options)
        if not failing(r):
            return False
        # shrink adopts every failing candidate, so the last failing report
        # is the minimised workload's.
        report = r
        return True

    shrink(ops, test)  # ValueError when the full workload passes
    return report


REPRODUCER_TEMPLATE = '''\
#!/usr/bin/env python
"""crashmc reproducer: {kind}, {nops} op(s), seed {seed}.

Auto-generated by repro.crashmc.minimize — re-explores the minimised
workload and prints every violation found.  Run with PYTHONPATH=src.
"""

from repro.crashmc.explorer import explore
from repro.crashmc.workload import Op

KIND = {kind!r}
SEED = {seed}
OPTIONS = {options!r}
OPS = [
{ops_literal}
]

report = explore(KIND, ops=OPS, seed=SEED, **OPTIONS)
print(report.format())
raise SystemExit(0 if report.ok else 1)
'''


def emit_reproducer(report: ExplorationReport, **options) -> str:
    """A standalone python script re-exploring the report's workload.

    ``options`` are the :func:`explore` keyword arguments the script passes
    along with the workload and seed.
    """
    ops_literal = "\n".join(
        f"    Op({op.kind!r}, {op.file}, offset={op.offset}, "
        f"size={op.size}, fill={op.fill}),"
        for op in report.ops
    )
    return REPRODUCER_TEMPLATE.format(
        kind=report.kind,
        nops=len(report.ops),
        seed=report.seed,
        options=options,
        ops_literal=ops_literal,
    )
