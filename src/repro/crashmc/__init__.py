"""repro.crashmc: systematic crash-state enumeration and fault injection.

The crash-model checker for the whole reproduction.  It records the
persistence trace (stores / clwb / fences) of a workload, enumerates every
fence-epoch crash state — plus sampled intra-epoch states with surviving
and torn cache lines — by forking the machine at each one, remounts each
state through the file system's own recovery path, and checks the exact
Table-3 guarantees of the kind under test.  Failing workloads are
auto-minimised to a standalone reproducer.

Entry points: :func:`explore`, :func:`minimize`, and the ``repro crashmc``
CLI subcommand.
"""

from .explorer import (ExplorationReport, Violation, explore, fresh,
                       record_trace, remount)
from .mechanism import (MechanismProbe, mechanism_summary,
                        plan_pruned_fences)
from .minimize import emit_reproducer, minimize
from .oracles import KIND_PROPS, KindProps, check_state
from .trace import CrashTriggered, PersistenceTracer, Trace
from .workload import Op, OpCursor, Shadow, generate_workload, run_workload

__all__ = [
    "ExplorationReport",
    "Violation",
    "explore",
    "record_trace",
    "MechanismProbe",
    "mechanism_summary",
    "plan_pruned_fences",
    "OpCursor",
    "minimize",
    "emit_reproducer",
    "KIND_PROPS",
    "KindProps",
    "check_state",
    "fresh",
    "remount",
    "CrashTriggered",
    "PersistenceTracer",
    "Trace",
    "Op",
    "Shadow",
    "generate_workload",
    "run_workload",
]
