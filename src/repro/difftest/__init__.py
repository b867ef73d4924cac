"""Model-based differential fuzzing across the five file systems.

The subsystem ties these pieces together (see ARCHITECTURE §9):

* :mod:`.model` — the in-memory POSIX oracle defining expected results;
* :mod:`.generator` — seeded, oracle-guided weighted op generation;
* :mod:`.executor` — replay on every system, compare ops and post-state;
* :mod:`.crashdiff` — project sequences into the crashmc explorer;
* :mod:`.shrink` — ddmin divergent sequences into pytest reproducers;
* :mod:`.recorder` — record any file system's calls as a sequence.

Entry point: ``repro fuzz`` (see :mod:`repro.cli`).
"""

from .crashdiff import run_crash_differential, to_crash_ops
from .executor import DiffReport, Divergence, run_differential, snapshot
from .generator import generate_ops
from .model import OracleFS
from .ops import BAD_FD, FuzzOp, apply_op
from .recorder import Recorder
from .shrink import emit_pytest_reproducer, minimize_divergence, shrink

__all__ = [
    "BAD_FD",
    "DiffReport",
    "Divergence",
    "FuzzOp",
    "OracleFS",
    "Recorder",
    "apply_op",
    "emit_pytest_reproducer",
    "generate_ops",
    "minimize_divergence",
    "run_crash_differential",
    "run_differential",
    "shrink",
    "snapshot",
    "to_crash_ops",
]
