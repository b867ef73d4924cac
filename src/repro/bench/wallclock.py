"""The wall-clock suite: the workloads the simulator's fast paths exist for.

Every number this reproduction reports is simulated nanoseconds; those are
deterministic and must never change when the simulator's implementation is
optimized.  The hot-path fast paths (bisect extent lookup, batched
persistence-domain bookkeeping, VFS resolve cache) exist purely to cut the
host seconds Python spends computing a workload.

* ``run_suite`` runs a fixed set of micro-workloads plus a crashmc sweep
  and returns each one's simulated results: the time split of an IO
  workload, the state count, verdict and report digest of the sweep.
* The pre-optimization implementations of those fast paths live in the
  test suite (``tests/reference_impls.py``), which can swap them in
  class-wide; ``tests/bench/test_wallclock.py`` runs every workload both
  ways and asserts identical results.  Optimizations must be invisible in
  simulated time — bit-identical, not approximately equal.
* ``repro bench --wallclock`` prints the results with ``repr`` and
  ``goldens/bench-wallclock.txt`` commits that printout.  Host time is
  ``perfbench/``'s to measure.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from .harness import io_pattern_workload


@dataclass(frozen=True)
class WorkloadSpec:
    """One suite entry: an IO micro-workload or a crashmc sweep."""

    name: str
    kind: str  # "io" | "crashmc"
    system: str
    pattern: str = ""
    fsync_every: int = 0
    file_bytes: int = 8 * 1024 * 1024
    nops: int = 0
    intra: int = 0


#: The fixed suite.  seq-write and rand-read on SplitFS are the headline
#: simulator-speed workloads; the rest cover the kernel-FS paths and the
#: crash-state enumerator (heaviest consumer of domain bookkeeping).
WORKLOADS = (
    WorkloadSpec("seq-write", "io", "splitfs-strict", "seq-write"),
    WorkloadSpec("rand-read", "io", "splitfs-strict", "rand-read"),
    WorkloadSpec("seq-read", "io", "ext4dax", "seq-read"),
    WorkloadSpec("rand-write", "io", "ext4dax", "rand-write"),
    WorkloadSpec("append-fsync", "io", "ext4dax", "append", fsync_every=64),
    WorkloadSpec("crashmc-sweep", "crashmc", "splitfs-strict",
                 nops=8, intra=2),
)


def run_workload(spec: WorkloadSpec) -> Dict[str, object]:
    """The simulated results of one workload, and nothing host-dependent."""
    if spec.kind == "io":
        account = io_pattern_workload(spec.system, spec.pattern,
                                      file_bytes=spec.file_bytes,
                                      fsync_every=spec.fsync_every).account
        return {"system": spec.system,
                "data_ns": account.data_ns,
                "meta_io_ns": account.meta_io_ns,
                "cpu_ns": account.cpu_ns,
                "total_ns": account.total_ns}
    from ..crashmc import explore

    report = explore(spec.system, nops=spec.nops, intra=spec.intra)
    digest = hashlib.sha256(report.format().encode()).hexdigest()
    return {"system": spec.system,
            "states_explored": report.states_explored,
            "ok": report.ok,
            "sim_digest": digest}


def run_suite(specs: Optional[List[WorkloadSpec]] = None,
              ) -> Dict[str, Dict[str, object]]:
    """Run every workload; returns ``{name: result}`` in suite order."""
    return {spec.name: run_workload(spec)
            for spec in (specs if specs is not None else list(WORKLOADS))}


def render_suite(results: Dict[str, Dict[str, object]]) -> str:
    """One line per workload, every result field printed with ``repr``."""
    return "\n".join(
        f"{name}: " + "  ".join(f"{key}={value!r}"
                                for key, value in result.items())
        for name, result in results.items())
