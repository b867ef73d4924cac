"""Profile runner: existing workloads under tracing, three outputs each.

``run_profile`` re-runs the repository's standard workloads (the Table 1
append sweep, the Figure 4 IO-pattern sweep, YCSB, or the wall-clock bench
suite's IO specs) with a fresh :class:`~repro.obs.Observer` bound to each
machine, and packages the collected data as:

* a per-layer latency-attribution table (the paper's Figure 1
  decomposition) whose TOTAL row equals the measurement's simulated-ns
  *exactly* — same ``TimeAccount``, same number ``repro table1`` prints;
* Chrome trace-event JSON loadable in Perfetto / ``chrome://tracing``;
* a collapsed-stack file for flamegraph.pl / speedscope.

``overhead_guard`` is the CI guard for the instrumentation itself: it
interleaves runs of the normal (NullObserver) hot path with runs where
``SimClock.charge`` and ``charge_cpu`` are temporarily stripped of the
observer hook, and fails if the disabled-mode instrumentation costs more
than a small tolerance in wall-clock time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..pmem.timing import CPU, DATA, META_IO
from .export import (
    attribution_rows,
    render_attribution_table,
    to_chrome_trace,
    to_collapsed_stacks,
    validate_chrome_trace,
)
from .observer import Observer

#: The Table 1 system set, in the order ``repro table1`` prints them.
TABLE1_SYSTEMS = ("ext4dax", "pmfs", "nova-strict", "splitfs-strict",
                  "splitfs-posix")

#: The Figure 4 patterns, in the order ``repro iopatterns`` sweeps them.
IO_PATTERNS = ("seq-read", "rand-read", "seq-write", "rand-write", "append")

PROFILE_WORKLOADS = ("table1", "iopatterns", "ycsb", "bench")


@dataclass
class ProfileResult:
    """One traced (system, workload) execution."""

    system: str
    workload: str
    operations: int
    observer: Observer
    measurement: Any  # repro.bench.harness.Measurement

    @property
    def total_ns(self) -> float:
        """The authoritative simulated total (the benchmark's own number)."""
        return self.measurement.account.total_ns

    @property
    def ns_per_op(self) -> float:
        return self.total_ns / max(1, self.operations)

    @property
    def residual_ns(self) -> float:
        """Float-ordering residue between attributed sum and the total."""
        return self.total_ns - self.observer.total_attributed_ns()

    def rows(self) -> List[Dict[str, float]]:
        return attribution_rows(self.observer.attribution,
                                total_ns=self.total_ns)

    def render(self) -> str:
        title = (f"Latency attribution: {self.system} / {self.workload} "
                 f"({self.operations} ops, {self.total_ns:.0f} simulated ns)")
        return render_attribution_table(title, self.observer.attribution,
                                        total_ns=self.total_ns,
                                        operations=self.operations)

    def chrome_trace(self) -> Dict[str, Any]:
        return to_chrome_trace(self.observer,
                               process_name=f"{self.system}:{self.workload}")

    def collapsed(self) -> str:
        return to_collapsed_stacks(self.observer)

    def as_json(self) -> Dict[str, Any]:
        """Machine-readable record for ``repro profile --json`` (CI)."""
        trace = self.chrome_trace()
        return {
            "system": self.system,
            "workload": self.workload,
            "operations": self.operations,
            "account": self.measurement.account.as_dict(),
            "total_ns": self.total_ns,
            "ns_per_op": self.ns_per_op,
            "attribution": self.rows(),
            "attributed_ns": self.observer.total_attributed_ns(),
            "residual_ns": self.residual_ns,
            "spans": len(self.observer.events),
            "dropped_spans": self.observer.dropped_events,
            "fences": self.observer.fence_count,
            "trace_events": len(trace["traceEvents"]),
            "trace_errors": validate_chrome_trace(trace),
            "collapsed_stacks": len(self.observer.collapsed),
        }


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in text)


def run_profile(
    workload: str = "table1",
    systems: Optional[Sequence[str]] = None,
    total_mb: int = 8,
    file_mb: int = 8,
    patterns: Optional[Sequence[str]] = None,
    ycsb_phase: str = "A",
    records: int = 1000,
    operation_count: int = 1500,
    trace_fences: bool = False,
    max_events: int = 200_000,
) -> List[ProfileResult]:
    """Run one workload family under tracing; one result per traced run.

    Invocations mirror the untraced CLI commands exactly (same systems,
    same sizes, same call paths), so per-system simulated totals match
    ``repro table1`` / ``repro iopatterns`` / ``repro ycsb`` bit for bit.
    """
    from ..bench.harness import (
        append_4k_workload,
        io_pattern_workload,
        ycsb_workload,
    )

    def make_observer() -> Observer:
        return Observer(max_events=max_events, trace_fences=trace_fences)

    results: List[ProfileResult] = []
    if workload == "table1":
        for system in systems or TABLE1_SYSTEMS:
            obs = make_observer()
            m = append_4k_workload(system, total_bytes=total_mb << 20,
                                   observer=obs)
            results.append(ProfileResult(system, "table1-append4k",
                                         m.operations, obs, m))
    elif workload == "iopatterns":
        for system in systems or TABLE1_SYSTEMS:
            for pattern in patterns or IO_PATTERNS:
                obs = make_observer()
                m = io_pattern_workload(system, pattern,
                                        file_bytes=file_mb << 20,
                                        observer=obs)
                results.append(ProfileResult(system, f"iopatterns-{pattern}",
                                             m.operations, obs, m))
    elif workload == "ycsb":
        for system in systems or ("splitfs-strict", "ext4dax"):
            obs = make_observer()
            m = ycsb_workload(system, ycsb_phase, record_count=records,
                              operation_count=operation_count, observer=obs)
            results.append(ProfileResult(system, m.workload,
                                         m.operations, obs, m))
    elif workload == "bench":
        from ..bench import wallclock as wc

        for spec in wc.WORKLOADS:
            if spec.kind != "io":
                continue  # crashmc sweeps crash machines; not a traced run
            obs = make_observer()
            m = io_pattern_workload(spec.system, spec.pattern,
                                    file_bytes=spec.file_bytes,
                                    fsync_every=spec.fsync_every,
                                    observer=obs)
            results.append(ProfileResult(spec.system, f"bench-{spec.name}",
                                         m.operations, obs, m))
    else:
        raise ValueError(
            f"unknown profile workload {workload!r}; "
            f"choose from {PROFILE_WORKLOADS}")
    return results


def write_outputs(results: Iterable[ProfileResult], out_dir: str,
                  ) -> List[str]:
    """Write per-result trace JSON + collapsed stacks; return paths."""
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []
    for r in results:
        stem = f"{_slug(r.workload)}_{_slug(r.system)}"
        trace_path = os.path.join(out_dir, f"trace_{stem}.json")
        with open(trace_path, "w") as fh:
            json.dump(r.chrome_trace(), fh, indent=1)
        written.append(trace_path)
        collapsed_path = os.path.join(out_dir, f"collapsed_{stem}.txt")
        with open(collapsed_path, "w") as fh:
            fh.write(r.collapsed())
        written.append(collapsed_path)
    return written


def profile_report(results: Iterable[ProfileResult]) -> str:
    """All attribution tables, one per traced run."""
    return "\n\n".join(r.render() for r in results)


def results_to_json(workload: str, results: Iterable[ProfileResult],
                    ) -> Dict[str, Any]:
    return {"workload": workload,
            "results": [r.as_json() for r in results]}


# -- overhead guard -----------------------------------------------------------


def _plain_charge(self, ns, category=CPU):
    """``SimClock.charge`` without the observer hook: the same account
    and scope updates, no ``obs.enabled`` test."""
    if ns < 0:
        raise ValueError(f"negative charge: {ns}")
    account = self.account
    if category is DATA:
        account.data_ns += ns
    elif category is META_IO:
        account.meta_io_ns += ns
    else:
        account.cpu_ns += ns
    if self._scopes:
        for scope in self._scopes:
            scope.charge(ns, category)


def _plain_charge_cpu(self, ns):
    """``SimClock.charge_cpu`` without the observer hook."""
    if ns < 0:
        raise ValueError(f"negative charge: {ns}")
    self.account.cpu_ns += ns
    if self._scopes:
        for scope in self._scopes:
            scope.charge(ns, CPU)


def overhead_guard(repeats: int = 5, total_mb: int = 4,
                   threshold: float = 0.05, slack_s: float = 0.05,
                   system: str = "splitfs-strict") -> Dict[str, Any]:
    """Measure disabled-mode instrumentation overhead; pass/fail for CI.

    Interleaves ``repeats`` pairs of the Table 1 append workload: one run
    on the normal hot path (instrumentation present, NullObserver bound)
    and one with ``SimClock.charge`` and ``charge_cpu`` temporarily
    swapped for their forms without the observer hook.  Best-of wall
    times are compared; the guard passes when the instrumented run is
    within ``threshold`` (relative) plus ``slack_s`` (absolute, absorbs
    scheduler noise on short runs).
    """
    import time

    from ..bench.harness import append_4k_workload
    from ..pmem.timing import SimClock

    def wall_once() -> float:
        t0 = time.perf_counter()
        append_4k_workload(system, total_bytes=total_mb << 20)
        return time.perf_counter() - t0

    current = baseline = float("inf")
    original = SimClock.charge, SimClock.charge_cpu
    wall_once()  # warm caches/imports outside the comparison
    for _ in range(max(1, repeats)):
        current = min(current, wall_once())
        SimClock.charge, SimClock.charge_cpu = _plain_charge, _plain_charge_cpu
        try:
            baseline = min(baseline, wall_once())
        finally:
            SimClock.charge, SimClock.charge_cpu = original
    limit = baseline * (1.0 + threshold) + slack_s
    return {
        "system": system,
        "total_mb": total_mb,
        "repeats": repeats,
        "instrumented_wall_s": current,
        "baseline_wall_s": baseline,
        "overhead_ratio": (current / baseline) if baseline else 0.0,
        "threshold": threshold,
        "slack_s": slack_s,
        "limit_wall_s": limit,
        "ok": current <= limit,
    }


def telemetry_overhead_guard(repeats: int = 5, requests: int = 600,
                             threshold: float = 0.05, slack_s: float = 0.05,
                             system: str = "splitfs-strict",
                             ) -> Dict[str, Any]:
    """Wall-clock cost of window snapshotting; pass/fail for CI.

    Interleaves ``repeats`` pairs of a fixed-seed overloaded serve run:
    one with the full telemetry/SLO stack attached and one with telemetry
    off.  Best-of wall times are compared under the same budget as
    :func:`overhead_guard` — telemetry-on may cost at most ``threshold``
    (relative) plus ``slack_s`` (absolute) over the plain run.
    """
    import dataclasses
    import time

    # Lazy import: obs sits below serve in the layering; the guard is a
    # harness entry point, not part of the obs data path.
    from ..serve.engine import ServeConfig, ServeEngine

    base = ServeConfig(system=system, requests=requests, records=200,
                       clients=200, offered_rate=120_000.0, seed=11)
    with_telem = dataclasses.replace(base, slo=True)

    def wall_once(cfg: ServeConfig) -> float:
        t0 = time.perf_counter()
        ServeEngine(cfg).run()
        return time.perf_counter() - t0

    current = baseline = float("inf")
    wall_once(base)  # warm caches/imports outside the comparison
    for _ in range(max(1, repeats)):
        current = min(current, wall_once(with_telem))
        baseline = min(baseline, wall_once(base))
    limit = baseline * (1.0 + threshold) + slack_s
    return {
        "system": system,
        "requests": requests,
        "repeats": repeats,
        "instrumented_wall_s": current,
        "baseline_wall_s": baseline,
        "overhead_ratio": (current / baseline) if baseline else 0.0,
        "threshold": threshold,
        "slack_s": slack_s,
        "limit_wall_s": limit,
        "ok": current <= limit,
    }
