"""Systematic crash-state enumeration.

The workload runs **once** under the explorer.  A recording pass yields
the fence/epoch structure (plus each epoch's consistency mechanism,
inferred from span structure by :mod:`repro.crashmc.mechanism`); a harvest
pass then runs the workload again with an observer that, at every planned
persistence event, forks the whole machine copy-on-write
(:meth:`~repro.kernel.machine.Machine.fork`), crashes the child, and
remounts/checks it inline while the parent stays paused inside the event
hook.  Cost per state is the recovery under test, not a replay of the op
prefix — the asymptotic win that makes deep sweeps feasible.  The
reference that rebuilds every state from scratch by replaying the op
prefix lives in the test suite (``tests/crashmc/replay.py``), which
asserts the forked crash state is bit-identical to the replayed one at
every state for every kind.

Three state families are enumerated, in one canonical temporal order:

* **fence states** — crash just before fence ``k`` drains; epochs
  ``0..k-2`` durable, epoch ``k-1`` in flight.  ``prune=True`` reduces
  these to mechanism-phase representatives and boundaries (see
  :func:`~repro.crashmc.mechanism.plan_pruned_fences`).
* **reorder states** (``reorder > 0``) — at each explored fence, up to
  ``reorder`` chosen subsets of the unfenced lines survive exactly
  (deterministic eviction reordering via
  :meth:`~repro.pmem.cache.PersistenceDomain.crash_with_survivors`).
* **intra-epoch states** (``intra > 0``) — sampled crashes just before a
  chosen store, under a seeded probabilistic policy with tearing.

Everything is pure in ``(kind, ops/seed, pm_size, intra, prune,
reorder)``: two runs with the same inputs explore bit-for-bit identical
states and produce identical reports (wall time is excluded from
:meth:`ExplorationReport.format` unless asked for).
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..pmem.cache import CrashPolicy
from ..pmem.cow import CowStats
from .mechanism import (MechanismProbe, PruneStats, mechanism_summary,
                        plan_pruned_fences)
from .oracles import KIND_PROPS, check_state
from .systems import fresh, remount
from .trace import PersistenceTracer, Trace
from .workload import Op, OpCursor, Shadow, generate_workload, run_workload

DEFAULT_PM_SIZE = 96 * 1024 * 1024


@dataclass
class Violation:
    """One oracle failure at one crash state."""

    kind: str
    state: str  # e.g. "fence 17" or "epoch 4 store 2 (policy seed 99)"
    inflight: Optional[str]  # description of the op cut short, if any
    messages: List[str]

    def describe(self) -> str:
        where = f"crash at {self.state}"
        if self.inflight is not None:
            where += f" during {self.inflight}"
        return where + ": " + "; ".join(self.messages)


@dataclass
class ExplorationReport:
    """Outcome of exploring every enumerated crash state of one workload."""

    kind: str
    seed: int
    ops: List[Op]
    trace: Trace = field(default_factory=Trace)
    states_explored: int = 0
    violations: List[Violation] = field(default_factory=list)
    #: Set when the sweep ran with the RAS layer: summed repair-ledger
    #: counters across all explored states (deterministic in the inputs, so
    #: CI can diff them between runs).
    ras_totals: Optional[dict] = None
    prune: bool = False
    reorder: int = 0
    #: fence states the trace offers before pruning
    candidate_fence_states: int = 0
    #: fence states dropped by mechanism-aware pruning, per mechanism
    pruned_states: Dict[str, int] = field(default_factory=dict)
    #: epochs per consistency mechanism (from the recording pass)
    mechanisms: Dict[str, int] = field(default_factory=dict)
    #: planned crash points skipped by the ``max_states`` budget
    skipped_states: int = 0
    #: planned crash points whose persistence event never fired
    skipped_triggers: int = 0
    #: wall-clock seconds spent enumerating (excluded from format() by
    #: default so identical-input reports stay byte-identical)
    elapsed_wall_s: float = 0.0
    #: CoW fork counters (fork engine only)
    cow: Optional[CowStats] = None
    #: pruning counters (also registered as the ``crashmc.prune`` metrics
    #: source on the harvest machine)
    prune_counters: Optional[PruneStats] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def pruned_total(self) -> int:
        return sum(self.pruned_states.values())

    def format(self, include_wall: bool = False) -> str:
        lines = [
            # "engine=fork" stays in the header: the crashmc-sweep digest
            # in goldens/bench-wallclock.txt and perfbench's crash-sweep
            # digest hash these bytes.
            f"crashmc: {self.kind}  seed={self.seed}  ops={len(self.ops)}"
            "  engine=fork",
            f"  trace: {self.trace.fences} fences, {self.trace.stores} stores, "
            f"{self.trace.clwbs} clwb lines",
        ]
        if self.mechanisms:
            lines.append("  mechanisms: " + " ".join(
                f"{m}={n}" for m, n in self.mechanisms.items()))
        lines.append(f"  states explored: {self.states_explored}")
        if self.prune:
            kept = self.candidate_fence_states - self.pruned_total
            ratio = (kept / self.candidate_fence_states
                     if self.candidate_fence_states else 1.0)
            detail = " ".join(f"{m}={n}" for m, n in sorted(
                self.pruned_states.items()))
            lines.append(
                f"  pruning: kept {kept} of {self.candidate_fence_states} "
                f"fence states (pruned {self.pruned_total}"
                + (f": {detail}" if detail else "")
                + f"); keep ratio {ratio:.2f}")
        if self.cow is not None and self.cow.forks:
            c = self.cow
            lines.append(
                f"  fork: {c.forks} forks, {c.cow_copies} segment copies, "
                f"{c.cow_bytes_copied} B copied, {c.bytes_shared} B shared")
        if self.skipped_states:
            lines.append(
                f"  truncated: {self.skipped_states} planned crash point(s) "
                f"skipped by the max-states budget")
        if self.skipped_triggers:
            lines.append(
                f"  skipped triggers: {self.skipped_triggers} planned crash "
                f"point(s) never fired")
        lines.append(f"  violations found: {len(self.violations)}")
        if self.ras_totals is not None:
            t = self.ras_totals
            lines.append(
                "  ras: detected={detected} repaired={repaired} "
                "unrecoverable={unrecoverable} poisoned_lines={poisoned_lines}"
                .format(**t))
        for v in self.violations:
            lines.append(f"  VIOLATION {v.describe()}")
        if include_wall:
            lines.append(f"  wall: {self.elapsed_wall_s:.2f}s")
        return "\n".join(lines)


# -- plan -------------------------------------------------------------------


@dataclass(frozen=True)
class _PlanItem:
    """One planned crash point, in canonical temporal order."""

    epoch: int  # temporal position: fires within / at the end of this epoch
    fence: Optional[int] = None  # fence event (1-based), or ...
    store: Optional[int] = None  # ... intra-epoch store event (0-based)
    policy_seed: Optional[int] = None


@dataclass
class _Plan:
    items: List[_PlanItem]
    kept_fences: Set[int]
    pruned: Dict[str, int]
    #: (epoch, store) -> policy seeds, in draw order (fork-engine lookup)
    intra_by_event: Dict[Tuple[int, int], List[int]]


def _build_plan(trace: Trace, intra: int, seed: int, prune: bool) -> _Plan:
    """Choose crash points and order them temporally (engine-independent)."""
    if prune and trace.epoch_mechanisms:
        kept, pruned = plan_pruned_fences(trace.epoch_mechanisms, trace.fences)
    else:
        kept, pruned = set(range(1, trace.fences + 1)), {}
    # Intra-epoch draws replicate the original sampling stream exactly.
    rng = random.Random(seed ^ 0x5EED)
    nonempty = [(e, count) for e, count in enumerate(trace.stores_per_epoch)
                if count > 0]
    draws: List[Tuple[int, int, int]] = []
    for _ in range(intra if nonempty else 0):
        epoch, count = nonempty[rng.randrange(len(nonempty))]
        draws.append((epoch, rng.randrange(count), rng.getrandbits(32)))
    intra_by_event: Dict[Tuple[int, int], List[int]] = {}
    for epoch, store, ps in draws:
        intra_by_event.setdefault((epoch, store), []).append(ps)
    items: List[_PlanItem] = []
    per_epoch: Dict[int, List[Tuple[int, int]]] = {}
    for epoch, store, ps in draws:
        per_epoch.setdefault(epoch, []).append((store, ps))
    for epoch in range(len(trace.stores_per_epoch)):
        # Stable sort: same-store duplicates stay in draw order, matching
        # the harvest pass where they are explored back-to-back.
        for store, ps in sorted(per_epoch.get(epoch, ()), key=lambda t: t[0]):
            items.append(_PlanItem(epoch=epoch, store=store, policy_seed=ps))
        k = epoch + 1
        if k <= trace.fences and k in kept:
            items.append(_PlanItem(epoch=epoch, fence=k))
    return _Plan(items=items, kept_fences=kept, pruned=pruned,
                 intra_by_event=intra_by_event)


def _reorder_subsets(lines: List[int], budget: int) -> List[List[int]]:
    """Deterministic survivor subsets for one fence state, capped at budget.

    The base fence state (nothing survives) is explored separately, so the
    empty subset is excluded.  When the full power set fits the budget it
    is enumerated outright (binary counting over the sorted lines);
    otherwise a structured prefix — all lines survive, each line alone
    survives, each line alone lost — probes single-line reorderings from
    both ends.
    """
    n = len(lines)
    if n == 0 or budget <= 0:
        return []
    if n <= 16 and (1 << n) - 1 <= budget:
        return [[lines[i] for i in range(n) if mask >> i & 1]
                for mask in range(1, 1 << n)]
    out: List[List[int]] = [list(lines)]
    seen = {tuple(lines)}
    for i in range(n):
        for sub in ([lines[i]], lines[:i] + lines[i + 1:]):
            key = tuple(sub)
            if sub and key not in seen:
                seen.add(key)
                out.append(sub)
    return out[:budget]


# -- shared state examination ----------------------------------------------


def _examine(
    report: ExplorationReport,
    kind: str,
    machine,
    shadow: Shadow,
    inflight: Optional[Op],
    state: str,
    seed: int,
    media_rate: float,
    state_hook: Optional[Callable[[str, object], None]],
) -> None:
    """Check one crashed machine (already crashed) against the oracle."""
    report.states_explored += 1
    # Counters accumulated reaching the crash point belong to that run,
    # not to the recovery under test: reset them so per-state repair
    # ledgers (and the summed RAS totals CI diffs) measure recovery alone.
    machine.faults.reset_counters()
    if media_rate and machine.ras is not None:
        # Seeded off the state *label* (not exploration order) so pruned
        # and exhaustive sweeps poison any shared state identically.
        poison_seed = (seed * 1_000_003) ^ zlib.crc32(state.encode())
        poisoned = 0
        for start, end in machine.ras.primary_ranges():
            poisoned += machine.faults.poison_rate(
                media_rate, seed=poison_seed ^ start, region=(start, end))
        if report.ras_totals is not None:
            report.ras_totals["poisoned_lines"] += poisoned
    if state_hook is not None:
        state_hook(state, machine)
    try:
        try:
            fs_after = remount(machine, kind)
        except Exception as exc:
            report.violations.append(Violation(
                kind=kind, state=state,
                inflight=inflight.describe() if inflight else None,
                messages=[f"remount/recovery failed: {exc!r}"],
            ))
            return
        messages = check_state(kind, fs_after, shadow, inflight)
        if messages:
            report.violations.append(Violation(
                kind=kind, state=state,
                inflight=inflight.describe() if inflight else None,
                messages=messages,
            ))
    finally:
        # Repairs performed during a *failed* recovery still belong in the
        # ledger — accumulate regardless of which way the remount went.
        if report.ras_totals is not None and machine.ras is not None:
            st = machine.ras.stats
            report.ras_totals["detected"] += st.detected
            report.ras_totals["repaired"] += st.repaired
            report.ras_totals["unrecoverable"] += st.unrecoverable


def _budget_left(report: ExplorationReport, max_states: Optional[int]) -> bool:
    return max_states is None or report.states_explored < max_states


# -- recording --------------------------------------------------------------


def record_trace(kind: str, ops: List[Op], pm_size: int = DEFAULT_PM_SIZE,
                 seed: int = 0, ras: bool = False) -> Trace:
    """One crash-free pass; returns the workload's persistence trace.

    A :class:`~repro.crashmc.mechanism.MechanismProbe` rides along on the
    clock so every epoch comes back tagged with its consistency mechanism
    (``trace.epoch_mechanisms``); the probe charges nothing, so the run is
    simulated-time identical to an unobserved one.
    """
    machine, fs = fresh(kind, pm_size, seed=seed, ras=ras)
    probe = MechanismProbe()
    probe.bind(machine.clock)
    tracer = PersistenceTracer(probe)
    shadow = Shadow(KIND_PROPS[kind])
    machine.pm.attach_observer(tracer)
    try:
        outcome = run_workload(fs, shadow, ops)
    finally:
        machine.pm.detach_observer()
    assert not outcome.crashed
    return tracer.trace


# -- fork engine ------------------------------------------------------------


class _ForkHarvester:
    """Domain observer that forks and crash-tests at planned events.

    Attached during the single harvest pass.  Domain hooks fire *before*
    the store/fence mutates, so a machine forked inside the hook is frozen
    at exactly the instant before that event.  The forked child carries no
    observers, so its own remount/recovery traffic does not re-enter this
    harvester; the parent is paused (single-threaded) until the child is
    fully examined — the CoW pause discipline of :mod:`repro.pmem.cow`.
    """

    def __init__(self, engine: "_ForkEngine") -> None:
        self.engine = engine
        self.fences_seen = 0
        self.stores_this_epoch = 0

    def on_store(self, addr: int, size: int, nontemporal: bool) -> None:
        key = (self.fences_seen, self.stores_this_epoch)
        seeds = self.engine.plan.intra_by_event.get(key)
        if seeds:
            for ps in seeds:
                self.engine.harvest_intra(key[0], key[1], ps)
            self.engine.visited.add(key)
        self.stores_this_epoch += 1

    def on_clwb(self, addr: int, size: int) -> None:
        pass

    def on_fence(self) -> None:
        k = self.fences_seen + 1
        if k in self.engine.plan.kept_fences:
            self.engine.harvest_fence(k)
            self.engine.visited.add(k)
        self.fences_seen += 1
        self.stores_this_epoch = 0


class _ForkEngine:
    """Single-pass exploration: run once, fork at every planned event."""

    def __init__(self, report: ExplorationReport, ops: List[Op],
                 pm_size: int, seed: int, plan: _Plan, ras: bool,
                 media_rate: float, reorder: int,
                 max_states: Optional[int],
                 state_hook: Optional[Callable]) -> None:
        self.report = report
        self.ops = ops
        self.pm_size = pm_size
        self.seed = seed
        self.plan = plan
        self.ras = ras
        self.media_rate = media_rate
        self.reorder = reorder
        self.max_states = max_states
        self.state_hook = state_hook
        self.cow = CowStats()
        report.cow = self.cow
        self.prune_stats = report.prune_counters
        #: plan keys ((epoch, store) or fence index) whose event fired
        self.visited: Set[object] = set()
        self.machine = None
        self.shadow: Optional[Shadow] = None
        self.cursor = OpCursor()

    def run(self) -> None:
        machine, fs = fresh(self.report.kind, self.pm_size, seed=self.seed,
                            ras=self.ras)
        self.machine = machine
        self.shadow = Shadow(KIND_PROPS[self.report.kind])
        # replace=True: run() may be re-entered with fresh stats blocks on a
        # re-used engine; the latest run's counters win.
        machine.metrics.register_source("crashmc.fork", self.cow,
                                        replace=True)
        if self.prune_stats is not None:
            machine.metrics.register_source("crashmc.prune", self.prune_stats,
                                            replace=True)
        harvester = _ForkHarvester(self)
        machine.pm.attach_observer(harvester)
        try:
            outcome = run_workload(fs, self.shadow, self.ops,
                                   cursor=self.cursor)
        finally:
            machine.pm.detach_observer()
        assert not outcome.crashed
        # Defensive: a nondeterministic workload would desynchronise the
        # harvest pass from the recorded trace — surface, don't miscount.
        for item in self.plan.items:
            key = item.fence if item.fence is not None else (item.epoch,
                                                            item.store)
            if key not in self.visited:
                self.report.skipped_triggers += 1

    # -- per-event harvesting ---------------------------------------------

    def _inflight(self) -> Optional[Op]:
        idx = self.cursor.index
        return self.ops[idx] if idx is not None else None

    def _examine_child(self, machine, state: str) -> None:
        _examine(self.report, self.report.kind, machine, self.shadow,
                 self._inflight(), state, self.seed, self.media_rate,
                 self.state_hook)

    def harvest_fence(self, k: int) -> None:
        report = self.report
        if not _budget_left(report, self.max_states):
            report.skipped_states += 1
            return
        parent = self.machine
        dirty = sorted(parent.pm.domain.dirty_lines()) if self.reorder else []
        child = parent.fork(cow_stats=self.cow)
        child.crash(CrashPolicy())
        self._examine_child(child, f"fence {k}")
        if self.reorder:
            subsets = _reorder_subsets(dirty, self.reorder)
            total = len(subsets)
            for i, sub in enumerate(subsets):
                if not _budget_left(report, self.max_states):
                    break
                child = parent.fork(cow_stats=self.cow)
                child.crash(survivors=set(sub))
                self._examine_child(
                    child,
                    f"fence {k} reorder {i + 1}/{total} "
                    f"({len(sub)}/{len(dirty)} lines survive)")

    def harvest_intra(self, epoch: int, store: int, policy_seed: int) -> None:
        report = self.report
        if not _budget_left(report, self.max_states):
            report.skipped_states += 1
            return
        child = self.machine.fork(cow_stats=self.cow)
        child.crash(CrashPolicy(
            survive_probability=0.5,
            pending_survive_probability=0.5,
            tear_lines=True,
            seed=policy_seed,
        ))
        self._examine_child(
            child, f"epoch {epoch} store {store} (policy seed {policy_seed})")


# -- entry point ------------------------------------------------------------


def explore(
    kind: str,
    ops: Optional[List[Op]] = None,
    nops: int = 12,
    seed: int = 0,
    pm_size: int = DEFAULT_PM_SIZE,
    intra: int = 0,
    max_states: Optional[int] = None,
    ras: bool = False,
    media_rate: float = 0.0,
    prune: bool = False,
    reorder: int = 0,
    state_hook: Optional[Callable[[str, object], None]] = None,
    prune_stats: Optional[PruneStats] = None,
) -> ExplorationReport:
    """Enumerate and check crash states of one workload on one kind.

    ``intra`` adds that many sampled intra-epoch states (with survival and
    tearing of unfenced lines) on top of the fence-boundary enumeration,
    and ``reorder`` adds up to that many deterministic survivor subsets of
    the unfenced lines at every explored fence.  ``max_states`` bounds
    total states for smoke runs (the report counts what was skipped).

    ``prune=True`` restricts fence states to mechanism-phase boundaries
    plus one representative per phase (see :mod:`repro.crashmc.mechanism`).

    ``ras=True`` runs every state with the RAS layer enabled;
    ``media_rate`` additionally scatters seeded-random poison over the
    RAS-protected metadata regions *after* each crash, so the remount path
    must detect and repair latent media errors — the oracles then check
    the *repaired* state.  (Poison is restricted to protected regions:
    unprotected poison is legitimately unrecoverable and would report EIO
    mount failures that are not crash-consistency bugs.)

    ``state_hook(label, machine)`` fires on every crashed (not yet
    remounted) state — the equivalence tests digest device bytes there.
    """
    if kind not in KIND_PROPS:
        raise ValueError(f"unknown file-system kind {kind!r}")
    if media_rate and not ras:
        raise ValueError("media_rate requires ras=True")
    if ops is None:
        ops = generate_workload(seed, nops)
    report = ExplorationReport(kind=kind, seed=seed, ops=list(ops),
                               prune=prune, reorder=reorder)
    report.trace = record_trace(kind, ops, pm_size, seed, ras=ras)
    report.mechanisms = mechanism_summary(report.trace.epoch_mechanisms)
    report.candidate_fence_states = report.trace.fences
    if ras:
        report.ras_totals = {"detected": 0, "repaired": 0,
                             "unrecoverable": 0, "poisoned_lines": 0}
    t0 = time.perf_counter()
    plan = _build_plan(report.trace, intra=intra, seed=seed, prune=prune)
    report.pruned_states = dict(plan.pruned)
    report.prune_counters = prune_stats if prune_stats is not None else PruneStats()
    report.prune_counters.record(report.candidate_fence_states,
                                 len(plan.kept_fences), plan.pruned)
    _ForkEngine(report, ops, pm_size, seed, plan, ras, media_rate, reorder,
                max_states, state_hook).run()
    report.elapsed_wall_s = time.perf_counter() - t0
    return report
