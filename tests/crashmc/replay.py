"""The replay crash engine: the reference the fork engine is checked against.

:func:`repro.crashmc.explorer.explore` runs the workload once and forks the
machine at each planned crash point.  Before forking existed, every crash
state was built from scratch: the workload replayed on a fresh machine
under a :class:`CrashTrigger` that stops the world at the chosen event.
That engine is kept here, in the test suite, as the independent oracle:
:func:`replay_engine` swaps :class:`ReplayEngine` in for the explorer's
``_ForkEngine`` class, so ``explore`` plans, examines and reports exactly
as before while every state is built by replay, and the tests compare the
two runs state by state.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

import repro.crashmc.explorer as explorer
from repro.crashmc.explorer import (ExplorationReport, _budget_left, _examine,
                                    _Plan, _reorder_subsets)
from repro.crashmc.oracles import KIND_PROPS
from repro.crashmc.trace import CrashTriggered
from repro.crashmc.workload import Op, Shadow, run_workload
from repro.factory import make_filesystem
from repro.pmem.cache import CrashPolicy


class CrashTrigger:
    """Raises :class:`CrashTriggered` at one chosen persistence event.

    ``fence_index=k`` (1-based) fires just before the ``k``-th fence drains —
    the crash state where epochs ``0..k-2`` are durable and epoch ``k-1`` is
    still in flight.  ``epoch``/``store_index`` instead fire just before the
    (0-based) ``store_index``-th store of the (0-based) ``epoch``-th epoch,
    for intra-epoch states.

    The trigger is *sticky*: once fired, every subsequent persistence event
    re-raises.  Exception-unwind code (e.g. a journal commit in a
    ``finally`` block) would otherwise keep writing to the device after the
    crash instant, breaking the contract that the caught machine state is
    exactly the state at the triggering event — the property the CoW fork
    engine relies on for replay/fork equivalence.
    """

    def __init__(
        self,
        fence_index: Optional[int] = None,
        epoch: Optional[int] = None,
        store_index: Optional[int] = None,
    ) -> None:
        if (fence_index is None) == (epoch is None):
            raise ValueError("pass exactly one of fence_index or epoch")
        if epoch is not None and store_index is None:
            raise ValueError("epoch crashes need a store_index")
        self.fence_index = fence_index
        self.epoch = epoch
        self.store_index = store_index
        self.fences_seen = 0
        self.stores_this_epoch = 0
        self.fired = False
        self._where = ""

    def on_store(self, addr: int, size: int, nontemporal: bool) -> None:
        if self.fired:
            raise CrashTriggered(f"store after {self._where}")
        if (
            self.epoch is not None
            and self.fences_seen == self.epoch
            and self.stores_this_epoch == self.store_index
        ):
            self.fired = True
            self._where = f"store {self.store_index} of epoch {self.epoch}"
            raise CrashTriggered(self._where)
        self.stores_this_epoch += 1

    def on_clwb(self, addr: int, size: int) -> None:
        if self.fired:
            raise CrashTriggered(f"clwb after {self._where}")

    def on_fence(self) -> None:
        if self.fired:
            raise CrashTriggered(f"fence after {self._where}")
        if self.fence_index is not None and self.fences_seen + 1 == self.fence_index:
            self.fired = True
            self._where = f"fence {self.fence_index}"
            raise CrashTriggered(self._where)
        self.fences_seen += 1
        self.stores_this_epoch = 0


def _replay_until(kind: str, ops: List[Op], seed: int,
                  trigger: CrashTrigger, ras: bool = False):
    """Run the workload on a fresh machine until ``trigger`` fires.

    Returns ``(machine, shadow, outcome)`` with the observer detached and
    the PM state frozen at the trigger instant (or at workload end if the
    trigger never fired).
    """
    machine, fs = make_filesystem(kind, seed=seed, ras=ras)
    shadow = Shadow(KIND_PROPS[kind])
    machine.pm.attach_observer(trigger)
    try:
        outcome = run_workload(fs, shadow, ops)
    finally:
        machine.pm.detach_observer()
    return machine, shadow, outcome


def _run_replay(report: ExplorationReport, ops: List[Op],
                seed: int, plan: _Plan, ras: bool, media_rate: float,
                reorder: int, max_states: Optional[int],
                state_hook: Optional[Callable]) -> None:
    kind = report.kind
    for item in plan.items:
        if not _budget_left(report, max_states):
            report.skipped_states += 1
            continue
        if item.fence is not None:
            trigger = CrashTrigger(fence_index=item.fence)
            machine, shadow, outcome = _replay_until(
                kind, ops, seed, trigger, ras=ras)
            if not outcome.crashed:
                report.skipped_triggers += 1
                continue
            inflight = (ops[outcome.inflight]
                        if outcome.inflight is not None else None)
            dirty = sorted(machine.pm.domain.dirty_lines()) if reorder else []
            machine.crash(CrashPolicy())
            _examine(report, kind, machine, shadow, inflight,
                     f"fence {item.fence}", seed, media_rate, state_hook)
            if reorder:
                subsets = _reorder_subsets(dirty, reorder)
                total = len(subsets)
                for i, sub in enumerate(subsets):
                    if not _budget_left(report, max_states):
                        break
                    m2, s2, o2 = _replay_until(
                        kind, ops, seed,
                        CrashTrigger(fence_index=item.fence), ras=ras)
                    if not o2.crashed:  # pragma: no cover - deterministic
                        report.skipped_triggers += 1
                        break
                    inflight2 = (ops[o2.inflight]
                                 if o2.inflight is not None else None)
                    m2.crash(survivors=set(sub))
                    _examine(report, kind, m2, s2, inflight2,
                             f"fence {item.fence} reorder {i + 1}/{total} "
                             f"({len(sub)}/{len(dirty)} lines survive)",
                             seed, media_rate, state_hook)
        else:
            trigger = CrashTrigger(epoch=item.epoch, store_index=item.store)
            machine, shadow, outcome = _replay_until(
                kind, ops, seed, trigger, ras=ras)
            if not outcome.crashed:
                report.skipped_triggers += 1
                continue
            inflight = (ops[outcome.inflight]
                        if outcome.inflight is not None else None)
            machine.crash(CrashPolicy(
                survive_probability=0.5,
                pending_survive_probability=0.5,
                tear_lines=True,
                seed=item.policy_seed,
            ))
            _examine(report, kind, machine, shadow, inflight,
                     f"epoch {item.epoch} store {item.store} "
                     f"(policy seed {item.policy_seed})",
                     seed, media_rate, state_hook)


class ReplayEngine:
    """Builds every planned crash state by replaying the op prefix.

    Takes ``_ForkEngine``'s constructor arguments, in the same order, and
    runs like it: same plan, budget, labels and seeds.  It forks nothing,
    so ``report.cow`` stays ``None``.
    """

    def __init__(self, *args) -> None:
        self.args = args

    def run(self) -> None:
        _run_replay(*self.args)


@contextmanager
def replay_engine() -> Iterator[None]:
    """Make :func:`~repro.crashmc.explorer.explore` build states by replay."""
    saved = explorer._ForkEngine
    explorer._ForkEngine = ReplayEngine
    try:
        yield
    finally:
        explorer._ForkEngine = saved
