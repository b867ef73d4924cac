"""Consistency-mechanism inference and mechanism-aware pruning.

Deep crash sweeps are dominated by redundant states: a journal commit that
spans eight fences yields eight crash states that all exercise the same
invariant ("a partially written transaction must be discarded"), and a
workload's trace is long runs of such same-mechanism epochs.  Following
the Silhouette idea (see PAPERS.md — infer the crash-consistency
*mechanism* in play and test representative crash points per mechanism
invariant), this module

1. tags every persistence epoch with the mechanism that produced its
   stores — inferred from the span structure of the run (``jbd2.commit``
   → journal transaction, ``nova.log_append`` → log append,
   ``usplit.relink`` → CoW relink, ...), and
2. prunes the fence-state enumeration to the states that can distinguish
   invariant violations: every *mechanism boundary* (first and last fence
   of each same-mechanism phase) plus one representative interior state
   per phase.

Pruning is a coverage/cost trade and is therefore never silent: the
explorer reports the pruned/explored ratio per mechanism, and a sweep
without ``--prune`` enumerates every fence state.

:class:`MechanismProbe` is a minimal clock observer that maintains only
the stack of open span names.  It charges nothing and records nothing
else, so a recording pass with the probe bound is simulated-time
bit-identical to an unobserved run (the same guarantee the full
``repro.obs`` Observer provides, at a fraction of the bookkeeping).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..obs.metrics import counter_field

#: Span name → consistency mechanism.  Innermost matching span wins, so a
#: data store issued inside ``jbd2.commit`` is journal traffic even though
#: an outer ``ext4.write`` span is open.
SPAN_MECHANISMS = {
    "jbd2.commit": "journal",
    "jbd2.checkpoint": "journal",
    "jbd2.recover": "journal",
    "pmfs.undo_update": "journal",
    "pmfs.undo_recover": "journal",
    "nova.log_append": "log",
    "nova.log_gc": "log",
    "nova.log_replay": "log",
    "strata.log_append": "log",
    "strata.digest": "log",
    "strata.log_replay": "log",
    "usplit.oplog_append": "log",
    "usplit.relink": "cow",
    "usplit.stage_data": "cow",
}

#: Merge order when one epoch carries stores from several mechanisms: the
#: epoch is classified by the strongest invariant in play.
MECHANISM_PRIORITY = ("journal", "log", "cow", "data", "none")

_RANK = {m: i for i, m in enumerate(MECHANISM_PRIORITY)}


class _ProbeSpan:
    """Context manager pushing one span name on the probe's stack."""

    __slots__ = ("_probe", "_name")

    def __init__(self, probe: "MechanismProbe", name: str) -> None:
        self._probe = probe
        self._name = name

    def __enter__(self) -> "_ProbeSpan":
        self._probe.names.append(self._name)
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        names = self._probe.names
        if names and names[-1] == self._name:
            names.pop()
        else:  # pragma: no cover - broken nesting, recover best-effort
            for i in range(len(names) - 1, -1, -1):
                if names[i] == self._name:
                    del names[i:]
                    break


class MechanismProbe:
    """A clock observer that tracks only the open-span name stack.

    Implements exactly the surface hot paths consult on an enabled
    observer (``enabled``, ``span``, ``on_charge``, ``on_fence``) and
    nothing more; every hook except ``span`` is a no-op, so simulated time
    is untouched.
    """

    enabled = True

    def __init__(self) -> None:
        self.names: List[str] = []

    def bind(self, clock) -> None:
        clock.obs = self

    def span(self, name: str, cat: str = "other") -> _ProbeSpan:
        return _ProbeSpan(self, name)

    def on_charge(self, ns: float, category: object) -> None:
        return None

    def on_fence(self) -> None:
        return None

    def begin(self) -> None:  # pragma: no cover - interface parity
        return None

    def current_mechanism(self) -> str:
        """Mechanism of the innermost open span that names one (else data)."""
        names = self.names
        for i in range(len(names) - 1, -1, -1):
            mech = SPAN_MECHANISMS.get(names[i])
            if mech is not None:
                return mech
        return "data"


def merge_mechanism(current: str, incoming: str) -> str:
    """Epoch tag after folding one more store's mechanism in (priority)."""
    return incoming if _RANK[incoming] < _RANK[current] else current


def mechanism_summary(epoch_mechanisms: List[str]) -> Dict[str, int]:
    """``{mechanism: epoch count}`` in priority order (stable formatting)."""
    out: Dict[str, int] = {}
    for mech in MECHANISM_PRIORITY:
        n = epoch_mechanisms.count(mech)
        if n:
            out[mech] = n
    return out


@dataclass
class PruneStats:
    """Pruning counters for one sweep, registered in the machine metrics
    registry as the ``crashmc.prune`` source."""

    candidate_states: int = counter_field()
    kept_states: int = counter_field()
    pruned_total: int = counter_field()
    pruned_journal: int = counter_field()
    pruned_log: int = counter_field()
    pruned_cow: int = counter_field()
    pruned_data: int = counter_field()
    pruned_none: int = counter_field()

    def record(self, candidates: int, kept: int, pruned: Dict[str, int]) -> None:
        self.candidate_states += candidates
        self.kept_states += kept
        for mech, n in pruned.items():
            self.pruned_total += n
            setattr(self, f"pruned_{mech}", getattr(self, f"pruned_{mech}") + n)


def plan_pruned_fences(
    epoch_mechanisms: List[str], fences: int
) -> Tuple[Set[int], Dict[str, int]]:
    """Choose the fence states a pruned sweep explores.

    Fence state ``k`` (1-based, crash just before fence ``k`` drains) has
    epoch ``k-1`` in flight; consecutive fence states whose in-flight
    epochs share a mechanism form a *phase*.  Each phase keeps its first
    and last state (the mechanism boundaries — entry and exit of the
    protocol) plus one interior representative; everything else is pruned.

    Returns ``(kept fence indexes, {mechanism: states pruned})``.
    """
    kept: Set[int] = set()
    pruned: Dict[str, int] = {}
    k = 1
    while k <= fences:
        tag = epoch_mechanisms[k - 1]
        j = k
        while j + 1 <= fences and epoch_mechanisms[j] == tag:
            j += 1
        group = {k, j}
        if j - k >= 2:
            group.add((k + j) // 2)
        kept.update(group)
        dropped = (j - k + 1) - len(group)
        if dropped:
            pruned[tag] = pruned.get(tag, 0) + dropped
        k = j + 1
    return kept, pruned
