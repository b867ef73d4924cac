"""Persistence-trace recording and crash triggering.

The persistence model divides a program run into *epochs*: the stores and
flushes between two consecutive ``sfence`` instructions.  A crash can land

* at an epoch boundary — everything fenced is durable, everything in the
  current epoch is not (the deterministic states); or
* inside an epoch — where surviving/torn lines depend on eviction luck
  (the probabilistic states, sampled under a seeded
  :class:`~repro.pmem.cache.CrashPolicy`).

:class:`PersistenceTracer` records the event trace of a workload (one pass)
through :meth:`~repro.pmem.device.PersistentMemory.attach_observer`.  An
observer may instead raise :class:`CrashTriggered` at a chosen event to stop
the workload there; the domain fires hooks *before* mutating, so the raise
leaves PM state exactly as it was the instant before that event (the
replay engine of ``tests/crashmc/replay.py`` builds crash states this way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .mechanism import MechanismProbe, merge_mechanism


class CrashTriggered(BaseException):
    """Raised by a domain observer at a chosen persistence event.

    Derives from ``BaseException`` so no file-system ``except Exception``
    handler (including the syscall errno boundary) can swallow it.
    """

    def __init__(self, description: str) -> None:
        super().__init__(description)
        self.description = description


@dataclass
class Trace:
    """Summary of one recorded workload run."""

    fences: int = 0
    stores: int = 0
    clwbs: int = 0
    #: stores issued within each epoch; ``stores_per_epoch[e]`` is the count
    #: for the epoch *ending at* fence ``e`` (0-based); the final entry is
    #: the possibly-open epoch after the last fence.
    stores_per_epoch: List[int] = field(default_factory=list)
    #: consistency mechanism of each epoch (parallel to ``stores_per_epoch``),
    #: inferred from span structure by :class:`~repro.crashmc.mechanism.
    #: MechanismProbe`; ``"none"`` for epochs with no stores.
    epoch_mechanisms: List[str] = field(default_factory=list)


class PersistenceTracer:
    """Records fence/epoch structure during a full (crash-free) run.

    When ``probe`` (a :class:`~repro.crashmc.mechanism.MechanismProbe` bound
    to the machine's clock) is supplied, each epoch is additionally tagged
    with the consistency mechanism of the spans its stores were issued
    under.
    """

    def __init__(self, probe: Optional[MechanismProbe] = None) -> None:
        self.trace = Trace(stores_per_epoch=[0], epoch_mechanisms=["none"])
        self._probe = probe

    def on_store(self, addr: int, size: int, nontemporal: bool) -> None:
        trace = self.trace
        trace.stores += 1
        trace.stores_per_epoch[-1] += 1
        if self._probe is not None:
            trace.epoch_mechanisms[-1] = merge_mechanism(
                trace.epoch_mechanisms[-1], self._probe.current_mechanism())

    def on_clwb(self, addr: int, size: int) -> None:
        self.trace.clwbs += 1

    def on_fence(self) -> None:
        self.trace.fences += 1
        self.trace.stores_per_epoch.append(0)
        self.trace.epoch_mechanisms.append("none")
