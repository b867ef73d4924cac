"""Span tracing on the simulated clock.

The observability layer's core is an :class:`Observer` that every layer of
the stack reports into through lightweight ``with obs.span(...)`` context
managers: syscall entry -> VFS -> FS operation -> journal transaction ->
pmem flush/fence.  Spans are measured in *simulated* nanoseconds (the
clock the cost model charges), so a trace decomposes exactly the numbers
the experiments report — nothing is sampled, nothing is approximate.

Attribution works by interception: :meth:`Observer.on_charge` is invoked by
:class:`~repro.pmem.timing.SimClock` for every nanosecond charged, and the
charge is attributed to the *innermost* active span's category (its "self
time").  Summing self time over categories therefore reproduces the total
simulated time exactly — the per-layer latency-attribution table is a
partition of the end-to-end result, the paper's Figure 1 decomposition.

A :class:`NullObserver` singleton (``NULL_OBSERVER``) is installed on every
clock by default; its ``enabled`` flag lets hot paths skip instrumentation
with a single attribute test, and its :meth:`span` returns one shared
no-op context manager so disabled-mode overhead stays negligible.

This module deliberately imports nothing from the rest of ``repro`` so the
clock (which everything imports) can import it without cycles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Attribution category a charge lands in when no span is active.
UNATTRIBUTED = "other"

#: Time-category keys, matching ``repro.pmem.timing.Category`` values.
TIME_CATEGORIES = ("data", "meta_io", "cpu")


class _NullSpan:
    """The shared no-op context manager returned by ``NullObserver.span``."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullObserver:
    """Disabled-mode observer: every hook is a no-op.

    Kept deliberately tiny: hot paths test ``obs.enabled`` (a class
    attribute, one load) and :meth:`span` returns a shared singleton, so a
    machine without tracing pays almost nothing for the instrumentation
    points compiled into the stack.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, cat: str = UNATTRIBUTED) -> _NullSpan:
        return _NULL_SPAN

    def on_charge(self, ns: float, category: object) -> None:  # pragma: no cover
        return None

    def on_fence(self) -> None:
        return None

    def begin(self) -> None:
        return None

    def bind(self, clock) -> None:
        raise TypeError("NullObserver cannot be bound; pass a real Observer")


#: The module-wide disabled observer every SimClock starts with.
NULL_OBSERVER = NullObserver()


class Span:
    """One active (then completed) span.

    Acts as its own context manager; on exit it freezes into the record the
    exporters read.  ``self_*_ns`` hold the charges made while this span was
    the innermost active one, split by time category; ``start_fences`` /
    ``end_fences`` snapshot the observer's fence counter so tests can check
    spans never straddle fence/epoch boundaries out of order.
    """

    __slots__ = (
        "name", "cat", "start_ns", "end_ns", "depth",
        "self_data_ns", "self_meta_ns", "self_cpu_ns",
        "child_ns", "start_fences", "end_fences", "_obs",
    )

    def __init__(self, obs: "Observer", name: str, cat: str) -> None:
        self.name = name
        self.cat = cat
        self.start_ns = 0.0
        self.end_ns = 0.0
        self.depth = 0
        self.self_data_ns = 0.0
        self.self_meta_ns = 0.0
        self.self_cpu_ns = 0.0
        self.child_ns = 0.0
        self.start_fences = 0
        self.end_fences = 0
        self._obs: Optional["Observer"] = obs

    # Span is deliberately not re-entrant: each ``obs.span()`` call makes a
    # fresh one, so __enter__/__exit__ pair exactly once.

    def __enter__(self) -> "Span":
        obs = self._obs
        self.start_ns = obs.clock.now_ns
        self.start_fences = obs.fence_count
        self.depth = len(obs._stack)
        obs._stack.append(self)
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        obs = self._obs
        self.end_ns = obs.clock.now_ns
        self.end_fences = obs.fence_count
        stack = obs._stack
        # Context-manager discipline guarantees we are on top; tolerate a
        # corrupted stack rather than masking the caller's exception.
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - broken nesting, surface loudly
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] is self:
                    del stack[i:]
                    break
        obs._finish(self)

    @property
    def self_ns(self) -> float:
        return self.self_data_ns + self.self_meta_ns + self.self_cpu_ns

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


class Observer:
    """Process-wide (per-machine) tracing and attribution sink.

    Explicitly injected: build one, pass it to
    :class:`~repro.kernel.machine.Machine` (or call :meth:`bind` on an
    existing machine's clock), and every instrumented layer reports into it
    through ``machine.clock.obs``.

    Collected state:

    * ``events`` — completed spans in completion order (bounded by
      ``max_events``; ``dropped_events`` counts the overflow, attribution
      is never dropped);
    * ``attribution`` — ``{span category: {data|meta_io|cpu: ns}}`` self-time
      partition of all charged time (see module docstring);
    * ``collapsed`` — ``{(root..leaf span names): self ns}`` for
      flamegraph-style collapsed-stack output;
    * per-span-name latency histograms in ``registry`` (simulated ns,
      log-bucketed), plus counters such as ``pmem.device.fences``.
    """

    enabled = True

    def __init__(self, max_events: int = 200_000,
                 trace_fences: bool = False) -> None:
        from .metrics import MetricsRegistry  # local import: keep cycles out

        self.clock = None
        self.max_events = max_events
        #: Record one span per ``sfence`` (verbose; off by default — fences
        #: are always *counted* and epoch-stamped regardless).
        self.trace_fences = trace_fences
        self.registry = MetricsRegistry()
        self.events: List[Span] = []
        self.dropped_events = 0
        self.attribution: Dict[str, Dict[str, float]] = {}
        self.collapsed: Dict[Tuple[str, ...], float] = {}
        self.fence_count = 0
        self._stack: List[Span] = []
        self._fence_counter = self.registry.counter("pmem.device.fences")

    # -- wiring ---------------------------------------------------------------

    def bind(self, clock) -> None:
        """Attach to a simulated clock (also installs self as ``clock.obs``)."""
        self.clock = clock
        clock.obs = self

    def begin(self) -> None:
        """Zero all collected state (start of a measured region).

        The harness calls this after un-measured setup so attribution covers
        exactly the measured body.  Active spans are preserved — a measured
        region never starts mid-span in practice, but dropping the stack
        would corrupt nesting if it did.
        """
        self.events = []
        self.dropped_events = 0
        self.attribution = {}
        self.collapsed = {}
        self.fence_count = 0
        self.registry.reset()

    # -- hooks ----------------------------------------------------------------

    def span(self, name: str, cat: str = UNATTRIBUTED) -> Span:
        return Span(self, name, cat)

    def on_charge(self, ns: float, category: object) -> None:
        """SimClock reports every charge here (only while ``enabled``)."""
        stack = self._stack
        if stack:
            rec = stack[-1]
            cat = rec.cat
            key = category.value
            if key == "data":
                rec.self_data_ns += ns
            elif key == "meta_io":
                rec.self_meta_ns += ns
            else:
                rec.self_cpu_ns += ns
        else:
            cat = UNATTRIBUTED
            key = category.value
        bucket = self.attribution.get(cat)
        if bucket is None:
            bucket = {"data": 0.0, "meta_io": 0.0, "cpu": 0.0}
            self.attribution[cat] = bucket
        bucket[key] += ns

    def on_fence(self) -> None:
        """One persistence fence (sfence) retired on the device."""
        self.fence_count += 1
        self._fence_counter.inc()

    def _finish(self, span: Span) -> None:
        """A span exited: fold it into events, collapsed stacks, histograms."""
        if len(self.events) < self.max_events:
            self.events.append(span)
        else:
            self.dropped_events += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_ns += span.duration_ns
        if span.self_ns > 0.0:
            key = tuple(s.name for s in self._stack) + (span.name,)
            self.collapsed[key] = self.collapsed.get(key, 0.0) + span.self_ns
        self.registry.histogram(f"span.{span.name}.ns").record(
            span.duration_ns)

    # -- results --------------------------------------------------------------

    def attribution_totals(self) -> Dict[str, float]:
        """``{category: total ns}`` over all time categories."""
        return {cat: sum(b.values()) for cat, b in self.attribution.items()}

    def total_attributed_ns(self) -> float:
        return sum(sum(b.values()) for b in self.attribution.values())
