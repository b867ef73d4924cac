"""Live telemetry: windowed metric time-series + SLO burn-rate monitoring.

Production systems are operated through *live* signals — windowed
time-series, per-request traces, SLO alerts — not end-of-run attribution
tables.  This module adds that layer on top of a metrics registry, keyed
to **simulated** time so a serve run produces the identical timeline on
every machine.

Three pieces:

``Telemetry``
    Snapshots the registry into fixed-width windows of simulated time.
    Counters (and ``counter_field`` source fields) are diffed across
    window boundaries, and histograms are diffed into per-window delta
    histograms (so each window carries its own p50/p99).
    Windows live in a ring buffer; overflow evicts the oldest and counts
    ``dropped``.  The clock owner drives it with ``advance(now_ns)`` —
    the serve engine calls it per arrival event.

``Objective`` / ``SLOEngine``
    Declarative objectives — a latency threshold over a histogram, or a
    bad/total counter ratio — each with an error *budget* (allowed bad
    fraction).  The engine subscribes to window closes and evaluates
    multi-window burn rates: ``burn = (bad/total over last k windows) /
    budget``, with fast/slow window pairs à la SRE practice (a page fires
    only when both the fast and slow burn exceed the factor, so blips
    don't page but sustained burn does).  Fire/resolve transitions append
    to a deterministic alert ledger.

Window semantics: window ``i`` covers simulated ``[i*W, (i+1)*W)`` ns
relative to ``begin()``; a delta is attributed to the window containing
the *dispatch instant* of the event that produced it (``advance`` is
called with event time ``t`` before the event's work is charged, closing
every window that ends at or before ``t``).  ``finish()`` closes the
trailing partial window (marked ``partial``) so totals telescope: summing
any cumulative field's deltas over all windows reproduces the end-of-run
total exactly for integer-valued series, and bucket/count histogram sums
are exact by construction (int arithmetic); only the float ``sum`` field
can carry rounding dust, which is clamped at diff time.

Like the rest of ``obs``, everything here is deterministic and
wall-clock-free; imports stay within ``obs`` so the layer sits below the
clock in the import graph.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .metrics import Histogram, HistogramSnapshot, MetricsRegistry


@dataclasses.dataclass
class Window:
    """One closed telemetry window: counter deltas and delta-histograms."""

    index: int
    start_ns: int
    end_ns: int
    partial: bool = False
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)
    hists: Dict[str, Histogram] = dataclasses.field(default_factory=dict)

    @property
    def width_ns(self) -> int:
        return self.end_ns - self.start_ns

    def value(self, name: str, default: float = 0.0) -> float:
        """Counter delta for ``name`` in this window."""
        return self.counters.get(name, default)

    def rate_per_s(self, name: str) -> float:
        """Counter delta expressed as a per-second rate over this window."""
        if not self.width_ns:
            return 0.0
        return self.counters.get(name, 0.0) * 1e9 / self.width_ns

    def quantile_ns(self, hist: str, q: float) -> float:
        h = self.hists.get(hist)
        return h.quantile(q) if h is not None and h.count else 0.0


class Telemetry:
    """Fixed-width simulated-time windows over a ``MetricsRegistry``.

    Lifecycle: construct, let the subsystems under test register their
    instruments/sources, then ``begin(now_ns)`` to take the baseline
    snapshot.  The clock owner calls ``advance(now_ns)`` as simulated
    time moves; ``finish(now_ns)`` closes the trailing partial window.
    ``on_window`` callbacks run synchronously at each close, in
    registration order (the SLO engine subscribes this way).
    """

    def __init__(self, registry: MetricsRegistry, window_ns: int,
                 capacity: int = 4096) -> None:
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.registry = registry
        self.window_ns = int(window_ns)
        self.capacity = int(capacity)
        self.windows: Deque[Window] = deque(maxlen=self.capacity)
        self.dropped = 0
        self.origin_ns = 0
        self._began = False
        self._finished = False
        self._next_index = 0
        self._prev_cum: Dict[str, float] = {}
        self._prev_hist: Dict[str, HistogramSnapshot] = {}
        self._callbacks: List[Callable[[Window], None]] = []

    # -- lifecycle -------------------------------------------------------------

    def begin(self, now_ns: int) -> None:
        """Take the baseline snapshot; windows are measured from here."""
        if self._began:
            raise RuntimeError("Telemetry.begin() called twice")
        self._began = True
        self.origin_ns = int(now_ns)
        self._prev_cum = self.registry.cumulative()
        self._prev_hist = {name: h.snapshot()
                           for name, h in self.registry.histograms().items()}

    def on_window(self, fn: Callable[[Window], None]) -> None:
        self._callbacks.append(fn)

    def advance(self, now_ns: int) -> None:
        """Close every window whose end is at or before ``now_ns``."""
        if not self._began or self._finished:
            return
        rel = int(now_ns) - self.origin_ns
        while rel >= (self._next_index + 1) * self.window_ns:
            self._close((self._next_index + 1) * self.window_ns,
                        partial=False)

    def finish(self, now_ns: int) -> None:
        """Close remaining windows, then the trailing partial (if any)."""
        if not self._began or self._finished:
            return
        self.advance(now_ns)
        rel = int(now_ns) - self.origin_ns
        start = self._next_index * self.window_ns
        if rel > start:
            self._close(rel, partial=True)
        self._finished = True

    # -- internals -------------------------------------------------------------

    def _close(self, end_rel_ns: int, partial: bool) -> None:
        cum = self.registry.cumulative()
        win = Window(
            index=self._next_index,
            start_ns=self.origin_ns + self._next_index * self.window_ns,
            end_ns=self.origin_ns + end_rel_ns,
            partial=partial,
        )
        for name, value in cum.items():
            # Clamp: a source reset mid-run would otherwise produce a
            # negative "delta"; windows only ever report forward progress.
            win.counters[name] = max(value - self._prev_cum.get(name, 0.0),
                                     0.0)
        for name, h in self.registry.histograms().items():
            win.hists[name] = h.delta_since(self._prev_hist.get(name))
        self._prev_cum = cum
        self._prev_hist = {name: h.snapshot()
                           for name, h in self.registry.histograms().items()}
        if len(self.windows) == self.capacity:
            self.dropped += 1
        self.windows.append(win)
        self._next_index += 1
        for fn in self._callbacks:
            fn(win)

    # -- views -----------------------------------------------------------------

    def series(self, name: str) -> List[Tuple[int, float]]:
        """``[(window_end_ns, counter delta)]`` for one series."""
        return [(w.end_ns, w.value(name)) for w in self.windows]

    def rate_series(self, name: str) -> List[Tuple[int, float]]:
        """``[(window_end_ns, per-second rate)]`` for a cumulative series."""
        return [(w.end_ns, w.rate_per_s(name)) for w in self.windows]

    def quantile_series(self, hist: str, q: float) -> List[Tuple[int, float]]:
        """``[(window_end_ns, quantile_ns)]`` from per-window delta hists."""
        return [(w.end_ns, w.quantile_ns(hist, q)) for w in self.windows]

    def merged_hist(self, hist: str) -> Histogram:
        """All retained windows' delta histograms merged back together."""
        out = Histogram(hist)
        for w in self.windows:
            h = w.hists.get(hist)
            if h is not None:
                out = out.merged_with(h)
        return out


# -- SLO objectives + burn-rate alerting --------------------------------------


@dataclasses.dataclass(frozen=True)
class Objective:
    """A declarative SLO evaluated per window from telemetry deltas.

    Two kinds, selected by which fields are set:

    * **histogram**: ``hist`` + ``threshold_ns`` — bad events are samples
      above the threshold (``count_above``), total is the window's sample
      count.  Expresses "p99 latency ≤ threshold" as the equivalent error
      budget: p99 ≤ X over a window is exactly "at most 1% of samples
      exceed X", i.e. ``budget=0.01``.
    * **ratio**: ``total`` counters with either ``bad`` counters (bad
      fraction measured directly) or ``good`` counters (bad = total −
      good, expressing goodput floors: goodput ≥ 90% ⇔ budget 0.10).

    ``budget`` is the allowed bad fraction; burn rate 1.0 means spending
    the budget exactly at the allowed pace.
    """

    name: str
    budget: float
    total: Tuple[str, ...] = ()
    bad: Tuple[str, ...] = ()
    good: Tuple[str, ...] = ()
    hist: Optional[str] = None
    threshold_ns: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.budget < 1.0:
            raise ValueError(
                f"SLO {self.name!r}: budget must be in (0, 1), got "
                f"{self.budget}")
        if self.hist is None and not self.total:
            raise ValueError(
                f"SLO {self.name!r}: need either hist= or total= counters")
        if self.bad and self.good:
            raise ValueError(
                f"SLO {self.name!r}: bad= and good= are mutually exclusive")

    def measure(self, win: Window) -> Tuple[float, float]:
        """``(bad, total)`` event counts for this objective in ``win``."""
        if self.hist is not None:
            h = win.hists.get(self.hist)
            if h is None or not h.count:
                return 0.0, 0.0
            return h.count_above(self.threshold_ns), float(h.count)
        total = sum(win.counters.get(n, 0.0) for n in self.total)
        if self.good:
            good = sum(win.counters.get(n, 0.0) for n in self.good)
            return max(total - good, 0.0), total
        return sum(win.counters.get(n, 0.0) for n in self.bad), total


@dataclasses.dataclass(frozen=True)
class BurnRule:
    """A fast/slow multi-window burn-rate alert pair.

    Fires when the budget burn rate over the trailing ``fast`` windows AND
    over the trailing ``slow`` windows both exceed ``factor`` — the SRE
    multi-window construction: the slow window keeps one bad blip from
    paging, the fast window makes the alert resolve promptly once the
    burn stops.
    """

    name: str
    fast: int
    slow: int
    factor: float

    def __post_init__(self) -> None:
        if not 0 < self.fast <= self.slow:
            raise ValueError(
                f"burn rule {self.name!r}: need 0 < fast <= slow, got "
                f"fast={self.fast} slow={self.slow}")
        if self.factor <= 0:
            raise ValueError(
                f"burn rule {self.name!r}: factor must be positive")


# Scaled-down analogue of the classic 1h/6h + 6h/3d pairs: with the serve
# default of 500 us windows these span 1 ms/6 ms and 6 ms/36 ms of
# simulated time.  "page" catches fast budget exhaustion, "ticket" slow
# sustained burn.
DEFAULT_BURN_RULES: Tuple[BurnRule, ...] = (
    BurnRule("page", fast=2, slow=12, factor=14.4),
    BurnRule("ticket", fast=12, slow=72, factor=6.0),
)


@dataclasses.dataclass
class AlertEvent:
    """One fire/resolve transition in the deterministic alert ledger."""

    window: int
    t_ns: int
    slo: str
    rule: str
    kind: str  # "fire" | "resolve"
    burn_fast: float
    burn_slow: float


@dataclasses.dataclass
class WindowEval:
    """Per-window evaluation row for one objective (feeds the timeline)."""

    window: int
    end_ns: int
    bad: float
    total: float
    burn: Dict[str, Tuple[float, float]]  # rule -> (burn_fast, burn_slow)
    firing: Tuple[str, ...]  # rule names active after this window


class SLOEngine:
    """Evaluates objectives per window and maintains the alert ledger.

    Subscribe it to a ``Telemetry`` via ``attach`` (or pass the telemetry
    at construction).  All state is derived from window deltas, so two
    runs with the same seed produce byte-identical ledgers.
    """

    def __init__(self, objectives: Sequence[Objective],
                 rules: Sequence[BurnRule] = DEFAULT_BURN_RULES) -> None:
        if not objectives:
            raise ValueError("SLOEngine needs at least one objective")
        names = [o.name for o in objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names: {names}")
        self.objectives = tuple(objectives)
        self.rules = tuple(rules)
        maxlen = max((r.slow for r in self.rules), default=1)
        self._hist: Dict[str, Deque[Tuple[float, float]]] = {
            o.name: deque(maxlen=maxlen) for o in self.objectives}
        self._active: Dict[Tuple[str, str], bool] = {
            (o.name, r.name): False
            for o in self.objectives for r in self.rules}
        self.ledger: List[AlertEvent] = []
        self.evals: Dict[str, List[WindowEval]] = {
            o.name: [] for o in self.objectives}

    def attach(self, telemetry: Telemetry) -> "SLOEngine":
        telemetry.on_window(self.observe)
        return self

    def _burn(self, name: str, budget: float, k: int) -> float:
        hist = self._hist[name]
        span = list(hist)[-k:]
        total = sum(t for _, t in span)
        if total <= 0.0:
            return 0.0
        bad = sum(b for b, _ in span)
        return (bad / total) / budget

    def observe(self, win: Window) -> None:
        for obj in self.objectives:
            bad, total = obj.measure(win)
            self._hist[obj.name].append((bad, total))
            burns: Dict[str, Tuple[float, float]] = {}
            firing: List[str] = []
            for rule in self.rules:
                bf = self._burn(obj.name, obj.budget, rule.fast)
                bs = self._burn(obj.name, obj.budget, rule.slow)
                burns[rule.name] = (bf, bs)
                now_active = bf > rule.factor and bs > rule.factor
                key = (obj.name, rule.name)
                if now_active != self._active[key]:
                    self._active[key] = now_active
                    self.ledger.append(AlertEvent(
                        window=win.index, t_ns=win.end_ns, slo=obj.name,
                        rule=rule.name,
                        kind="fire" if now_active else "resolve",
                        burn_fast=bf, burn_slow=bs))
                if now_active:
                    firing.append(rule.name)
            self.evals[obj.name].append(WindowEval(
                window=win.index, end_ns=win.end_ns, bad=bad, total=total,
                burn=burns, firing=tuple(firing)))

    def firing(self) -> List[Tuple[str, str]]:
        """Currently-active ``(objective, rule)`` pairs, sorted."""
        return sorted(k for k, v in self._active.items() if v)
