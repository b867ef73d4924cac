"""Metrics: named counters, log-bucketed histograms, and counter fields.

Naming convention: ``layer.subsystem.metric`` (e.g.
``serve.request.latency_ns``, ``pmem.bw.stall_ns``).  Histograms are
HDR-style log-bucketed over simulated nanoseconds: bucket ``i`` covers
``[2**i, 2**(i+1))`` ns, which keeps relative error bounded (~2x) over the
ten decades a simulated trace spans while using O(64) ints of state.

Stats structs (``DeviceStats``, ``RASStats``, ``ServeCounters``, ...)
mark their running totals with :func:`counter_field`, which gives them
one metadata-driven reset (:func:`reset_counter_fields`) and tells a
:class:`MetricsRegistry` which fields a telemetry window diffs.  Every
other reader reads the stats object that keeps the counter.

Like ``obs.observer``, this module imports nothing from the rest of
``repro`` so it can sit below the clock in the import graph.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

_HIST_BUCKETS = 64  # 2**64 ns ≈ 584 years; plenty for simulated time


class HistogramSnapshot(NamedTuple):
    """A frozen copy of a histogram's state at one instant.

    The telemetry layer (:mod:`repro.obs.telemetry`) snapshots every
    histogram at each window boundary and derives the *window* histogram by
    subtracting consecutive snapshots (:meth:`Histogram.delta_since`).
    """

    count: int
    sum: float
    min: float
    max: float
    buckets: Tuple[int, ...]


class Counter:
    """Monotonic within a collection window; ``reset()`` rewinds to zero."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, delta: float = 1.0) -> None:
        self.value += delta

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Log-bucketed (power-of-two) histogram over non-negative values.

    Tracks exact count/sum/min/max alongside the buckets, so means are
    exact and only quantiles carry the ~2x bucket error.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.buckets: List[int] = [0] * _HIST_BUCKETS

    def record(self, value: float) -> None:
        if value < 0 or value != value:  # negative or NaN: clamp to zero
            value = 0.0
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.buckets[self._bucket_index(value)] += 1

    @staticmethod
    def _bucket_index(value: float) -> int:
        if value >= 2.0 ** _HIST_BUCKETS:  # huge values (incl. inf) clamp
            return _HIST_BUCKETS - 1
        iv = int(value)
        if iv < 1:  # bucket 0 covers [0, 2): zeros and sub-ns fractions
            return 0
        idx = iv.bit_length() - 1
        return idx if idx < _HIST_BUCKETS else _HIST_BUCKETS - 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-th quantile (``q`` in [0, 1]) by log-bucket interpolation.

        Interpolates linearly *within* the covering bucket — samples in
        bucket ``i`` are treated as uniformly spread over
        ``[2**i, 2**(i+1))`` — and clamps the result to the exactly-tracked
        ``[min, max]`` range, so ``quantile(0.0) >= min``,
        ``quantile(1.0) == max``, and an all-zero stream yields 0 at every
        ``q``.  The result is monotone in ``q`` and within one power-of-two
        bucket of the exact sample quantile.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile q must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        if q == 0.0:  # the exact minimum is tracked; no need to interpolate
            return self.min
        rank = q * (self.count - 1)  # fractional rank over the sorted stream
        seen = 0
        for i, n in enumerate(self.buckets):
            if not n:
                continue
            if rank < seen + n:
                lo = 0.0 if i == 0 else float(2 ** i)
                hi = float(2 ** (i + 1))
                frac = (rank - seen + 1.0) / n
                value = lo + frac * (hi - lo)
                return min(max(value, self.min), self.max)
            seen += n
        return self.max

    def reset(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.buckets = [0] * _HIST_BUCKETS

    # -- snapshots / windowed deltas ------------------------------------------

    def snapshot(self) -> HistogramSnapshot:
        """Freeze the current state (cheap: one tuple copy of the buckets)."""
        return HistogramSnapshot(self.count, self.sum, self.min, self.max,
                                 tuple(self.buckets))

    def delta_since(self, prev: Optional[HistogramSnapshot]) -> "Histogram":
        """The histogram of samples recorded since ``prev`` was taken.

        Bucket counts and ``count`` are integers, so their subtraction is
        exact; ``sum`` is a float and subtraction can leave negative dust
        when the window recorded nothing, so both are clamped at diff time
        (never below zero, and ``sum`` forced to 0.0 when ``count`` is 0).
        ``min``/``max`` are not windowed by the cumulative state, so they
        are recovered where possible (a new global extreme must have
        occurred inside the window) and otherwise bounded by the occupied
        delta buckets — quantiles clamp against them, keeping the ~2x
        bucket error bound.
        """
        d = Histogram(self.name)
        if prev is None:
            prev = HistogramSnapshot(0, 0.0, float("inf"), 0.0,
                                     (0,) * _HIST_BUCKETS)
        d.count = max(self.count - prev.count, 0)
        d.buckets = [max(c - p, 0) for c, p in zip(self.buckets, prev.buckets)]
        if d.count == 0:
            return d
        d.sum = max(self.sum - prev.sum, 0.0)
        lo_idx = next(i for i, n in enumerate(d.buckets) if n)
        hi_idx = next(i for i in range(_HIST_BUCKETS - 1, -1, -1)
                      if d.buckets[i])
        if self.min < prev.min:  # new global minimum ⇒ it happened this window
            d.min = self.min
        else:
            d.min = 0.0 if lo_idx == 0 else float(2 ** lo_idx)
        if self.max > prev.max:  # new global maximum ⇒ it happened this window
            d.max = self.max
        else:
            d.max = min(self.max, float(2 ** (hi_idx + 1)))
        if d.min > d.max:  # bucket-derived bounds can cross on tiny windows
            d.min = d.max
        return d

    def count_above(self, threshold: float) -> float:
        """Estimated number of samples strictly above ``threshold``.

        Exact when ``threshold`` falls on a bucket boundary or outside
        ``[min, max]``; otherwise linearly interpolated within the covering
        bucket (matching :meth:`quantile`'s uniform-within-bucket model).
        Used by the SLO engine to count deadline-busting samples per window.
        """
        if not self.count or threshold >= self.max:
            return 0.0
        if threshold < self.min:
            return float(self.count)
        idx = self._bucket_index(threshold)
        above = float(sum(self.buckets[idx + 1:]))
        n = self.buckets[idx]
        if n:
            lo = 0.0 if idx == 0 else float(2 ** idx)
            hi = float(2 ** (idx + 1))
            frac_above = (hi - min(max(threshold, lo), hi)) / (hi - lo)
            above += n * frac_above
        return min(above, float(self.count))

    def merged_with(self, other: "Histogram") -> "Histogram":
        """A new histogram holding this one's samples plus ``other``'s."""
        m = Histogram(self.name)
        m.count = self.count + other.count
        m.sum = self.sum + other.sum
        m.min = min(self.min, other.min)
        m.max = max(self.max, other.max)
        m.buckets = [a + b for a, b in zip(self.buckets, other.buckets)]
        return m


def counter_field(default: Any = 0, **kwargs: Any) -> Any:
    """A dataclass field marked as a resettable counter.

    Stats structs declare ``fired: int = counter_field()`` and gain a
    drift-proof reset via :func:`reset_counter_fields` — the reset walks the
    metadata instead of a hand-maintained list of names.  The same mark is
    what a :class:`MetricsRegistry` source windows as a rate.
    """
    metadata = dict(kwargs.pop("metadata", ()) or {})
    metadata["counter"] = True
    return dataclasses.field(default=default, metadata=metadata, **kwargs)


def reset_counter_fields(obj: Any) -> None:
    """Zero every ``counter_field`` on a dataclass instance to its default."""
    for f in dataclasses.fields(obj):
        if f.metadata.get("counter"):
            if f.default is not dataclasses.MISSING:
                setattr(obj, f.name, f.default)
            elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
                setattr(obj, f.name, f.default_factory())  # type: ignore[misc]
            else:  # pragma: no cover - counter fields always carry defaults
                setattr(obj, f.name, 0)


class MetricsRegistry:
    """The series one :class:`~repro.obs.telemetry.Telemetry` windows.

    ``counter``/``histogram`` return the live instrument for a name,
    creating it on first use.  ``register_source(prefix, obj)`` links an
    existing stats dataclass, so :meth:`cumulative` reads each of its
    :func:`counter_field` fields as ``<prefix>.<field>``.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sources: Dict[str, Any] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    def register_source(self, prefix: str, obj: Any) -> None:
        """Window ``obj``'s counter fields as ``prefix.field``.

        A prefix names one object: registering it again replaces the
        previous one.
        """
        self._sources[prefix] = obj

    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def cumulative(self) -> Dict[str, float]:
        """``{name: running total}`` of every ``Counter`` and every
        source's counter fields: the values a window diffs."""
        out = {name: c.value for name, c in self._counters.items()}
        for prefix, obj in self._sources.items():
            for f in dataclasses.fields(obj):
                if f.metadata.get("counter"):
                    out[f"{prefix}.{f.name}"] = float(getattr(obj, f.name))
        return out
