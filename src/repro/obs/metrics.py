"""Metrics registry: named counters, gauges, and log-bucketed histograms.

Naming convention: ``layer.subsystem.metric`` (e.g. ``pmem.device.fences``,
``span.ext4.write.ns``, ``ras.controller.scrub_passes``).  Histograms are
HDR-style log-bucketed over simulated nanoseconds: bucket ``i`` covers
``[2**i, 2**(i+1))`` ns, which keeps relative error bounded (~2x) over the
ten decades a simulated trace spans while using O(64) ints of state.

The registry also subsumes the ad-hoc stats structs that grew organically
in ``pmem``, ``ras``, and ``bench``: :meth:`MetricsRegistry.register_source`
flattens any dataclass of numeric fields into gauges at collection time,
and :func:`reset_counter_fields` gives those structs a single, metadata-
driven reset path so per-subsystem reset logic can't drift.

Like ``obs.observer``, this module imports nothing from the rest of
``repro`` so it can sit below the clock in the import graph.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

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


class Gauge:
    """Last-write-wins sample (queue depths, cache sizes, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

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

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
        }


def counter_field(default: Any = 0, **kwargs: Any) -> Any:
    """A dataclass field marked as a resettable counter.

    Stats structs declare ``fired: int = counter_field()`` and gain a
    drift-proof reset via :func:`reset_counter_fields` — the reset walks the
    metadata instead of a hand-maintained list of names.
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
    """Get-or-create registry of named metrics plus registered stat sources.

    ``counter``/``gauge``/``histogram`` return the live instrument for a
    name, creating it on first use.  ``register_source(prefix, obj)`` links
    an existing stats object (any dataclass of numeric fields, e.g.
    ``DeviceStats``, ``RASStats``, ``FaultInjector``) so ``collect()``
    exports its fields as ``<prefix>.<field>`` gauges and ``reset()``
    rewinds its counter fields along with every registered instrument.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sources: List[Tuple[str, Any, Optional[Tuple[str, ...]]]] = []

    # -- instruments ----------------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    # -- sources --------------------------------------------------------------

    def register_source(self, prefix: str, obj: Any,
                        fields: Optional[Iterable[str]] = None,
                        replace: bool = False) -> None:
        """Expose a stats dataclass's numeric fields as ``prefix.field``.

        ``fields`` restricts the export to the named subset — used when one
        stats object feeds two prefixes (e.g. the SplitFS degraded-mode
        counters live on the shared RAS stats block but are also published
        as ``splitfs.degrade.*``).  Re-registering a prefix with the *same*
        object is idempotent (the fields filter is refreshed); with a
        *different* object it raises unless ``replace=True`` — a silent
        overwrite here once hid a remount exporting stale journal stats.
        The same object may back multiple prefixes.
        """
        fields_t = tuple(fields) if fields is not None else None
        for i, (p, o, _f) in enumerate(self._sources):
            if p != prefix:
                continue
            if o is obj:  # idempotent re-registration; refresh the filter
                self._sources[i] = (prefix, obj, fields_t)
                return
            if not replace:
                raise ValueError(
                    f"metric source prefix {prefix!r} is already registered "
                    f"to a different object; pass replace=True to supersede "
                    f"it")
            self._sources[i] = (prefix, obj, fields_t)
            return
        self._sources.append((prefix, obj, fields_t))

    @staticmethod
    def _source_items(prefix: str, obj: Any,
                      fields: Optional[Tuple[str, ...]] = None,
                      ) -> Iterable[Tuple[str, float]]:
        if dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                if fields is not None and f.name not in fields:
                    continue
                v = getattr(obj, f.name)
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    yield f"{prefix}.{f.name}", float(v)

    # -- registry-wide operations ---------------------------------------------

    def reset(self) -> None:
        """Zero every instrument and every registered source's counters."""
        for c in self._counters.values():
            c.reset()
        for g in self._gauges.values():
            g.reset()
        for h in self._histograms.values():
            h.reset()
        for _, obj, _fields in self._sources:
            if dataclasses.is_dataclass(obj) and any(
                    f.metadata.get("counter") for f in dataclasses.fields(obj)):
                reset_counter_fields(obj)
            elif hasattr(obj, "reset"):
                obj.reset()

    def collect(self) -> Dict[str, Any]:
        """Flat ``{name: value}`` snapshot (histograms export sub-keys)."""
        out: Dict[str, Any] = {}
        for name, c in sorted(self._counters.items()):
            out[name] = c.value
        for name, g in sorted(self._gauges.items()):
            out[name] = g.value
        for name, h in sorted(self._histograms.items()):
            for k, v in h.as_dict().items():
                out[f"{name}.{k}"] = v
        for prefix, obj, fields in self._sources:
            for name, value in self._source_items(prefix, obj, fields):
                out[name] = value
        return out

    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def snapshot_values(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Split the registry into ``(cumulative, instantaneous)`` values.

        *Cumulative* values are monotonically accumulating totals whose
        per-window derivative is meaningful: ``Counter`` instruments plus
        every registered-source field declared via :func:`counter_field`.
        *Instantaneous* values are point-in-time levels sampled as-is:
        ``Gauge`` instruments plus plain (non-counter) numeric source
        fields such as token-bucket fill or queue depth.  The telemetry
        layer diffs the former across window boundaries and copies the
        latter, so a field's ``counter_field`` declaration is what decides
        whether it shows up as a rate or a level.
        """
        cumulative: Dict[str, float] = {}
        instantaneous: Dict[str, float] = {}
        for name, c in self._counters.items():
            cumulative[name] = c.value
        for name, g in self._gauges.items():
            instantaneous[name] = g.value
        for prefix, obj, fields in self._sources:
            counterish = set()
            if dataclasses.is_dataclass(obj):
                counterish = {f.name for f in dataclasses.fields(obj)
                              if f.metadata.get("counter")}
            for name, value in self._source_items(prefix, obj, fields):
                field = name[len(prefix) + 1:]
                if field in counterish:
                    cumulative[name] = value
                else:
                    instantaneous[name] = value
        return cumulative, instantaneous
