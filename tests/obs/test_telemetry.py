"""Telemetry layer: window semantics, histogram deltas, SLO burn rates."""

import random

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry, counter_field
from repro.obs.telemetry import (
    AlertEvent,
    BurnRule,
    Objective,
    SLOEngine,
    Telemetry,
)


class TestHistogramSnapshots:
    def test_delta_counts_are_exact(self):
        h = Histogram("h")
        for v in (1, 5, 100, 3000):
            h.record(v)
        snap = h.snapshot()
        for v in (7, 7, 900):
            h.record(v)
        d = h.delta_since(snap)
        assert d.count == 3
        assert sum(d.buckets) == 3
        assert d.sum == pytest.approx(914.0)

    def test_delta_since_none_is_the_whole_histogram(self):
        h = Histogram("h")
        for v in (1, 2, 3):
            h.record(v)
        d = h.delta_since(None)
        assert d.count == 3 and d.buckets == h.buckets

    def test_empty_window_clamps_float_dust(self):
        h = Histogram("h")
        # Sums engineered so cumulative float subtraction leaves dust.
        for v in (0.1, 0.2, 0.3):
            h.record(v)
        snap = h.snapshot()
        d = h.delta_since(snap)
        assert d.count == 0
        assert d.sum == 0.0  # clamped, not -1e-17
        assert all(b == 0 for b in d.buckets)

    def test_new_extremes_are_recovered_exactly(self):
        h = Histogram("h")
        h.record(100)
        snap = h.snapshot()
        h.record(5)  # new global min
        h.record(90000)  # new global max
        d = h.delta_since(snap)
        assert d.min == 5.0 and d.max == 90000.0

    def test_non_extreme_window_bounds_stay_within_buckets(self):
        h = Histogram("h")
        h.record(1)
        h.record(100000)
        snap = h.snapshot()
        h.record(500)  # inside [min, max]: bounds come from the buckets
        d = h.delta_since(snap)
        assert d.count == 1
        assert d.min <= 500 <= d.max
        assert d.max <= 1024  # 500's bucket upper bound (2**9..2**10)

    def test_deltas_sum_back_to_cumulative(self):
        rng = random.Random(5)
        h = Histogram("h")
        merged = Histogram("h")
        prev = None
        for _ in range(20):  # 20 windows of random traffic
            for _ in range(rng.randrange(0, 30)):
                h.record(rng.expovariate(1.0 / 800.0))
            snap = h.snapshot()
            merged = merged.merged_with(h.delta_since(prev))
            prev = snap
        assert merged.count == h.count
        assert merged.buckets == h.buckets
        assert merged.sum == pytest.approx(h.sum, rel=1e-9)

    def test_windowed_quantile_matches_exact_on_synthetic_streams(self):
        # Property (satellite #1): on streams where each window sets both
        # global extremes, the window-delta quantile equals the exact
        # quantile of that window's samples to within the histogram's own
        # bucket error — i.e. delta_since introduces NO extra error vs a
        # fresh histogram over the same samples.
        rng = random.Random(11)
        h = Histogram("h")
        prev = None
        lo, hi = 1.0, 1 << 40
        for _ in range(12):
            samples = [rng.uniform(10.0, 1e6) for _ in range(50)]
            samples[0], samples[1] = lo, hi  # new global extremes each window
            lo /= 2.0
            hi *= 2.0
            fresh = Histogram("w")
            for v in samples:
                h.record(v)
                fresh.record(v)
            snap = h.snapshot()
            d = h.delta_since(prev)
            prev = snap
            for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
                assert d.quantile(q) == fresh.quantile(q)

    def test_count_above(self):
        h = Histogram("h")
        for v in (10, 100, 1000, 10000):
            h.record(v)
        assert h.count_above(20000) == 0.0
        assert h.count_above(5) == 4.0
        # Boundary: everything above 2**7 is exactly the top two samples.
        assert h.count_above(128.0) == pytest.approx(2.0)

    def test_merged_with(self):
        a, b = Histogram("h"), Histogram("h")
        a.record(5)
        b.record(500)
        m = a.merged_with(b)
        assert m.count == 2 and m.min == 5.0 and m.max == 500.0


class TestCumulative:
    def test_counter_fields_are_cumulative_plain_fields_are_not(self):
        from dataclasses import dataclass

        @dataclass
        class Stats:
            fired: int = counter_field()
            depth: float = 0.0  # plain field: a level, not a total

        reg = MetricsRegistry()
        st = Stats(fired=3, depth=7.0)
        reg.register_source("s", st)
        reg.counter("c").inc(2)
        assert reg.cumulative() == {"c": 2.0, "s.fired": 3.0}


def _telem(window_ns=100, capacity=4096):
    reg = MetricsRegistry()
    t = Telemetry(reg, window_ns, capacity=capacity)
    return reg, t


class TestTelemetryWindows:
    def test_windows_close_on_advance(self):
        reg, t = _telem(window_ns=100)
        c = reg.counter("x")
        t.begin(0)
        c.inc(5)
        t.advance(50)  # still inside window 0
        assert len(t.windows) == 0
        t.advance(250)  # closes windows 0 and 1
        assert [w.index for w in t.windows] == [0, 1]
        assert t.windows[0].counters["x"] == 5.0
        assert t.windows[1].counters["x"] == 0.0

    def test_finish_closes_trailing_partial(self):
        reg, t = _telem(window_ns=100)
        c = reg.counter("x")
        t.begin(0)
        c.inc(1)
        t.finish(130)
        assert [w.index for w in t.windows] == [0, 1]
        assert not t.windows[0].partial
        assert t.windows[1].partial
        assert t.windows[1].width_ns == 30

    def test_counter_deltas_telescope_to_total(self):
        reg, t = _telem(window_ns=50)
        c = reg.counter("x")
        rng = random.Random(3)
        t.begin(0)
        now = 0
        for _ in range(40):
            now += rng.randrange(1, 120)
            c.inc(rng.randrange(0, 5))
            t.advance(now)
        t.finish(now + 1)
        total = sum(w.counters["x"] for w in t.windows)
        assert total == c.value

    def test_hist_window_quantiles(self):
        reg, t = _telem(window_ns=100)
        h = reg.histogram("lat")
        t.begin(0)
        h.record(10)
        t.advance(100)
        h.record(100000)
        t.finish(200)
        assert t.windows[0].quantile_ns("lat", 1.0) == 10.0
        assert t.windows[1].quantile_ns("lat", 1.0) == 100000.0

    def test_window_hist_deltas_merge_to_end_of_run(self):
        reg, t = _telem(window_ns=70)
        h = reg.histogram("lat")
        rng = random.Random(9)
        t.begin(0)
        now = 0
        for _ in range(50):
            now += rng.randrange(1, 150)
            for _ in range(rng.randrange(0, 4)):
                h.record(rng.expovariate(1.0 / 3000.0))
            t.advance(now)
        t.finish(now + 1)
        merged = t.merged_hist("lat")
        assert merged.count == h.count
        assert merged.buckets == h.buckets
        assert merged.sum == pytest.approx(h.sum, rel=1e-9)

    def test_ring_buffer_evicts_and_counts(self):
        reg, t = _telem(window_ns=10, capacity=4)
        t.begin(0)
        t.finish(100)  # 10 windows into a 4-slot ring
        assert len(t.windows) == 4
        assert t.dropped == 6
        assert [w.index for w in t.windows] == [6, 7, 8, 9]

    def test_rate_series(self):
        reg, t = _telem(window_ns=100)
        c = reg.counter("x")
        t.begin(0)
        c.inc(5)
        t.advance(100)
        assert t.rate_series("x") == [(100, 5e9 / 100.0)]

    def test_source_reset_midrun_clamps_to_zero(self):
        reg, t = _telem(window_ns=100)
        c = reg.counter("x")
        t.begin(0)
        c.inc(5)
        t.advance(100)
        c.reset()  # cumulative goes backwards
        t.finish(200)
        assert t.windows[1].counters["x"] == 0.0  # clamped, not -5

    def test_begin_twice_raises(self):
        _reg, t = _telem()
        t.begin(0)
        with pytest.raises(RuntimeError):
            t.begin(0)

    def test_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            Telemetry(reg, 0)
        with pytest.raises(ValueError):
            Telemetry(reg, 100, capacity=0)


def _slo_run(bad_per_window, budget=0.1, total=100.0,
             rules=(BurnRule("page", fast=2, slow=4, factor=2.0),)):
    """Drive an SLOEngine with a synthetic bad/total sequence."""
    reg = MetricsRegistry()
    t = Telemetry(reg, 100)
    bad_c, total_c = reg.counter("bad"), reg.counter("total")
    eng = SLOEngine([Objective("o", budget=budget, total=("total",),
                               bad=("bad",))], rules=rules).attach(t)
    t.begin(0)
    now = 0
    for bad in bad_per_window:
        total_c.inc(total)
        bad_c.inc(bad)
        now += 100
        t.advance(now)
    return eng


class TestSLOEngine:
    def test_quiet_run_never_fires(self):
        eng = _slo_run([0, 0, 1, 0, 1, 0])  # ~1% bad vs 10% budget
        assert eng.ledger == []
        assert eng.firing() == []

    def test_sustained_burn_fires_and_resolves(self):
        # budget 0.1, factor 2.0 -> needs bad fraction > 0.2 on both the
        # fast(2) and slow(4) trailing windows.
        eng = _slo_run([0, 0, 50, 50, 50, 50, 0, 0, 0, 0])
        kinds = [(ev.kind, ev.window) for ev in eng.ledger]
        assert ("fire", 3) in kinds  # slow window catches up at window 3
        resolve = [w for k, w in kinds if k == "resolve"]
        assert resolve and resolve[0] > 3
        assert eng.firing() == []  # quiet tail resolved it

    def test_single_blip_does_not_page(self):
        # One bad window: the fast burn spikes (4.5x) but the slow window
        # dilutes it (2.25x), so a factor above the slow burn never pages.
        eng = _slo_run([0, 0, 0, 90, 0, 0, 0, 0],
                       rules=(BurnRule("page", fast=2, slow=4, factor=3.0),))
        assert all(ev.kind != "fire" for ev in eng.ledger)

    def test_ledger_is_deterministic(self):
        a = _slo_run([0, 0, 50, 50, 50, 0, 0])
        b = _slo_run([0, 0, 50, 50, 50, 0, 0])
        assert a.ledger == b.ledger
        assert all(isinstance(ev, AlertEvent) for ev in a.ledger)

    def test_goodput_objective_via_good_counters(self):
        reg = MetricsRegistry()
        t = Telemetry(reg, 100)
        tot, good = reg.counter("t"), reg.counter("g")
        eng = SLOEngine(
            [Objective("goodput", budget=0.1, total=("t",), good=("g",))],
            rules=(BurnRule("page", 1, 1, 2.0),)).attach(t)
        t.begin(0)
        tot.inc(100)
        good.inc(50)  # 50% bad >> 20% threshold
        t.advance(100)
        assert [ev.kind for ev in eng.ledger] == ["fire"]

    def test_histogram_objective_counts_threshold_busters(self):
        reg = MetricsRegistry()
        t = Telemetry(reg, 100)
        h = reg.histogram("lat")
        eng = SLOEngine(
            [Objective("p99", budget=0.01, hist="lat", threshold_ns=1000.0)],
            rules=(BurnRule("page", 1, 1, 5.0),)).attach(t)
        t.begin(0)
        for _ in range(90):
            h.record(100)
        for _ in range(10):
            h.record(50000)  # 10% busters vs 1% budget -> burn 10 > 5
        t.advance(100)
        assert [ev.kind for ev in eng.ledger] == ["fire"]

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            Objective("x", budget=0.0, total=("t",))
        with pytest.raises(ValueError):
            Objective("x", budget=0.1)  # neither hist nor total
        with pytest.raises(ValueError):
            Objective("x", budget=0.1, total=("t",), bad=("b",), good=("g",))
        with pytest.raises(ValueError):
            BurnRule("r", fast=3, slow=2, factor=1.0)
        with pytest.raises(ValueError):
            SLOEngine([])
