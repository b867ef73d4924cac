"""Metrics: instruments, counter fields, and the registry telemetry reads."""

from dataclasses import dataclass, field

import pytest

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    counter_field,
    reset_counter_fields,
)


class TestInstruments:
    def test_counter(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        c.reset()
        assert c.value == 0.0

    def test_histogram_exact_moments(self):
        h = Histogram("h")
        for v in (1, 10, 100, 1000):
            h.record(v)
        assert h.count == 4
        assert h.sum == 1111
        assert h.min == 1 and h.max == 1000
        assert h.mean == pytest.approx(277.75)

    def test_histogram_negative_clamped_and_reset(self):
        h = Histogram("h")
        h.record(-5)
        assert h.count == 1 and h.min == 0.0
        h.reset()
        assert h.count == 0 and h.sum == 0.0
        assert h.buckets == [0] * len(h.buckets)


@dataclass
class FakeStats:
    fired: int = counter_field()
    bytes_moved: float = counter_field(0.0)
    label: str = "x"          # not a counter: never read
    high_water: int = 7       # plain field: neither read nor reset


class TestCounterFields:
    def test_reset_only_marked_fields(self):
        st = FakeStats()
        st.fired = 5
        st.bytes_moved = 123.0
        st.high_water = 99
        reset_counter_fields(st)
        assert st.fired == 0 and st.bytes_moved == 0.0
        assert st.high_water == 99  # untouched: not a counter_field

    def test_faults_reset_via_consolidated_path(self):
        from repro.kernel.machine import Machine

        machine = Machine(16 * 1024 * 1024)
        machine.faults.media_faults_fired = 3
        machine.faults.reset_counters()
        assert machine.faults.media_faults_fired == 0


class TestRegistry:
    def test_get_or_create_returns_live_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
        reg.counter("a").inc(3)
        assert reg.cumulative()["a"] == 3.0

    def test_register_source_flattens_numeric_fields(self):
        reg = MetricsRegistry()
        st = FakeStats()
        st.fired = 4
        reg.register_source("pmem.fake", st)
        # Only the counter fields are running totals a window can diff.
        assert reg.cumulative() == {"pmem.fake.fired": 4.0,
                                    "pmem.fake.bytes_moved": 0.0}

    def test_register_source_same_object_is_idempotent(self):
        reg = MetricsRegistry()
        st = FakeStats()
        st.fired = 9
        reg.register_source("s", st)
        reg.register_source("s", st)  # same object: no error, no duplicate
        assert reg.cumulative() == {"s.fired": 9.0, "s.bytes_moved": 0.0}

    def test_last_registration_of_a_prefix_wins(self):
        reg = MetricsRegistry()
        old, new = FakeStats(), FakeStats()
        new.fired = 9
        reg.register_source("s", old)
        reg.register_source("s", new)
        assert reg.cumulative()["s.fired"] == 9.0

    def test_reset_rewinds_instruments_and_sources(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.histogram("h").record(5)
        st = FakeStats()
        st.fired = 8
        reg.register_source("s", st)
        reg.counter("c").reset()
        reg.histogram("h").reset()
        reset_counter_fields(st)
        assert reg.cumulative() == {"c": 0.0, "s.fired": 0.0,
                                    "s.bytes_moved": 0.0}
        assert reg.histogram("h").count == 0


class TestQuantile:
    """`Histogram.quantile`: interpolated, clamped, within one log bucket."""

    def test_empty_histogram_is_zero_everywhere(self):
        h = Histogram("h")
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 0.0

    def test_rejects_out_of_range_q(self):
        h = Histogram("h")
        h.record(5)
        with pytest.raises(ValueError):
            h.quantile(-0.01)
        with pytest.raises(ValueError):
            h.quantile(1.01)

    def test_all_zero_stream_yields_zero(self):
        h = Histogram("h")
        for _ in range(100):
            h.record(0)
        for q in (0.0, 0.5, 0.999, 1.0):
            assert h.quantile(q) == 0.0

    def test_extremes_clamp_to_exact_min_max(self):
        h = Histogram("h")
        for v in (3, 40, 500, 6000):
            h.record(v)
        assert h.quantile(0.0) == 3
        assert h.quantile(1.0) == 6000

    def test_huge_and_inf_values_clamp_to_last_bucket(self):
        h = Histogram("h")
        h.record(2.0 ** 80)
        h.record(float("inf"))
        h.record(float("nan"))  # clamped to 0 on record
        assert h.buckets[0] == 1
        assert h.buckets[-1] == 2
        # Quantiles stay finite: clamped to the tracked max (inf is the max
        # here, so the p0 end still reports the exact min of 0).
        assert h.quantile(0.0) == 0.0

    def test_monotone_in_q(self):
        h = Histogram("h")
        rng = __import__("random").Random(11)
        for _ in range(500):
            h.record(rng.expovariate(1.0 / 5000.0))
        qs = [i / 100.0 for i in range(101)]
        vals = [h.quantile(q) for q in qs]
        assert vals == sorted(vals)

    def test_within_one_log_bucket_of_exact(self):
        import random as _random

        rng = _random.Random(7)
        samples = sorted(rng.expovariate(1.0 / 20000.0) for _ in range(2000))
        h = Histogram("h")
        for s in samples:
            h.record(s)
        for q in (0.5, 0.9, 0.99, 0.999):
            exact = samples[int(q * (len(samples) - 1))]
            approx = h.quantile(q)
            # Bucket i covers [2**i, 2**(i+1)): at most a 2x relative error.
            assert exact / 2 <= approx <= exact * 2, (q, exact, approx)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - toolchain always ships hypothesis
    HAVE_HYPOTHESIS = False


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis unavailable")
class TestQuantileProperty:
    @given(values=st.lists(
        st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
        min_size=1, max_size=200),
        q=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=150, deadline=None)
    def test_quantile_brackets_exact_sample_quantile(self, values, q):
        h = Histogram("h")
        for v in values:
            h.record(v)
        approx = h.quantile(q)
        ordered = sorted(values)
        rank = q * (len(ordered) - 1)
        # A fractional rank interpolates between two order statistics, so
        # bracket against both neighbours: within the covering power-of-two
        # bucket of that range, clamped to the exact [min, max].
        below = ordered[int(rank)]
        above = ordered[min(int(rank) + 1, len(ordered) - 1)]
        assert min(values) <= approx <= max(values)
        lo = below / 2 if below >= 2 else 0.0
        assert lo <= approx <= max(above * 2, 2.0)
