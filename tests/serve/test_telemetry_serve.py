"""Serve-stack telemetry: determinism, telescoping, outcome cross-checks.

The acceptance bar for the live-telemetry layer: per-window series and the
SLO alert ledger are byte-identical across identical-seed runs, window
histogram deltas sum exactly back to the end-of-run histogram, every
request lands exactly once per terminal outcome in every ledger that
counts it, and a run with telemetry detached is bit-identical to the seed
behaviour (the collector never touches the clock).
"""

import pytest

from repro.bench.report import render_slo_timeline
from repro.obs.export import validate_chrome_trace
from repro.serve import ServeConfig, ServeEngine, render_monitor_report
from repro.serve.report import LATENCY_HIST, render_serve_report
from repro.serve.reqtrace import to_chrome_trace
from tests.serve.test_sensitivity import THROTTLED

FAST = dict(requests=250, records=120, clients=200)

#: Offered load far above single-server capacity (~1.8 Mreq/s closed-loop)
#: so windows carry retries, sheds, and deadline misses — the interesting
#: SLO regime.
OVERLOAD = dict(FAST, offered_rate=8_000_000.0, telemetry_window_us=20.0)


def _run(seed=7, **overrides):
    cfg = ServeConfig(seed=seed, **{**FAST, **overrides})
    return ServeEngine(cfg).run()


class TestDeterminism:
    def test_ledger_and_p99_series_byte_identical_across_runs(self):
        a = _run(slo=True, **OVERLOAD)
        b = _run(slo=True, **OVERLOAD)
        assert a.slo.ledger == b.slo.ledger
        assert (a.telemetry.quantile_series(LATENCY_HIST, 0.99)
                == b.telemetry.quantile_series(LATENCY_HIST, 0.99))
        assert a.telemetry.series("serve.window.arrivals") \
            == b.telemetry.series("serve.window.arrivals")

    def test_monitor_report_byte_identical_across_runs(self):
        kw = dict(OVERLOAD, slo=True, trace_sample_every=8)
        a = render_monitor_report(_run(**kw))
        b = render_monitor_report(_run(**kw))
        assert a == b

    def test_telemetry_is_off_path(self):
        # The instrumented run's simulation must be bit-identical to the
        # plain run's: the plain report is a byte-prefix of the SLO report
        # (telemetry only appends sections), and every counter matches.
        plain = _run()
        inst = _run(slo=True, trace_sample_every=4)
        assert render_serve_report(inst).startswith(
            render_serve_report(plain) + "\n")
        assert inst.counters == plain.counters
        assert inst.duration_ns == plain.duration_ns
        assert inst.latency == plain.latency


class TestTelescoping:
    def test_window_hist_deltas_sum_to_end_of_run_histogram(self):
        r = _run(slo=True, **OVERLOAD)
        telem = r.telemetry
        assert telem.dropped == 0  # capacity holds the whole run
        final = telem.registry.histogram(LATENCY_HIST)
        merged = telem.merged_hist(LATENCY_HIST)
        assert merged.count == final.count  # int-exact
        assert merged.buckets == final.buckets  # int-exact
        assert merged.sum == pytest.approx(final.sum, rel=1e-9)

    def test_window_counter_deltas_sum_to_totals(self):
        r = _run(slo=True, **OVERLOAD)
        wins, c = r.telemetry.windows, r.counters
        for name, total in [("serve.window.arrivals", c.generated),
                            ("serve.engine.completed", c.completed),
                            ("serve.engine.shed", c.shed),
                            ("serve.engine.retries", c.retries),
                            ("serve.engine.attempts", c.attempts)]:
            got = sum(w.counters.get(name, 0.0) for w in wins)
            assert got == total, (name, got, total)

    def test_windows_tile_the_run(self):
        r = _run(slo=True, **OVERLOAD)
        wins = list(r.telemetry.windows)
        assert wins[0].start_ns == 0
        for prev, cur in zip(wins, wins[1:]):
            assert cur.start_ns == prev.end_ns
            assert cur.index == prev.index + 1
        assert all(not w.partial for w in wins[:-1])
        assert wins[-1].end_ns >= r.duration_ns


class TestDeviceStallWindows:
    """The device-bandwidth stall is the one series from below serve that
    its windows carry: a throttled device must put it in the windows, in
    full, and in the timeline."""

    @pytest.fixture(scope="class")
    def run(self):
        return ServeEngine(ServeConfig(
            system="splitfs-strict", app="kv", requests=300, records=200,
            seed=7, device_profile=THROTTLED, offered_rate=200_000.0,
            slo=True)).run()

    def test_window_stall_deltas_sum_to_the_run_stall(self, run):
        stall = sum(w.counters.get("pmem.bw.stall_ns", 0.0)
                    for w in run.telemetry.windows)
        assert stall > 0
        assert stall == pytest.approx(run.bandwidth["stall_ns"])

    def test_timeline_shows_the_stall_column(self, run):
        timeline = render_slo_timeline("t", run.telemetry, run.slo)
        assert "dev stall" in timeline.splitlines()[2]


class TestOutcomeCrossCheck:
    """Satellite: a retried-then-shed request appears exactly once per
    terminal outcome in the SLO-relevant window counters, the serve
    counters, the tracer tally, and the track_outcomes map."""

    @pytest.fixture(scope="class")
    def run(self):
        # Tiny queue + heavy overload forces the retry -> shed path.
        return _run(slo=True, track_outcomes=True, trace_sample_every=1,
                    queue_limit=2, max_retries=2,
                    **dict(OVERLOAD, requests=600))

    def test_scenario_actually_exercises_retried_then_shed(self, run):
        assert any(tr.outcome == "shed" and tr.attempts > 1
                   for tr in run.tracer.traces.values())

    def test_counters_partition_generated(self, run):
        c = run.counters
        assert c.generated == (c.completed + c.shed + c.failed
                               + c.timeouts_queue)

    def test_tracer_tally_matches_counters(self, run):
        c, tally = run.counters, run.tracer.outcome_counts
        assert tally.get("completed", 0) == c.completed
        assert tally.get("shed", 0) == c.shed
        assert tally.get("failed", 0) == c.failed
        assert tally.get("timeout", 0) == c.timeouts_queue
        assert sum(tally.values()) == c.generated

    def test_outcomes_map_matches_counters(self, run):
        from collections import Counter
        c = run.counters
        per = Counter(run.outcomes.values())
        assert len(run.outcomes) == c.generated  # one terminal per request
        assert per["shed"] == c.shed
        assert per["completed"] == c.completed

    def test_every_trace_has_exactly_one_terminal_outcome(self, run):
        for tr in run.tracer.traces.values():
            assert tr.outcome in ("completed", "shed", "failed", "timeout")

    def test_slo_windows_count_each_shed_once(self, run):
        shed = sum(w.counters.get("serve.engine.shed", 0.0)
                   for w in run.telemetry.windows)
        assert shed == run.counters.shed
        # And the errors objective saw exactly those bad events.
        evals = run.slo.evals["errors"]
        bad = sum(ev.bad for ev in evals)
        assert bad == run.counters.shed + run.counters.failed


class TestTraceExport:
    def test_chrome_trace_validates(self):
        r = _run(slo=True, trace_sample_every=4, trace_spans=True,
                 **OVERLOAD)
        assert r.tracer.traces  # the sample actually caught requests
        doc = to_chrome_trace(r.tracer)
        validate_chrome_trace(doc)
        assert any(ev["ph"] == "C" for ev in doc["traceEvents"])
        # Span capture put fs spans on at least one service phase.
        assert any(ph.spans for tr in r.tracer.traces.values()
                   for ph in tr.phases if ph.name == "service")

    def test_sampling_is_deterministic_and_1_in_k(self):
        a = _run(slo=True, trace_sample_every=4, **OVERLOAD)
        b = _run(slo=True, trace_sample_every=4, **OVERLOAD)
        assert sorted(a.tracer.traces) == sorted(b.tracer.traces)
        frac = len(a.tracer.traces) / a.counters.generated
        assert 0.1 < frac < 0.5  # ~1/4 with hash noise
