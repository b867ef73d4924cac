"""Overload-robustness invariants of the serve engine's admission control.

The load-bearing accounting identities, checked under deliberate overload:

* every generated request reaches exactly one terminal outcome
  (``generated == completed + timeouts_queue + shed + failed``);
* every *attempt* is either admitted or rejected, and every admitted
  attempt is serviced or queue-dropped — no admitted request vanishes;
* shedding is bounded and goodput degrades gracefully (does not collapse)
  when offered load crosses the device-saturation knee.
"""

from collections import Counter as TallyCounter

import pytest

from repro.serve import ServeConfig, ServeEngine, run_sweep

PM = 96 * 1024 * 1024


def _overloaded(**overrides):
    """A run pushed far past service capacity with a tight queue."""
    base = dict(app="kv", offered_rate=5_000_000.0, requests=400,
                records=120, queue_limit=8, max_retries=1,
                deadline_us=150.0, pm_size=PM, track_outcomes=True)
    base.update(overrides)
    return ServeEngine(ServeConfig(**base)).run()


class TestConservation:
    def test_every_request_reaches_exactly_one_outcome(self):
        r = _overloaded()
        c = r.counters
        assert c.generated == 400
        assert c.generated == c.completed + c.timeouts_queue + c.shed + c.failed
        # The outcome map (assert-guarded against double-counting inside the
        # engine) agrees with the counters tally for tally.
        assert len(r.outcomes) == c.generated
        tally = TallyCounter(r.outcomes.values())
        assert tally.get("completed", 0) == c.completed
        assert tally.get("timeout", 0) == c.timeouts_queue
        assert tally.get("shed", 0) == c.shed
        assert tally.get("failed", 0) == c.failed

    def test_no_admitted_attempt_vanishes(self):
        r = _overloaded()
        c = r.counters
        assert c.attempts == c.admitted + c.rejections
        # Each admitted attempt terminates exactly one way: serviced cleanly,
        # serviced into an error, or dropped at its queue deadline.
        assert c.admitted == (c.completed + c.failed + c.retryable_errors
                              + c.timeouts_queue)
        assert c.deadline_met + c.timeouts_late == c.completed

    def test_overload_actually_sheds(self):
        r = _overloaded()
        c = r.counters
        assert c.rejections > 0
        assert c.shed > 0
        assert c.retries > 0
        # Retry accounting: a retry is scheduled for every non-terminal
        # rejection/retryable error, never more than the budget allows.
        assert c.retries <= c.generated * ServeConfig().max_retries

    def test_tight_deadline_drops_queued_work_without_service(self):
        r = _overloaded(deadline_us=1.0, max_retries=0, queue_limit=64)
        c = r.counters
        # With a 1 us deadline almost nothing can be served in time, but the
        # engine must not crash, must not service dead requests forever, and
        # the ledger must still balance.
        assert c.generated == c.completed + c.timeouts_queue + c.shed + c.failed
        assert c.timeouts_queue > 0


class TestGracefulDegradation:
    @pytest.fixture(scope="class")
    def knee(self):
        """1x and 2x capacity with the flat (token-bucket) device model on
        (write-heavy aof)."""
        base = ServeConfig(app="aof", arrival="poisson", requests=300,
                           records=120, device_profile="flat", pm_size=PM,
                           seed=7)
        capacity, results = run_sweep(base, multipliers=(1.0, 2.0))
        return capacity, results

    def test_goodput_does_not_collapse_past_saturation(self, knee):
        capacity, (at_1x, at_2x) = knee
        assert at_1x.goodput_req_per_s > 0
        # Monotone offered load; goodput may dip past the knee but a robust
        # server keeps at least half its saturated goodput at 2x.
        assert at_2x.goodput_req_per_s >= 0.5 * at_1x.goodput_req_per_s

    def test_shed_is_bounded_and_deadline_violations_rare(self, knee):
        _, (_, at_2x) = knee
        c = at_2x.counters
        assert c.shed <= c.generated
        # Admission control sheds *instead of* blowing every deadline:
        # completed-but-late stays a small fraction even at 2x capacity.
        assert c.timeouts_late <= 0.05 * c.generated

    def test_saturation_is_visible_in_device_stats(self, knee):
        _, (at_1x, at_2x) = knee
        assert at_2x.bandwidth["stall_ns"] >= at_1x.bandwidth["stall_ns"]
        assert 0.0 <= at_2x.bandwidth["stall_fraction"] <= 1.0


class TestGoodputAccounting:
    def test_goodput_never_exceeds_realized_arrival_rate(self):
        r = _overloaded()
        realized = r.counters.generated / (r.duration_ns / 1e9)
        assert r.goodput_req_per_s <= realized + 1e-6

    def test_duration_spans_full_arrival_window(self):
        # Even if the tail of the arrival stream is entirely shed, the run's
        # duration covers it — goodput is not inflated by early termination.
        r = _overloaded(max_retries=0)
        assert r.duration_ns >= 1.0
        assert r.counters.generated == 400
