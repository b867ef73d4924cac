"""Retry/backoff behaviour under injected transient errors.

A flaky workload raising ``EAGAIN``/``ENOSPC`` exercises the client-side
retry loop: transient errors are retried with exponential backoff up to the
budget, exhaustion sheds the request exactly once, and non-retryable errors
terminate immediately.
"""

import pytest

from repro.posix.errors import FSError, NoSpaceFSError, TryAgainFSError
from repro.serve import ServeConfig, ServeEngine
from repro.serve.engine import RETRYABLE_ERRNOS


class _FlakyEngine(ServeEngine):
    """Wraps the workload so every service attempt raises ``exc_cls`` until
    ``fail_first`` attempts have been consumed (0 = always fail)."""

    def __init__(self, config, exc_cls, fail_first=None):
        super().__init__(config)
        self._exc_cls = exc_cls
        self._fail_first = fail_first
        self.service_attempts = 0

    def _build(self):
        machine, workload, ctx = super()._build()
        orig = workload.execute

        def flaky(c, req):
            self.service_attempts += 1
            if (self._fail_first is None
                    or self.service_attempts <= self._fail_first):
                raise self._exc_cls("injected transient error")
            return orig(c, req)

        workload.execute = flaky
        return machine, workload, ctx


def _calm_config(**overrides):
    """Low offered load, roomy queue and deadline: admission control stays
    out of the way so only the error path is exercised."""
    cfg = dict(app="kv", offered_rate=20_000.0, requests=40, records=60,
               queue_limit=512, deadline_us=1_000_000.0, track_outcomes=True)
    cfg.update(overrides)
    return ServeConfig(**cfg)


class TestRetryableErrnos:
    def test_eagain_and_enospc_are_retryable(self):
        assert TryAgainFSError("x").errno_name in RETRYABLE_ERRNOS
        assert NoSpaceFSError("x").errno_name in RETRYABLE_ERRNOS

    @pytest.mark.parametrize("exc_cls", [TryAgainFSError, NoSpaceFSError])
    def test_always_failing_requests_are_shed_after_budget(self, exc_cls):
        cfg = _calm_config(max_retries=2)
        eng = _FlakyEngine(cfg, exc_cls)
        r = eng.run()
        c = r.counters
        assert c.completed == 0
        assert c.shed == cfg.requests
        assert c.retryable_errors == cfg.requests * (cfg.max_retries + 1)
        assert c.retries == cfg.requests * cfg.max_retries
        assert all(v == "shed" for v in r.outcomes.values())

    def test_transient_failures_eventually_complete(self):
        cfg = _calm_config(max_retries=3)
        # First 10 service attempts fail; afterwards everything succeeds, so
        # the early requests complete on retry rather than being shed.
        eng = _FlakyEngine(cfg, TryAgainFSError, fail_first=10)
        r = eng.run()
        c = r.counters
        assert c.retryable_errors == 10
        assert c.retries == 10
        assert c.completed == cfg.requests
        assert c.shed == 0

    def test_zero_budget_sheds_on_first_transient_error(self):
        cfg = _calm_config(max_retries=0)
        eng = _FlakyEngine(cfg, TryAgainFSError, fail_first=5)
        r = eng.run()
        c = r.counters
        assert c.retries == 0
        assert c.shed == 5
        assert c.completed == cfg.requests - 5


class _Permanent(FSError):
    errno_name = "EIO"


class TestNonRetryable:
    def test_permanent_errors_fail_immediately_without_retry(self):
        cfg = _calm_config(max_retries=3)
        eng = _FlakyEngine(cfg, _Permanent, fail_first=7)
        r = eng.run()
        c = r.counters
        assert c.failed == 7
        assert c.retries == 0 and c.retryable_errors == 0
        assert c.completed == cfg.requests - 7
        assert list(r.outcomes.values()).count("failed") == 7


class TestBackoffScheduling:
    def test_retries_arrive_strictly_later(self):
        # The retry of a rejected/errored attempt is scheduled at
        # end-of-attempt + backoff, so a retried request's completion time
        # exceeds its first-attempt service time by at least the minimum
        # backoff (0.5x base).
        cfg = _calm_config(max_retries=1, backoff_base_us=200.0)
        eng = _FlakyEngine(cfg, TryAgainFSError, fail_first=1)
        r = eng.run()
        assert r.counters.completed == cfg.requests
        # Request 0 needed a retry: its recorded latency includes backoff.
        assert r.latency["max"] >= 0.5 * 200.0 * 1e3
