"""Identical seeds must yield byte-identical serve reports.

The engine owns every RNG it uses (arrival, jitter, workload); nothing may
touch the ``random`` module's global state, and the rendered report may not
contain wall-clock residue.  ``tools/goldens.py --check`` runs the CLI
twice against the committed reports; this is the in-process version.
"""

import random

import pytest

from repro.serve import ServeConfig, ServeEngine, render_serve_report

FAST = dict(requests=250, records=120, clients=200, pm_size=96 * 1024 * 1024)


def _run(seed=7, **overrides):
    cfg = ServeConfig(seed=seed, **{**FAST, **overrides})
    return ServeEngine(cfg).run()


class TestDeterminism:
    @pytest.mark.parametrize("app,arrival", [("kv", "poisson"),
                                             ("aof", "bursty")])
    def test_identical_seed_byte_identical_report(self, app, arrival):
        a = render_serve_report(_run(app=app, arrival=arrival))
        b = render_serve_report(_run(app=app, arrival=arrival))
        assert a == b

    def test_different_seed_differs(self):
        a = render_serve_report(_run(seed=7))
        b = render_serve_report(_run(seed=8))
        assert a != b

    def test_global_random_state_untouched(self):
        random.seed(12345)
        state = random.getstate()
        _run()
        assert random.getstate() == state

    def test_backoff_stream_is_seed_deterministic(self):
        e1 = ServeEngine(ServeConfig(seed=7))
        e2 = ServeEngine(ServeConfig(seed=7))
        s1 = [e1._backoff_ns(a) for a in (0, 1, 2, 3, 0, 1)]
        s2 = [e2._backoff_ns(a) for a in (0, 1, 2, 3, 0, 1)]
        assert s1 == s2
        e3 = ServeEngine(ServeConfig(seed=8))
        assert [e3._backoff_ns(a) for a in (0, 1, 2)] != s1[:3]

    def test_backoff_bounds(self):
        cfg = ServeConfig(seed=7, backoff_base_us=50.0, backoff_cap_us=800.0)
        eng = ServeEngine(cfg)
        for attempt in range(6):
            capped = min(50.0 * 2.0 ** attempt, 800.0) * 1e3
            for _ in range(20):
                v = eng._backoff_ns(attempt)
                assert 0.5 * capped <= v <= 1.5 * capped
