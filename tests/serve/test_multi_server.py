"""M-server queueing (``cpus``): capacity, overload behaviour, determinism."""

import pytest

from repro.serve import ServeConfig, ServeEngine, render_serve_report

FAST = dict(requests=300, records=120, clients=200)


def _run(**overrides):
    return ServeEngine(ServeConfig(seed=7, **{**FAST, **overrides})).run()


class TestMultiServer:
    def test_zero_cpus_rejected(self):
        with pytest.raises(ValueError):
            ServeEngine(ServeConfig(cpus=0))

    def test_capacity_scales_with_cpus(self):
        one = ServeEngine(ServeConfig(seed=7, cpus=1, **FAST))
        four = ServeEngine(ServeConfig(seed=7, cpus=4, **FAST))
        assert four.estimate_capacity() == pytest.approx(
            4 * one.estimate_capacity())

    def test_more_servers_dont_hurt_goodput_at_overload(self):
        """At a fixed offered rate past one server's capacity, adding
        servers must complete at least as many requests in deadline."""
        cap = ServeEngine(ServeConfig(seed=7, cpus=1, **FAST)).estimate_capacity()
        kw = dict(offered_rate=2.0 * cap, arrival="poisson")
        one = _run(cpus=1, **kw)
        two = _run(cpus=2, **kw)
        assert two.counters.deadline_met >= one.counters.deadline_met
        assert two.counters.timeouts_queue <= one.counters.timeouts_queue

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_report_deterministic_per_cpu_count(self, cpus):
        a = render_serve_report(_run(cpus=cpus))
        b = render_serve_report(_run(cpus=cpus))
        assert a == b

    def test_default_is_single_server(self):
        assert ServeConfig().cpus == 1

    def test_all_requests_accounted(self):
        res = _run(cpus=3)
        s = res.counters
        assert (s.completed + s.timeouts_queue + s.shed + s.failed
                == s.generated)
