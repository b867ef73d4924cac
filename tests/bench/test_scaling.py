"""Scaling bench: throughput-vs-CPUs curves are deterministic and monotone."""

import pytest

from repro.bench.scaling import (ScalingPoint, render_scaling_report,
                                 run_point, run_scaling)

SMALL = dict(clients=4, ops=4, seed=7)


class TestScaling:
    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            run_point("btrfs", 1, **SMALL)

    @pytest.mark.parametrize("system", ["ext4dax", "nova-relaxed"])
    def test_throughput_increases_with_cpus(self, system):
        one = run_point(system, 1, **SMALL)
        four = run_point(system, 4, **SMALL)
        assert four.kops_per_s > one.kops_per_s
        assert four.total_ops == one.total_ops  # same work, less wall time

    def test_point_is_deterministic(self):
        assert run_point("splitfs-strict", 2, **SMALL) == run_point(
            "splitfs-strict", 2, **SMALL)

    def test_lock_wait_shows_up_under_contention(self):
        """ext4's jbd2 commit lock serialises concurrent fsyncs."""
        p = run_point("ext4dax", 4, **SMALL)
        assert p.lock_contended > 0
        assert p.lock_wait_ns > 0

    def test_work_exceeds_makespan_when_parallel(self):
        p = run_point("nova-relaxed", 4, **SMALL)
        assert p.work_ns > p.makespan_ns  # CPUs overlapped in virtual time

    def test_report_renders_all_points(self):
        points = run_scaling(systems=["ext4dax", "strata"],
                             cpu_counts=(1, 2), **SMALL)
        assert len(points) == 4
        report = render_scaling_report(points)
        assert "ext4dax" in report and "strata" in report
        assert "1cpu kops/s" in report and "speedup" in report

    def test_kops_property(self):
        p = ScalingPoint(system="x", cpus=1, clients=1, total_ops=1000,
                         makespan_ns=1e9, work_ns=1e9, lock_wait_ns=0.0,
                         lock_contended=0, context_switches=0)
        assert p.kops_per_s == pytest.approx(1.0)
