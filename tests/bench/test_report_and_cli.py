"""Tests for the report renderers, Measurement math, and the CLI."""

import pytest

from repro.bench.harness import Measurement
from repro.bench.report import fmt_ratio, fmt_us, render_bar_figure, render_table
from repro.cli import build_parser, main
from repro.pmem.device import DeviceStats
from repro.pmem.timing import Category, TimeAccount


class TestRenderTable:
    def test_alignment_and_content(self):
        out = render_table("T", ["a", "long-header"], [["x", "1"], ["yy", "22"]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "long-header" in lines[2]
        assert "yy" in out and "22" in out

    def test_columns_padded_to_widest_cell(self):
        out = render_table("T", ["h"], [["wide-cell-content"]])
        header_line = out.splitlines()[2]
        assert len(header_line) >= len("wide-cell-content")

    def test_empty_rows(self):
        out = render_table("Empty", ["col"], [])
        assert "Empty" in out


class TestRenderBarFigure:
    def test_bars_scale_with_values(self):
        out = render_bar_figure("F", {"g": {"a": 1.0, "b": 2.0}})
        lines = [l for l in out.splitlines() if "#" in l]
        a_line = next(l for l in lines if " a " in l or l.strip().startswith("a"))
        b_line = next(l for l in lines if l.strip().startswith("b"))
        assert b_line.count("#") > a_line.count("#")

    def test_handles_zero_values(self):
        out = render_bar_figure("F", {"g": {"a": 0.0}})
        assert "0.00" in out

    def test_formatters(self):
        assert fmt_us(1500) == "1.50"
        assert fmt_ratio(2.5) == "2.50x"


class TestMeasurement:
    def make(self, data=100.0, cpu=900.0, ops=10):
        acct = TimeAccount()
        acct.charge(data, Category.DATA)
        acct.charge(cpu, Category.CPU)
        return Measurement("sys", "wl", ops, acct, DeviceStats())

    def test_ns_per_op(self):
        m = self.make()
        assert m.ns_per_op == 100.0

    def test_software_overhead_per_op(self):
        m = self.make()
        assert m.software_overhead_ns_per_op == 90.0

    def test_kops(self):
        m = self.make(data=0, cpu=1e6, ops=1000)  # 1ms for 1000 ops
        assert m.kops_per_sec == pytest.approx(1000.0)

    def test_zero_ops_guard(self):
        m = self.make(ops=0)
        assert m.ns_per_op > 0  # no ZeroDivisionError

    def test_seconds(self):
        m = self.make(data=0, cpu=2e9, ops=1)
        assert m.seconds == pytest.approx(2.0)


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["crashmc", "--fs", "strata",
                                  "--ops", "5"])
        assert args.fs == ["strata"]
        assert args.ops == 5

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])
