"""Profile runner: exactness vs the untraced benchmarks, outputs, and
disabled-mode neutrality."""

import json

import pytest

from repro.bench.harness import append_4k_workload
from repro.obs.export import validate_chrome_trace
from repro.obs.profile import (
    TABLE1_SYSTEMS,
    profile_report,
    results_to_json,
    run_profile,
    write_outputs,
)
from tests.reference_impls import stripped_observer_hook

MB = 1 << 20


class TestRunProfile:
    def test_table1_totals_match_untraced_run_exactly(self):
        """The acceptance bar: per-system attribution totals equal the
        simulated-ns the plain `repro table1` benchmark reports — same
        workload, bit-identical simulated clock."""
        results = run_profile("table1", systems=["ext4dax", "splitfs-posix"],
                              total_mb=1)
        for r in results:
            untraced = append_4k_workload(r.system, total_bytes=1 * MB)
            assert r.total_ns == untraced.account.total_ns, r.system
            assert r.operations == untraced.operations
            assert r.observer.total_attributed_ns() == pytest.approx(
                r.total_ns, abs=1e-3)
            assert abs(r.residual_ns) < 1e-3

    def test_iopatterns_and_bench_workloads_run(self):
        results = run_profile("iopatterns", systems=["splitfs-strict"],
                              patterns=["seq-read"], file_mb=1)
        assert len(results) == 1
        assert results[0].workload == "iopatterns-seq-read"
        assert results[0].total_ns > 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown profile workload"):
            run_profile("nope")

    def test_as_json_is_schema_clean(self):
        (r,) = run_profile("table1", systems=["ext4dax"], total_mb=1)
        doc = r.as_json()
        assert doc["trace_errors"] == []
        assert doc["spans"] > 0 and doc["fences"] > 0
        assert doc["attributed_ns"] == pytest.approx(doc["total_ns"],
                                                     abs=1e-3)
        json.dumps(results_to_json("table1", [r]))  # serializable

    def test_report_and_outputs(self, tmp_path):
        results = run_profile("table1", systems=["ext4dax"], total_mb=1)
        text = profile_report(results)
        assert "Latency attribution: ext4dax" in text
        assert "TOTAL" in text
        written = write_outputs(results, str(tmp_path))
        assert len(written) == 2
        trace_path = next(p for p in written if p.endswith(".json"))
        with open(trace_path) as fh:
            assert validate_chrome_trace(json.load(fh)) == []
        collapsed_path = next(p for p in written if p.endswith(".txt"))
        with open(collapsed_path) as fh:
            first = fh.readline()
        assert first.strip().rsplit(" ", 1)[1].isdigit()


class TestDisabledModeNeutrality:
    def test_table1_output_identical_with_and_without_obs_hooks(self, capsys):
        """NullObserver mode must be invisible: `repro table1` prints
        byte-identical output whether the observability hooks are compiled
        in (the default NullObserver path) or stripped back out."""
        from repro.cli import main

        assert main(["table1", "--total-mb", "1", "--persistence"]) == 0
        instrumented = capsys.readouterr().out
        with stripped_observer_hook():
            assert main(["table1", "--total-mb", "1", "--persistence"]) == 0
        stripped = capsys.readouterr().out
        assert instrumented == stripped

    def test_real_observer_does_not_perturb_simulated_results(self):
        from repro.obs import Observer

        plain = append_4k_workload("splitfs-strict", total_bytes=1 * MB)
        traced = append_4k_workload("splitfs-strict", total_bytes=1 * MB,
                                    observer=Observer())
        assert traced.account.as_dict() == plain.account.as_dict()
        assert traced.io.fences == plain.io.fences


class TestProfileCLI:
    def test_table1_attribution_is_exact_and_traces_are_schema_valid(
            self, capsys, tmp_path):
        """Every Table 1 system, traced: the attribution table sums to the
        simulated total, and every trace file written is schema-valid."""
        from repro.cli import main

        rc = main(["profile", "--workload", "table1", "--json",
                   "--out-dir", str(tmp_path), "--total-mb", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["system"] for r in doc["results"]] == list(TABLE1_SYSTEMS)
        for r in doc["results"]:
            assert abs(r["residual_ns"]) < 1e-3, r["system"]
            assert r["attributed_ns"] == pytest.approx(r["total_ns"],
                                                       abs=1e-3), r["system"]
            assert r["trace_errors"] == [], r["system"]
        paths = sorted(tmp_path.glob("trace_*.json"))
        assert len(paths) == len(TABLE1_SYSTEMS)
        for path in paths:
            assert validate_chrome_trace(json.loads(path.read_text())) == [], \
                path.name

    def test_profile_json_mode(self, capsys):
        from repro.cli import main

        rc = main(["profile", "--workload", "table1", "--system", "ext4dax",
                   "--total-mb", "1", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workload"] == "table1"
        (r,) = doc["results"]
        assert r["system"] == "ext4dax"
        assert r["trace_errors"] == []
        assert r["residual_ns"] == pytest.approx(0.0, abs=1e-3)

    def test_bench_workload(self, capsys):
        from repro.bench.wallclock import WORKLOADS
        from repro.cli import main

        rc = main(["profile", "--workload", "bench", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["workload"] for r in doc["results"]] == [
            f"bench-{s.name}" for s in WORKLOADS if s.kind == "io"]
        for r in doc["results"]:
            assert r["trace_errors"] == []
            assert r["residual_ns"] == pytest.approx(0.0, abs=1e-3)
