"""Benchmark of the simulator's own host cost, with simulated results.

Run from the repository root::

    python3 perfbench/run.py --workload append-fsync --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed``; the workload is then
repeated in this one process until ``--seconds`` are used up (at least
twice), and every repeat must produce the same simulated digest.  With
``--trace 0`` the last line of output is a JSON object carrying the
end-to-end metrics (set-up time as the median over repeats, whole-repeat
and body times as totals over the run; simulated metrics are exact).
With ``--trace 1`` untraced and traced repeats alternate and the JSON
carries the per-layer metrics: host self seconds per layer from class-wide
wrappers (see ``tracing.py``), the tracing overhead, and deterministic
counts.  The spans of the last traced repeat are written to
``.perfbench_out/``.  See ``perfbench/README.md`` for what each metric
means and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "body_ops_per_s": "ops/s",
    "peak_rss_mib": "MiB",
    "sim_ns_per_op": "ns",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
}

#: Per-layer metrics (``--trace 1``) that are not layer self times.
PER_LAYER_EXTRA = {
    "pmem.device.init_calls": "count",
    "pmem.timing.charge_calls_per_op": "count/op",
    "journal.commits_per_op": "count/op",
    "pmem.bytes_written_per_user_byte": "B/B",
    "pmem.fences_per_op": "count/op",
    "pmem.clwb_lines_per_op": "count/op",
    "pmem.loads_per_op": "count/op",
    "serve.sim_wait_ns_mean": "ns",
    "serve.sim_service_ns_mean": "ns",
    "crashmc.keep_ratio": "ratio",
    "other_s": "s",
    "trace.overhead_frac": "ratio",
}


def _import_simulator():
    """Put this checkout's ``src`` first on the path and import from it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no simulator source under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise SystemExit(f"perfbench: imported repro from {where}, not {SRC}")


def run_repeat(workload, tracer=None):
    """One repeat; returns ``(repeat, outer wall seconds)``.

    Garbage from the previous repeat is collected first, outside timing.
    The output check runs after timing and after the tracer is removed.
    """
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    t0 = time.perf_counter()
    try:
        rep = workload.repeat()
    finally:
        outer = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if rep.verify is not None:
        rep.failed += rep.verify()
        rep.verify = None
    return rep, outer


def _time_left(start: float, seconds: float, costs) -> bool:
    """Whether one more repeat of typical cost fits in the budget."""
    return time.perf_counter() - start + statistics.median(costs) <= seconds


def _failures(reps) -> int:
    """Failed units, counting every unit of a repeat whose simulated
    digest differs from the first repeat's."""
    first = reps[0].digest
    return sum(r.units if r.digest != first else r.failed for r in reps)


def measure_end_to_end(workload, seconds: float):
    start = time.perf_counter()
    reps, costs = [], []
    while len(reps) < 2 or _time_left(start, seconds, costs):
        t0 = time.perf_counter()
        reps.append(run_repeat(workload)[0])
        costs.append(time.perf_counter() - t0)
    p50, _, tail = reps[0].sim_quantiles()
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in reps),
        # The host's speed drifts by 20-40% over tens of seconds.  Totals
        # over the whole run weigh every second of it alike, which spreads
        # less from run to run than the median repeat does.
        "wall_s": statistics.fmean(r.wall_s for r in reps),
        "body_ops_per_s": (sum(r.units for r in reps)
                           / sum(r.body_s for r in reps)),
        # ru_maxrss is KiB on Linux and never decreases: the process peak.
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_ns_per_op": reps[0].sim_ns_per_op,
        "sim_p50_us": p50 / 1e3,
        "sim_p99_us": tail / 1e3,
    }
    return reps, metrics, []


def measure_per_layer(workload, seconds: float):
    from perfbench.tracing import COUNTED, Tracer

    tracer = Tracer()
    start = time.perf_counter()
    plain, traced, costs = [], [], []
    layer_rows, other, problems = [], [], []
    while not traced or _time_left(start, seconds, costs):
        t0 = time.perf_counter()
        rep, outer = run_repeat(workload)
        plain.append((rep, outer))
        rep, outer = run_repeat(workload, tracer)
        traced.append((rep, outer))
        costs.append(time.perf_counter() - t0)
        problems += tracer.check(outer)
        layer_rows.append(tracer.layer_self())
        other.append(tracer.other_s(outer))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(
        OUT_DIR, f"{workload.name}-seed{workload.seed}.spans"), traced[-1][1])
    rep = traced[-1][0]
    units = rep.units
    calls = dict(zip(COUNTED, tracer.fn_calls))
    metrics = {name: statistics.median(row[name] for row in layer_rows)
               for name in tracer.metric_names}
    dev = rep.device
    metrics.update({
        "pmem.device.init_calls": tracer.calls[
            tracer.layers.index("pmem.device.init")],
        "pmem.timing.charge_calls_per_op": calls["charge"] / units,
        "journal.commits_per_op": calls["commit"] / units,
        "pmem.bytes_written_per_user_byte": (
            dev.bytes_written / rep.user_bytes if rep.user_bytes else 0.0),
        "pmem.fences_per_op": dev.fences / units,
        "pmem.clwb_lines_per_op": dev.clwb_lines / units,
        "pmem.loads_per_op": dev.loads / units,
        "serve.sim_wait_ns_mean": rep.extra.get("sim_wait_ns_mean", 0.0),
        "serve.sim_service_ns_mean": rep.extra.get("sim_service_ns_mean", 0.0),
        "crashmc.keep_ratio": rep.extra.get("keep_ratio", 0.0),
        "other_s": statistics.median(other),
        "trace.overhead_frac": (statistics.median(o for _, o in traced)
                                / statistics.median(o for _, o in plain) - 1),
    })
    reps = [r for r, _ in plain] + [r for r, _ in traced]
    return reps, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-tests")
    args = parser.parse_args(argv)

    _import_simulator()
    from perfbench.tracing import LAYERS
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    if args.trace:
        reps, values, problems = measure_per_layer(workload, args.seconds)
        units = {row[1]: "s" for row in LAYERS} | PER_LAYER_EXTRA
    else:
        reps, values, problems = measure_end_to_end(workload, args.seconds)
        units = END_TO_END
    attempted = sum(r.units for r in reps)
    failed = _failures(reps)
    first = reps[0]
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"repeats={len(reps)} units/repeat={first.units} ({workload.unit})")
    same = all(r.digest == first.digest for r in reps)
    print(f"  sim digest {first.digest[:16]} "
          f"({'identical' if same else 'DIFFERS'} across repeats); "
          f"sim tail percentile p{first.sim_quantiles()[1]}")
    print(f"  error_rate {failed}/{attempted} = {failed / attempted:.6g}")
    print("  wall_s per repeat " + " ".join(f"{r.wall_s:.4g}" for r in reps))
    for problem in problems:
        print(f"  trace check: {problem}")
    for name, value in values.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
