"""Command-line interface: run the reproduction's experiments and demos.

Usage::

    python -m repro systems                     # list the evaluated systems
    python -m repro table1 [--total-mb 8]       # the headline overhead table
    python -m repro syscalls                    # Table 6 latencies
    python -m repro iopatterns                  # Figure 4 sweeps
    python -m repro ycsb --system splitfs-strict --workload A
    python -m repro crashdemo                   # Table 3 semantics, live
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bench import (
    append_4k_workload,
    io_pattern_workload,
    syscall_latency_workload,
    ycsb_workload,
)
from .bench.report import render_persistence_summary, render_table
from .factory import GUARANTEE_GROUPS, SYSTEM_NAMES
from .pmem.constants import PM_WRITE_4K_NS
from .pmem.devmodel import PROFILE_NAMES


def cmd_systems(_args: argparse.Namespace) -> int:
    rows = []
    for group, systems in GUARANTEE_GROUPS.items():
        for system in systems:
            rows.append([system, group])
    print(render_table("Evaluated file systems", ["system", "guarantees"], rows))
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    if args.sensitivity:
        from .bench.report import render_sensitivity_table
        from .bench.sensitivity import run_sensitivity

        results = run_sensitivity(total_mb=args.total_mb, seed=args.seed)
        print(render_sensitivity_table(results, args.total_mb, args.seed))
        return 0
    rows = []
    measurements = []
    for system in ("ext4dax", "pmfs", "nova-strict", "splitfs-strict",
                   "splitfs-posix"):
        m = append_4k_workload(system, total_bytes=args.total_mb << 20,
                               device_profile=args.device_profile,
                               numa_remote=args.numa_remote)
        measurements.append(m)
        overhead = m.ns_per_op - PM_WRITE_4K_NS
        rows.append([system, f"{m.ns_per_op:.0f}", f"{overhead:.0f}",
                     f"{overhead / PM_WRITE_4K_NS * 100:.0f}%"])
    title = "Table 1: 4K append software overhead (671 ns = raw PM write)"
    # Annotate only when a device model is on: the default invocation must
    # stay byte-identical to the committed golden.
    if args.device_profile is not None or args.numa_remote:
        label = (args.device_profile or "optane") + (
            "+numa" if args.numa_remote else "")
        title += f" [device model {label}]"
    print(render_table(
        title,
        ["file system", "append ns/op", "overhead ns", "overhead %"], rows))
    if args.persistence:
        print()
        print(render_persistence_summary(measurements))
    return 0


def cmd_syscalls(args: argparse.Namespace) -> int:
    systems = args.system or ["splitfs-strict", "splitfs-posix", "ext4dax"]
    results = {s: syscall_latency_workload(s) for s in systems}
    calls = ["open", "close", "append", "fsync", "read", "unlink"]
    rows = [[c] + [f"{results[s][c] / 1000:.2f}" for s in systems]
            for c in calls]
    print(render_table("Table 6: system-call latencies (us)",
                       ["syscall"] + systems, rows))
    return 0


def cmd_iopatterns(args: argparse.Namespace) -> int:
    systems = args.system or list(SYSTEM_NAMES)
    patterns = ["seq-read", "rand-read", "seq-write", "rand-write", "append"]
    rows = []
    for system in systems:
        row = [system]
        for pattern in patterns:
            m = io_pattern_workload(system, pattern,
                                    file_bytes=args.file_mb << 20)
            row.append(f"{m.operations / (m.total_ns / 1e9) / 1e6:.2f}")
        rows.append(row)
    print(render_table(
        f"Figure 4: throughput in Mops/s ({args.file_mb} MB file, 4K ops)",
        ["system"] + patterns, rows))
    return 0


def cmd_ycsb(args: argparse.Namespace) -> int:
    m = ycsb_workload(args.system, args.workload,
                      record_count=args.records, operation_count=args.ops)
    print(f"{args.system} YCSB-{args.workload}: "
          f"{m.kops_per_sec:.1f} kops/s "
          f"({m.ns_per_op:.0f} ns/op, "
          f"software overhead {m.software_overhead_ns_per_op:.0f} ns/op)")
    return 0


def cmd_crashmc(args: argparse.Namespace) -> int:
    from .crashmc import emit_reproducer, explore, minimize

    kinds = list(SYSTEM_NAMES) if "all" in args.fs else args.fs
    # The minimizer and the reproducer re-explore with the sweep's options.
    options = dict(pm_size=args.pm_mb << 20, intra=args.intra,
                   max_states=args.max_states,
                   ras=args.ras or args.media_rate > 0,
                   media_rate=args.media_rate, prune=args.prune,
                   reorder=args.reorder)
    failed = False
    for kind in kinds:
        report = explore(kind, nops=args.ops, seed=args.seed, **options)
        print(report.format(include_wall=True))
        if report.ok:
            continue
        failed = True
        if args.minimize:
            small = minimize(kind, report.ops, seed=args.seed, **options)
            print(f"  minimized to {len(small.ops)} op(s); reproducer:")
            print(emit_reproducer(small, **options))
    return 1 if failed else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .difftest import (
        emit_pytest_reproducer,
        generate_ops,
        minimize_divergence,
        run_crash_differential,
        run_differential,
    )

    kinds = (tuple(SYSTEM_NAMES) if not args.fs or "all" in args.fs
             else tuple(args.fs))
    pm_size = args.pm_mb << 20
    failed = False
    for seed in range(args.seed, args.seed + args.budget):
        ops = generate_ops(seed, args.ops)
        report = run_differential(ops, kinds=kinds, pm_size=pm_size,
                                  seed=seed)
        print(report.format())
        if not report.ok:
            failed = True
            if args.minimize or args.emit_repro:
                small = minimize_divergence(ops, kinds=kinds,
                                            pm_size=pm_size)
                print(f"  minimized to {len(small.ops)} op(s):")
                for op in small.ops:
                    print(f"    {op.describe()}")
                if args.emit_repro:
                    source = emit_pytest_reproducer(
                        small, title=f"seed {seed}, {args.ops} ops")
                    with open(args.emit_repro, "w") as fh:
                        fh.write(source)
                    print(f"  reproducer written to {args.emit_repro}")
            continue
        if args.crash:
            crash_reports = run_crash_differential(
                ops, kinds=kinds, seed=seed, pm_size=pm_size,
                max_states=args.max_states, prune=args.crash_prune,
                reorder=args.crash_reorder)
            for kind, crep in crash_reports.items():
                if crep.ok:
                    print(f"  crash-differential {kind}: ok "
                          f"({crep.states_explored} states"
                          + (f", {crep.pruned_total} pruned"
                             if crep.pruned_total else "") + ")")
                else:
                    failed = True
                    print(crep.format(include_wall=True))
    return 1 if failed else 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.scaling:
        from .bench.scaling import render_scaling_report, run_scaling

        points = run_scaling(
            systems=args.systems.split(",") if args.systems else None,
            cpu_counts=tuple(int(n) for n in args.cpus_list.split(",")),
            clients=args.clients, ops=args.ops, seed=args.seed,
            device_profile=args.device_profile,
            numa_remote=args.numa_remote)
        print(render_scaling_report(points))
        return 0

    from .bench import wallclock as wc

    if not args.wallclock:
        print("repro bench: only --wallclock and --scaling are implemented",
              file=sys.stderr)
        return 2
    print(wc.render_suite(wc.run_suite()))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .obs.profile import (
        overhead_guard,
        profile_report,
        results_to_json,
        run_profile,
        write_outputs,
    )

    if args.guard:
        guard = overhead_guard(repeats=args.guard_repeats)
        if args.json:
            print(json.dumps(guard, indent=1))
        else:
            print(f"overhead guard: instrumented "
                  f"{guard['instrumented_wall_s'] * 1e3:.1f} ms vs baseline "
                  f"{guard['baseline_wall_s'] * 1e3:.1f} ms "
                  f"(ratio {guard['overhead_ratio']:.3f}, "
                  f"limit {guard['limit_wall_s'] * 1e3:.1f} ms) -> "
                  f"{'ok' if guard['ok'] else 'FAIL'}")
        return 0 if guard["ok"] else 1

    results = run_profile(
        args.workload, systems=args.system, total_mb=args.total_mb,
        file_mb=args.file_mb, patterns=args.pattern,
        ycsb_phase=args.ycsb_workload, records=args.records,
        operation_count=args.ops, trace_fences=args.trace_fences)
    written = write_outputs(results, args.out_dir) if args.out_dir else []
    doc = results_to_json(args.workload, results)
    if args.json:
        print(json.dumps(doc, indent=1))
    else:
        print(profile_report(results))
        for path in written:
            print(f"wrote {path}")
    trace_errors = [err for r in doc["results"] for err in r["trace_errors"]]
    if trace_errors:
        for err in trace_errors:
            print(f"TRACE SCHEMA FAIL {err}", file=sys.stderr)
        return 1
    return 0


def _serve_config(args: argparse.Namespace, **overrides):
    """Build a ServeConfig from the shared serve/monitor CLI arguments."""
    from .serve import ServeConfig

    kw = dict(
        system=args.system,
        app=args.app,
        arrival=args.arrival,
        clients=args.clients,
        rate_per_client=args.rate_per_client,
        offered_rate=args.offered,
        requests=args.requests,
        seed=args.seed,
        records=args.records,
        deadline_us=args.deadline_us,
        queue_limit=args.queue_limit,
        max_retries=args.max_retries,
        cpus=args.cpus,
        pm_size=args.pm_mb << 20,
        device_profile=args.device_profile,
        numa_remote=args.numa_remote,
    )
    kw.update(overrides)
    return ServeConfig(**kw)


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve import (
        ServeEngine,
        render_serve_report,
        render_sweep_report,
        run_sweep,
    )

    cfg = _serve_config(args, slo=args.slo,
                        telemetry_window_us=args.window_us)
    if args.sweep:
        capacity, results = run_sweep(cfg)
        print(render_sweep_report(capacity, results))
    else:
        print(render_serve_report(ServeEngine(cfg).run()))
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    import dataclasses as _dc
    import json
    import os

    if args.guard:
        from .obs.profile import telemetry_overhead_guard

        guard = telemetry_overhead_guard(repeats=args.guard_repeats)
        print(f"telemetry overhead guard: instrumented "
              f"{guard['instrumented_wall_s'] * 1e3:.1f} ms vs baseline "
              f"{guard['baseline_wall_s'] * 1e3:.1f} ms "
              f"(ratio {guard['overhead_ratio']:.3f}, "
              f"limit {guard['limit_wall_s'] * 1e3:.1f} ms) -> "
              f"{'ok' if guard['ok'] else 'FAIL'}")
        return 0 if guard["ok"] else 1

    from .serve import ServeEngine, render_monitor_report

    cfg = _serve_config(args, slo=True,
                        telemetry_window_us=args.window_us,
                        trace_sample_every=args.sample_every,
                        trace_spans=args.trace_spans)
    capacity = None
    if args.offered is None:
        # Probe capacity and drive the run at --load-factor times it, so
        # "monitor an overloaded serve run" needs no absolute rates.
        capacity = ServeEngine(cfg).estimate_capacity()
        cfg = _dc.replace(cfg, offered_rate=capacity * args.load_factor)
    result = ServeEngine(cfg).run()
    print(render_monitor_report(result, capacity))
    if args.out_dir and result.tracer is not None:
        from .serve.reqtrace import to_chrome_trace

        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(
            args.out_dir, f"reqtrace_{cfg.system}_seed{cfg.seed}.json")
        with open(path, "w") as fh:
            json.dump(to_chrome_trace(result.tracer), fh, indent=1,
                      sort_keys=True)
        print(f"wrote {path}")
    return 0


def cmd_ras_report(args: argparse.Namespace) -> int:
    from .ras.report import run_ras_report

    print(run_ras_report(system=args.system, seed=args.seed))
    return 0


def cmd_crashdemo(_args: argparse.Namespace) -> int:
    from .core import Mode, SplitFS, recover
    from .ext4.filesystem import Ext4DaxFS
    from .kernel.machine import Machine
    from .posix import flags as F

    for mode in (Mode.POSIX, Mode.SYNC, Mode.STRICT):
        machine = Machine(96 * 1024 * 1024)
        fs = SplitFS(Ext4DaxFS.format(machine), mode=mode)
        fd = fs.open("/f", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"unsynced append")
        machine.crash()
        kfs, _ = recover(machine, strict=mode is Mode.STRICT)
        survived = kfs.exists("/f") and kfs.stat("/f").st_size > 0
        print(f"{mode.value:<7} unsynced append survived crash: {survived}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SplitFS reproduction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("systems", help="list evaluated file systems")

    p = sub.add_parser("table1", help="Table 1: 4K append overhead")
    p.add_argument("--total-mb", type=int, default=8)
    p.add_argument("--persistence", action="store_true",
                   help="also print fence/writeback/unpersisted-line counts")
    p.add_argument("--device-profile", default=None, choices=PROFILE_NAMES,
                   help="attach the calibrated device model (token bucket; "
                        "optane/eadr add the small-write curve, eadr also "
                        "zeroes flush cost). Default: the fixed-cost device "
                        "of the golden")
    p.add_argument("--numa-remote", action="store_true",
                   help="add NUMA-remote access penalties (implies the "
                        "optane profile when none is named)")
    p.add_argument("--sensitivity", action="store_true",
                   help="instead of Table 1, render the Table-2-style "
                        "device-model sensitivity family: every system "
                        "under fixed/optane/eadr/dram/optane+numa")
    p.add_argument("--seed", type=int, default=5,
                   help="workload seed (payload bytes; default 5 matches "
                        "the committed golden)")

    p = sub.add_parser("syscalls", help="Table 6: syscall latencies")
    p.add_argument("--system", action="append", choices=SYSTEM_NAMES)

    p = sub.add_parser("iopatterns", help="Figure 4: IO pattern sweep")
    p.add_argument("--system", action="append", choices=SYSTEM_NAMES)
    p.add_argument("--file-mb", type=int, default=8)

    p = sub.add_parser("ycsb", help="run one YCSB workload")
    p.add_argument("--system", default="splitfs-strict", choices=SYSTEM_NAMES)
    p.add_argument("--workload", default="A",
                   choices=["load", "A", "B", "C", "D", "E", "F"])
    p.add_argument("--records", type=int, default=1000)
    p.add_argument("--ops", type=int, default=1500)

    p = sub.add_parser(
        "crashmc", help="enumerate and check crash states (crashmc)")
    p.add_argument("--fs", action="append", required=True,
                   choices=list(SYSTEM_NAMES) + ["all"],
                   help="file system kind to explore (repeatable, or 'all')")
    p.add_argument("--ops", type=int, default=12,
                   help="workload length (generated from --seed)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--intra", type=int, default=0,
                   help="sampled intra-epoch crash states on top of the "
                        "exhaustive fence-boundary enumeration")
    p.add_argument("--pm-mb", type=int, default=96)
    p.add_argument("--max-states", type=int, default=None,
                   help="bound total states explored (smoke runs)")
    p.add_argument("--minimize", action="store_true",
                   help="on violation, ddmin the workload and print a "
                        "standalone reproducer script")
    p.add_argument("--ras", action="store_true",
                   help="explore with the RAS layer enabled (metadata "
                        "replicas + repair on the remount path)")
    p.add_argument("--media-rate", type=float, default=0.0,
                   help="post-crash poison probability per protected cache "
                        "line (implies --ras); oracles then check the "
                        "repaired states")
    p.add_argument("--prune", action="store_true",
                   help="mechanism-aware pruning: keep boundary + "
                        "representative fence states per consistency-"
                        "mechanism phase (journal/log/CoW) instead of all")
    p.add_argument("--reorder", type=int, default=0,
                   help="per-fence budget of systematic unfenced-line "
                        "reorder states (exact survivor subsets) on top "
                        "of the base enumeration")

    p = sub.add_parser(
        "fuzz", help="model-based differential fuzzing (repro.difftest)")
    p.add_argument("--seed", type=int, default=0,
                   help="first seed of the sweep")
    p.add_argument("--ops", type=int, default=300,
                   help="ops per generated sequence")
    p.add_argument("--budget", type=int, default=1,
                   help="number of consecutive seeds to sweep")
    p.add_argument("--fs", action="append",
                   choices=list(SYSTEM_NAMES) + ["all"],
                   help="file system kind to compare (repeatable; "
                        "default all)")
    p.add_argument("--pm-mb", type=int, default=96)
    p.add_argument("--crash", action="store_true",
                   help="also project each clean sequence onto the crashmc "
                        "vocabulary and enumerate its crash states")
    p.add_argument("--max-states", type=int, default=None,
                   help="bound crash states per system (with --crash)")
    p.add_argument("--crash-prune", action="store_true",
                   help="mechanism-aware pruning for --crash sweeps")
    p.add_argument("--crash-reorder", type=int, default=0,
                   help="per-fence unfenced-line reorder budget for "
                        "--crash sweeps")
    p.add_argument("--minimize", action="store_true",
                   help="on divergence, ddmin the sequence and print it")
    p.add_argument("--emit-repro", metavar="PATH",
                   help="on divergence, write a standalone pytest "
                        "reproducer for the minimized sequence to PATH "
                        "(implies --minimize)")

    p = sub.add_parser(
        "bench", help="the wall-clock suite's simulated results, or "
                      "scaling curves")
    p.add_argument("--wallclock", action="store_true",
                   help="print the simulated results of the workloads the "
                        "simulator's fast paths are measured on")
    p.add_argument("--scaling", action="store_true",
                   help="throughput-vs-CPUs scaling curves per system on "
                        "the discrete-event scheduler (simulated time)")
    p.add_argument("--cpus-list", default="1,2,4,8",
                   help="comma-separated CPU counts for --scaling")
    p.add_argument("--systems", default=None,
                   help="comma-separated systems for --scaling "
                        "(default: all)")
    p.add_argument("--clients", type=int, default=8,
                   help="concurrent client tasks for --scaling")
    p.add_argument("--ops", type=int, default=32,
                   help="appends per client for --scaling")
    p.add_argument("--seed", type=int, default=7,
                   help="workload seed for --scaling")
    p.add_argument("--device-profile", default=None, choices=PROFILE_NAMES,
                   help="attach the calibrated device model for --scaling: "
                        "clients share the profile's token bucket on the "
                        "virtual timeline, so curves bend where the device "
                        "saturates (default: fixed-cost device)")
    p.add_argument("--numa-remote", action="store_true",
                   help="NUMA-remote penalties for --scaling (implies "
                        "optane when no profile is named)")

    p = sub.add_parser(
        "profile",
        help="run a workload under span tracing; emit attribution table, "
             "Chrome trace JSON, collapsed stacks")
    p.add_argument("--workload", default="table1",
                   choices=["table1", "iopatterns", "ycsb", "bench"])
    p.add_argument("--system", action="append", choices=SYSTEM_NAMES,
                   help="system(s) to profile (default: the workload's "
                        "standard set)")
    p.add_argument("--total-mb", type=int, default=8,
                   help="table1 append volume (matches repro table1)")
    p.add_argument("--file-mb", type=int, default=8,
                   help="iopatterns file size (matches repro iopatterns)")
    p.add_argument("--pattern", action="append",
                   choices=["seq-read", "rand-read", "seq-write",
                            "rand-write", "append"],
                   help="iopatterns pattern(s) (default: all five)")
    p.add_argument("--ycsb-workload", default="A",
                   choices=["load", "A", "B", "C", "D", "E", "F"])
    p.add_argument("--records", type=int, default=1000)
    p.add_argument("--ops", type=int, default=1500)
    p.add_argument("--trace-fences", action="store_true",
                   help="emit one span per sfence (verbose)")
    p.add_argument("--out-dir", metavar="DIR",
                   help="write trace_*.json and collapsed_*.txt files here")
    p.add_argument("--json", action="store_true",
                   help="machine-readable results on stdout (for CI)")
    p.add_argument("--guard", action="store_true",
                   help="instead of profiling, check that disabled-mode "
                        "instrumentation overhead is within tolerance")
    p.add_argument("--guard-repeats", type=int, default=5)

    def add_serve_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--system", default="splitfs-strict",
                       choices=SYSTEM_NAMES)
        p.add_argument("--app", default="kv", choices=["kv", "aof", "pagedb"],
                       help="request workload: LSM store, append-only file, "
                            "or paged DB (default kv)")
        p.add_argument("--arrival", default="poisson",
                       choices=["poisson", "bursty"])
        p.add_argument("--clients", type=int, default=100,
                       help="simulated clients; offered load = clients x "
                            "--rate-per-client unless --offered is given")
        p.add_argument("--rate-per-client", type=float, default=100.0,
                       help="per-client request rate (req/s, default 100)")
        p.add_argument("--offered", type=float, default=None,
                       help="total offered load in req/s (overrides clients "
                            "x rate)")
        p.add_argument("--requests", type=int, default=2000,
                       help="open-loop requests to generate")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--records", type=int, default=500,
                       help="preloaded keyspace size (Zipfian popularity)")
        p.add_argument("--deadline-us", type=float, default=400.0,
                       help="end-to-end request deadline (us)")
        p.add_argument("--queue-limit", type=int, default=64,
                       help="admission bound on in-flight requests")
        p.add_argument("--max-retries", type=int, default=3,
                       help="client retry budget (exponential backoff + "
                            "seeded jitter)")
        p.add_argument("--cpus", type=int, default=1,
                       help="serve CPUs: the FIFO becomes an M-server queue "
                            "(one server per CPU; default 1)")
        p.add_argument("--device-profile", default=None,
                       choices=PROFILE_NAMES,
                       help="attach the calibrated device model (off by "
                            "default; makes saturation real): flat is the "
                            "token bucket alone, optane/eadr add the "
                            "small-write curve and eADR economics")
        p.add_argument("--numa-remote", action="store_true",
                       help="add NUMA-remote access penalties (implies "
                            "optane when no profile is named)")
        p.add_argument("--pm-mb", type=int, default=192,
                       help="PM device size in MB (shrink it to provoke "
                            "staging-ENOSPC degraded phases)")
        p.add_argument("--window-us", type=float, default=500.0,
                       help="telemetry window width in simulated "
                            "microseconds (default 500)")

    p = sub.add_parser(
        "serve",
        help="open-loop load engine: tail latency + overload robustness")
    add_serve_args(p)
    p.add_argument("--sweep", action="store_true",
                   help="latency-vs-offered-load sweep around the probed "
                        "capacity instead of a single run")
    p.add_argument("--slo", action="store_true",
                   help="attach windowed telemetry + the SLO burn-rate "
                        "engine; append the per-window timeline and alert "
                        "ledger to the report (off-path: default report is "
                        "byte-identical)")

    p = sub.add_parser(
        "monitor",
        help="live telemetry view of an overloaded serve run: SLO "
             "timeline, burn-rate alerts, traced-request exemplars")
    add_serve_args(p)
    p.add_argument("--load-factor", type=float, default=2.0,
                   help="offered load as a multiple of the probed capacity "
                        "(default 2.0 = overloaded); ignored when --offered "
                        "pins the absolute rate")
    p.add_argument("--sample-every", type=int, default=16,
                   help="trace one request in k (deterministic seeded "
                        "hash; default 16)")
    p.add_argument("--trace-spans", action="store_true",
                   help="capture the fs span tree for traced requests "
                        "(binds an Observer; wall-cost only)")
    p.add_argument("--out-dir", metavar="DIR",
                   help="write the per-request Chrome trace JSON here")
    p.add_argument("--guard", action="store_true",
                   help="instead of monitoring, check that telemetry "
                        "window snapshotting stays within the wall-clock "
                        "overhead budget")
    p.add_argument("--guard-repeats", type=int, default=5)

    p = sub.add_parser(
        "ras-report",
        help="RAS layer: checksum overhead, repair ledger, degraded mode")
    p.add_argument("--system", default="splitfs-posix", choices=SYSTEM_NAMES)
    p.add_argument("--seed", type=int, default=11)

    sub.add_parser("crashdemo", help="Table 3 crash semantics, live")
    return parser


_COMMANDS = {
    "systems": cmd_systems,
    "table1": cmd_table1,
    "syscalls": cmd_syscalls,
    "iopatterns": cmd_iopatterns,
    "ycsb": cmd_ycsb,
    "crashmc": cmd_crashmc,
    "fuzz": cmd_fuzz,
    "bench": cmd_bench,
    "profile": cmd_profile,
    "serve": cmd_serve,
    "monitor": cmd_monitor,
    "ras-report": cmd_ras_report,
    "crashdemo": cmd_crashdemo,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
