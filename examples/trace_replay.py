#!/usr/bin/env python3
"""Capture a workload trace once, replay it on every file system.

This is how production traces substitute into the evaluation: record an
application's POSIX calls on any system, then replay the identical call
sequence everywhere and compare simulated costs.  The recording is a
fuzz sequence (``FuzzOp``s), so the differential executor also checks it
on every system against the in-memory POSIX oracle.

Run:  python examples/trace_replay.py
"""

from repro import SYSTEM_NAMES, make_filesystem
from repro.apps.filebench import FilebenchConfig, run_personality
from repro.difftest import Recorder, apply_op, run_differential


def main() -> None:
    # 1. Record: run the Varmail mail-server personality once, capturing
    #    every POSIX call it makes.
    _, source = make_filesystem("ext4dax")
    recorder = Recorder(source)
    run_personality(recorder, "varmail", FilebenchConfig(operations=200))
    ops = recorder.ops
    print(f"captured {len(ops)} operations\n")

    # 2. Replay the identical operation stream on all eight systems.
    print(f"{'system':<16} {'replay time':>12} {'sw overhead':>12}")
    for system in SYSTEM_NAMES:
        machine, fs = make_filesystem(system)
        slots = {}
        with machine.clock.measure() as acct:
            for op in ops:
                apply_op(fs, slots, op)
        print(f"{system:<16} {acct.total_ns / 1e6:9.2f} ms "
              f"{acct.software_overhead_ns / 1e6:9.2f} ms")

    print("\nSame calls, same bytes — the spread is pure file-system")
    print("software overhead, the quantity the paper is about.")

    # 3. Check every system's results, call by call, against the oracle.
    report = run_differential(ops)
    print(f"\ndifferential replay on {len(report.kinds)} systems: "
          f"{len(report.divergences)} divergences")


if __name__ == "__main__":
    main()
