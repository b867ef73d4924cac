"""Table 2: PM performance characteristics (device microbenchmark).

Measures the simulated device directly and checks it reproduces the
Izraelevitz et al. numbers the paper quotes: 169 ns sequential / 305 ns
random read latency, 91 ns store+flush+fence, 39.4 GB/s read and (derated
single-stream) write bandwidth.
"""

import sys

from claims import Claims

from repro.bench.report import render_table
from repro.kernel.machine import Machine
from repro.pmem import constants as C


def device_microbench():
    m = Machine(64 * 1024 * 1024)
    pm = m.pm
    out = {}

    # Sequential read latency: single cache-line reads, back to back.
    with m.clock.measure() as acct:
        for i in range(1000):
            pm.load(i * 64, 64)
    out["seq_read_latency"] = acct.total_ns / 1000 - 64 * C.PM_READ_NS_PER_BYTE

    with m.clock.measure() as acct:
        for i in range(1000):
            pm.load((i * 7919 * 64) % (32 << 20), 64, random_access=True)
    out["rand_read_latency"] = acct.total_ns / 1000 - 64 * C.PM_READ_NS_PER_BYTE

    with m.clock.measure() as acct:
        for i in range(1000):
            pm.persist(i * 64, b"x" * 64)
    out["store_flush_fence"] = acct.total_ns / 1000

    with m.clock.measure() as acct:
        pm.load(0, 32 << 20)
    out["read_bw_gbps"] = (32 << 20) / acct.total_ns

    with m.clock.measure() as acct:
        pm.store(0, b"y" * (32 << 20))
    out["write_bw_gbps"] = (32 << 20) / acct.total_ns
    return out


def main() -> int:
    out = device_microbench()
    rows = [
        ["Sequential read latency (ns)", f"{out['seq_read_latency']:.0f}", "169"],
        ["Random read latency (ns)", f"{out['rand_read_latency']:.0f}", "305"],
        ["Store + flush + fence (ns)", f"{out['store_flush_fence']:.0f}", "91"],
        ["Read bandwidth (GB/s)", f"{out['read_bw_gbps']:.1f}", "39.4"],
        ["Write bandwidth, 1 stream (GB/s)",
         f"{out['write_bw_gbps']:.1f}", "6.1 (derated from 13.9)"],
    ]
    print(render_table(
        "Table 2: simulated PM device characteristics",
        ["property", "measured", "paper"], rows,
    ))
    print()

    def error(measured, paper):
        return abs(measured - paper) / paper

    claims = Claims()
    claims.compare("sequential read latency, relative error vs 169 ns",
                   error(out["seq_read_latency"], 169), "<=", 0.05)
    claims.compare("random read latency, relative error vs 305 ns",
                   error(out["rand_read_latency"], 305), "<=", 0.05)
    claims.compare("store + flush + fence, relative error vs 91 ns",
                   error(out["store_flush_fence"], 91), "<=", 0.05)
    claims.compare("read bandwidth, relative error vs 39.4 GB/s",
                   error(out["read_bw_gbps"], 39.4), "<=", 0.05)
    # The paper's Section 1 anchor: a 4 KB write costs 671 ns.
    claims.compare("4 KB write, relative error vs 671 ns",
                   error(4096 * C.PM_WRITE_NS_PER_BYTE, 671), "<=", 0.01)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
