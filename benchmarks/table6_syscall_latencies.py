"""Table 6: system-call latencies (Varmail-like microbenchmark, Section 5.4).

Paper numbers (us): see module-level PAPER below.  The reproduction checks
the *orderings* the paper draws its conclusions from: SplitFS data ops are
much faster than ext4-DAX; SplitFS metadata ops (open/close/unlink) are
slower; stronger modes cost slightly more.
"""

import sys

from claims import Claims

from repro.bench import syscall_latency_workload
from repro.bench.report import render_table

SYSTEMS = ["splitfs-strict", "splitfs-sync", "splitfs-posix", "ext4dax"]
CALLS = ["open", "close", "append", "fsync", "read", "unlink"]

PAPER_US = {
    "splitfs-strict": dict(open=2.09, close=0.78, append=3.14, fsync=6.85,
                           read=4.57, unlink=14.60),
    "splitfs-sync": dict(open=2.08, close=0.69, append=3.09, fsync=6.80,
                         read=4.53, unlink=13.56),
    "splitfs-posix": dict(open=1.82, close=0.69, append=2.84, fsync=6.80,
                          read=4.53, unlink=14.33),
    "ext4dax": dict(open=1.54, close=0.34, append=11.05, fsync=28.98,
                    read=5.04, unlink=8.60),
}


def main() -> int:
    results = {name: syscall_latency_workload(name) for name in SYSTEMS}

    rows = []
    for call in CALLS:
        row = [call]
        for name in SYSTEMS:
            row.append(f"{results[name][call] / 1000:.2f}"
                       f" ({PAPER_US[name][call]:.2f})")
        rows.append(row)
    print(render_table(
        "Table 6: system-call latency in us — measured (paper)",
        ["syscall"] + SYSTEMS, rows,
    ))
    print()

    ext4 = results["ext4dax"]
    strict = results["splitfs-strict"]
    posix = results["splitfs-posix"]
    claims = Claims()
    # Data operations: SplitFS much faster than ext4-DAX (writes 3-4x).
    claims.compare("append latency, ext4dax / splitfs-strict",
                   ext4["append"] / strict["append"], ">", 2.5)
    claims.compare("fsync latency, ext4dax / splitfs-strict",
                   ext4["fsync"] / strict["fsync"], ">", 2.0)
    claims.compare("read latency, splitfs-strict / ext4dax",
                   strict["read"] / ext4["read"], "<", 1)
    # Metadata operations: SplitFS slower (bookkeeping on top of ext4).
    claims.compare("open latency, splitfs-strict / ext4dax",
                   strict["open"] / ext4["open"], ">", 1)
    claims.compare("close latency, splitfs-strict / ext4dax",
                   strict["close"] / ext4["close"], ">", 1)
    claims.compare("unlink latency, splitfs-strict / ext4dax",
                   strict["unlink"] / ext4["unlink"], ">", 1)
    # Stronger guarantees cost (weakly) more on the write path.
    claims.compare("append latency, splitfs-strict / splitfs-posix",
                   strict["append"] / posix["append"], ">=", 1)
    return claims.finish()


if __name__ == "__main__":
    sys.exit(main())
