"""Benchmark harness regenerating every table and figure in the paper."""

from . import harness, report, wallclock
from .harness import (
    Measurement,
    append_4k_workload,
    io_pattern_workload,
    measure,
    redis_workload,
    syscall_latency_workload,
    tpcc_workload,
    utility_workload,
    ycsb_workload,
)

__all__ = [
    "harness",
    "report",
    "wallclock",
    "Measurement",
    "measure",
    "append_4k_workload",
    "io_pattern_workload",
    "syscall_latency_workload",
    "ycsb_workload",
    "redis_workload",
    "tpcc_workload",
    "utility_workload",
]
