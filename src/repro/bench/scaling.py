"""Throughput-vs-CPUs scaling curves on the discrete-event scheduler.

``repro bench --scaling`` runs a fixed concurrent workload — N client tasks,
each appending to its own file with periodic fsync, cooperating at syscall
boundaries — on 1, 2, 4, ... simulated CPUs per system, and reports how
throughput scales.  The total work is held constant across CPU counts so the
curve isolates the scheduler: speedup comes from virtual-time overlap, and
its limits come from the simulated locks (the jbd2 commit lock serialises
ext4-family fsyncs; NOVA's per-CPU free lists and per-inode logs barely
contend; Strata appends to per-process logs and serialises only on digest).

Everything is seeded and runs on the simulated clock, so a fixed-seed run is
byte-deterministic — ``tools/goldens.py --check`` compares two runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..factory import SYSTEM_NAMES, make_filesystem
from ..pmem.devmodel import model_label
from ..posix import flags as F
from .report import render_table

# Every SplitFS client is its own U-Split instance with its own staging
# pool, so the device must fit 8 pools plus data: at 256 MiB a staging
# fallocate raises OutOfSpaceError (splitfs-posix: 2048 blocks wanted, 510
# free).  The one device larger than ``DEFAULT_PM_SIZE``.
PM_SIZE = 512 * 1024 * 1024
DEFAULT_CPU_COUNTS = (1, 2, 4, 8)
DEFAULT_CLIENTS = 8
DEFAULT_OPS = 32
PAYLOAD_BYTES = 4096
FSYNC_EVERY = 4


@dataclass
class ScalingPoint:
    """One (system, cpus) measurement of the fixed concurrent workload."""

    system: str
    cpus: int
    clients: int
    total_ops: int
    makespan_ns: float  # virtual elapsed time (max per-CPU virtual time)
    work_ns: float  # total charged work across all CPUs
    lock_wait_ns: float
    lock_contended: int
    context_switches: int
    #: Device-model annotation ("" = fixed-cost device, the default —
    #: keeps existing fixed-seed reports byte-identical).
    device: str = ""

    @property
    def kops_per_s(self) -> float:
        return self.total_ops / (self.makespan_ns / 1e9) / 1e3


def _client_task(fs, path: str, ops: int, payload: bytes, fsync_every: int):
    """One client: open, append with periodic fsync + readback, close.

    A generator — every ``yield`` is a syscall boundary where the scheduler
    may run another task.
    """
    fd = fs.open(path, F.O_CREAT | F.O_RDWR)
    yield
    for i in range(ops):
        fs.write(fd, payload)
        yield
        if (i + 1) % fsync_every == 0:
            fs.fsync(fd)
            yield
            fs.pread(fd, len(payload), i * len(payload))
            yield
    fs.fsync(fd)
    yield
    fs.close(fd)


def _make_instance(fs, client: int):
    """The FS handle a client drives: SplitFS gets one U-Split instance per
    client process (paper Section 3.5); kernel FSes are shared directly."""
    if client > 0 and hasattr(fs, "kfs"):
        from ..core import SplitFS

        return SplitFS(fs.kfs, mode=fs.mode, config=fs.config)
    return fs


def run_point(system: str, cpus: int, clients: int = DEFAULT_CLIENTS,
              ops: int = DEFAULT_OPS, seed: int = 7,
              device_profile=None,
              numa_remote: bool = False) -> ScalingPoint:
    """Run the fixed concurrent workload for one (system, cpus) point.

    With a ``device_profile`` attached the clients share the profile's
    token bucket on the scheduler's virtual timeline, so the curve bends
    where the *device* saturates rather than only where the locks do.
    """
    machine, fs = make_filesystem(system, pm_size=PM_SIZE,
                                  device_profile=device_profile,
                                  numa_remote=numa_remote)
    sched = machine.attach_scheduler(cpus)
    payload = bytes((i * 131 + seed) % 256 for i in range(PAYLOAD_BYTES))
    for c in range(clients):
        inst = _make_instance(fs, c)
        sched.spawn(
            _client_task(inst, f"/scale-c{c}", ops, payload, FSYNC_EVERY),
            name=f"client{c}",
        )
    makespan = sched.run()
    return ScalingPoint(
        system=system,
        cpus=cpus,
        clients=clients,
        total_ops=clients * ops,
        makespan_ns=makespan,
        work_ns=sched.stats.busy_ns,
        lock_wait_ns=sched.lock_stats.wait_ns,
        lock_contended=int(sched.lock_stats.contended),
        context_switches=int(sched.stats.context_switches),
        device=model_label(device_profile, numa_remote),
    )


def run_scaling(systems: Optional[Sequence[str]] = None,
                cpu_counts: Sequence[int] = DEFAULT_CPU_COUNTS,
                clients: int = DEFAULT_CLIENTS, ops: int = DEFAULT_OPS,
                seed: int = 7, device_profile=None, numa_remote: bool = False,
                ) -> List[ScalingPoint]:
    """The full sweep: every system at every CPU count, same total work."""
    points = []
    for system in systems or SYSTEM_NAMES:
        for cpus in cpu_counts:
            points.append(run_point(system, cpus, clients=clients, ops=ops,
                                    seed=seed, device_profile=device_profile,
                                    numa_remote=numa_remote))
    return points


def render_scaling_report(points: Iterable[ScalingPoint]) -> str:
    """One row per system, one throughput column per CPU count."""
    by_system: dict = {}
    cpu_counts: List[int] = []
    for p in points:
        by_system.setdefault(p.system, {})[p.cpus] = p
        if p.cpus not in cpu_counts:
            cpu_counts.append(p.cpus)
    cpu_counts.sort()
    headers = (["system"] + [f"{n}cpu kops/s" for n in cpu_counts]
               + ["speedup", "lock wait ms", "ctx@1cpu"])
    rows = []
    for system, pts in by_system.items():
        row: List[object] = [system]
        for n in cpu_counts:
            p = pts.get(n)
            row.append(f"{p.kops_per_s:.1f}" if p is not None else "-")
        lo = pts.get(cpu_counts[0])
        hi = pts.get(cpu_counts[-1])
        if lo is not None and hi is not None and lo.kops_per_s:
            row.append(f"{hi.kops_per_s / lo.kops_per_s:.2f}x")
        else:
            row.append("-")
        row.append(f"{hi.lock_wait_ns / 1e6:.3f}" if hi is not None else "-")
        # Context switches at the *lowest* CPU count: with tasks <= CPUs
        # the high end pins one task per CPU and never switches.
        row.append(str(lo.context_switches) if lo is not None else "-")
        rows.append(row)
    sample = next(iter(by_system.values()))
    any_pt = next(iter(sample.values()))
    title = (f"Scaling: throughput vs CPUs "
             f"({any_pt.clients} clients x {any_pt.total_ops // any_pt.clients}"
             f" ops, 4K appends, fsync every {FSYNC_EVERY})"
             # Only annotate when a device model is on: the default report
             # stays byte-identical to the committed fixed-cost output.
             + (f" [device model {any_pt.device}]" if any_pt.device else ""))
    return render_table(title, headers, rows)
