"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``__init__``
(outside every timed region) and runs them in :meth:`repeat`, which may be
called many times in one process.  A repeat returns a :class:`Repeat`:
host seconds spent in set-up and in total, the units of work done, the
simulated per-unit latencies, a digest of everything simulated, and the
device traffic.  Output checks that need the file system again (the
append read-back) run in ``Repeat.verify`` after timing stops.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.ycsb import key_of
from repro.bench.harness import DEFAULT_PM
from repro.crashmc import explore, generate_workload
from repro.crashmc import explorer as crash_explorer
from repro.difftest import executor as diff_executor
from repro.difftest import generate_ops, run_differential
from repro.factory import SYSTEM_NAMES, make_filesystem
from repro.pmem.device import DeviceStats
from repro.posix import flags as F
from repro.serve import ServeConfig, ServeEngine

from perfbench.stats import sim_percentiles

perf = time.perf_counter


@dataclass
class Repeat:
    """One execution of a workload's inputs."""

    setup_s: float
    wall_s: float
    units: int
    failed: int
    digest: str
    #: Device traffic of the measured work (set-up excluded).
    device: DeviceStats
    #: Bytes the workload asked the file systems to write.
    user_bytes: int
    #: Simulated ns per unit; ``samples`` holds one latency per unit unless
    #: the program reports its own quantiles in ``quantiles_ns``.
    sim_ns_per_op: float
    samples: Optional[List[float]] = None
    quantiles_ns: Optional[Tuple[float, int, float]] = None
    extra: Dict[str, float] = field(default_factory=dict)
    #: Post-run output check; returns the number of failed units.
    verify: Optional[Callable[[], int]] = None

    @property
    def body_s(self) -> float:
        return self.wall_s - self.setup_s

    def sim_quantiles(self) -> Tuple[float, int, float]:
        """(p50 ns, tail percentile, tail quantile ns) over the units that
        took simulated time.

        Calls the model rejects before doing any work (a bad descriptor, a
        wrong access mode) and the fuzzer's fault-injection pseudo-ops cost
        0 ns; they are a third of the fuzz ops and have no latency to rank.
        """
        if self.quantiles_ns is None:
            self.quantiles_ns = sim_percentiles(
                [x for x in self.samples if x > 0])
        return self.quantiles_ns


def digest_of(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _add(total: DeviceStats, delta: DeviceStats) -> None:
    for key, value in vars(delta).items():
        setattr(total, key, getattr(total, key) + value)


def _mean_per_op(lat: List[float], systems: int) -> List[float]:
    """Latency of each op averaged over the systems that each ran the same
    op sequence, one system after the other."""
    n = len(lat) // systems
    return [sum(lat[i::n]) / systems for i in range(n)]


class Workload:
    name = ""
    unit = ""
    #: Per-scale input sizes; ``tiny`` keeps the self-tests fast.
    SIZES: Dict[str, Dict[str, int]] = {}

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.size = self.SIZES[scale]

    def repeat(self) -> Repeat:
        raise NotImplementedError


class AppendFsync(Workload):
    """Table-1 style appends with an fsync every 64, ext4dax then SplitFS.

    Append sizes are drawn from the seed, uniform over 3.5-4.5 KiB, so the
    data and the block crossings, and with them the simulated costs, change
    with the seed.
    """

    name = "append-fsync"
    unit = "syscall"
    SYSTEMS = ("ext4dax", "splitfs-strict")
    FSYNC_EVERY = 64
    SIZES = {"full": {"appends": 6144}, "tiny": {"appends": 256}}

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        rng = random.Random(seed)
        sizes = [rng.randint(3584, 4608) for _ in range(self.size["appends"])]
        self.expected = rng.randbytes(sum(sizes))
        self.chunks, pos = [], 0
        for size in sizes:
            self.chunks.append(self.expected[pos:pos + size])
            pos += size

    def _run_system(self, system: str, lat: List[float]):
        t0 = perf()
        machine, fs = make_filesystem(system, pm_size=DEFAULT_PM)
        fd = fs.open("/log", F.O_CREAT | F.O_RDWR)
        t1 = perf()
        clock = machine.clock
        before = machine.pm.stats.snapshot()
        every = self.FSYNC_EVERY
        for i, chunk in enumerate(self.chunks, 1):
            t = clock.now_ns
            fs.write(fd, chunk)
            lat.append(clock.now_ns - t)
            if i % every == 0:
                t = clock.now_ns
                fs.fsync(fd)
                lat.append(clock.now_ns - t)
        if len(self.chunks) % every:
            t = clock.now_ns
            fs.fsync(fd)
            lat.append(clock.now_ns - t)
        t2 = perf()
        return fs, fd, t1 - t0, t2 - t0, machine.pm.stats.delta_since(before)

    def repeat(self) -> Repeat:
        lat: List[float] = []
        opened = []
        setup = wall = 0.0
        device = DeviceStats()
        for system in self.SYSTEMS:
            fs, fd, s, w, delta = self._run_system(system, lat)
            setup += s
            wall += w
            _add(device, delta)
            opened.append((fs, fd))
        expected, chunks = self.expected, self.chunks

        def verify() -> int:
            failed = 0
            for fs, fd in opened:
                got = fs.pread(fd, len(expected) + 1, 0)
                if got == expected:
                    continue
                pos = 0
                for chunk in chunks:
                    if got[pos:pos + len(chunk)] != chunk:
                        failed += 1
                    pos += len(chunk)
            opened.clear()
            return failed

        return Repeat(
            setup_s=setup, wall_s=wall, units=len(lat), failed=0,
            digest=digest_of(lat, vars(device)), device=device,
            user_bytes=len(expected) * len(self.SYSTEMS),
            sim_ns_per_op=statistics.fmean(lat),
            samples=_mean_per_op(lat, len(self.SYSTEMS)), verify=verify)


class _TimedServeEngine(ServeEngine):
    """Serve engine whose machine build (format + preload) is timed as
    set-up and whose device traffic after the build is recorded."""

    def __init__(self, config: ServeConfig) -> None:
        super().__init__(config)
        self.build_s = 0.0
        self.machine = None
        self.device_before = None
        self.put_bytes = 0

    def _build(self):
        t0 = perf()
        machine, workload, ctx = super()._build()
        self.build_s += perf() - t0
        self.machine = machine
        self.device_before = machine.pm.stats.snapshot()
        execute = workload.execute
        value_len = len(workload.value)

        def counted(ctx, req):
            if req.kind == "put":
                self.put_bytes += len(key_of(req.key)) + value_len
            return execute(ctx, req)

        workload.execute = counted
        return machine, workload, ctx


class ServeKV(Workload):
    """Open-loop Poisson ``repro serve`` of the LevelDB model on SplitFS at
    0.8x the probed capacity, two CPUs, SLO telemetry on."""

    name = "serve-kv"
    unit = "request"
    LOAD_FACTOR = 0.8
    SIZES = {"full": {"records": 4000, "requests": 40000},
             "tiny": {"records": 600, "requests": 300}}

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        self.config = ServeConfig(
            system="splitfs-strict", app="kv", arrival="poisson", cpus=2,
            records=self.size["records"], requests=self.size["requests"],
            read_fraction=0.7, seed=random.Random(seed).getrandbits(31),
            slo=True, track_outcomes=True)

    def repeat(self) -> Repeat:
        t0 = perf()
        probe = _TimedServeEngine(self.config)
        capacity = probe.estimate_capacity()
        t1 = perf()
        engine = _TimedServeEngine(dataclasses.replace(
            self.config, offered_rate=capacity * self.LOAD_FACTOR))
        result = engine.run()
        t2 = perf()
        c = result.counters
        outcomes = result.outcomes or {}
        # Every request must end in exactly one terminal outcome, and none
        # may fail outright.
        missing = sum(1 for rid in range(c.generated) if rid not in outcomes)
        ledger_gap = abs(c.generated - (c.completed + c.timeouts_queue
                                        + c.shed + c.failed))
        lat = result.latency
        return Repeat(
            setup_s=(t1 - t0) + engine.build_s, wall_s=t2 - t0,
            units=c.generated, failed=c.failed + missing + ledger_gap,
            digest=digest_of(capacity, vars(c), lat, result.duration_ns,
                             result.wait_ns_mean, result.service_ns_mean,
                             sorted(outcomes.items()),
                             result.slo.ledger if result.slo else None),
            device=engine.machine.pm.stats.delta_since(engine.device_before),
            user_bytes=engine.put_bytes,
            sim_ns_per_op=lat["mean"],
            # The engine's own histogram quantiles, as ``repro serve``
            # reports them.
            quantiles_ns=(lat["p50"], 99, lat["p99"]),
            extra={"sim_wait_ns_mean": result.wait_ns_mean,
                   "sim_service_ns_mean": result.service_ns_mean})


class FuzzDiff(Workload):
    """``run_differential`` on all eight systems over one fixed
    ``generate_ops`` sequence whose write payloads the seed trims.

    Single fuzz sequences differ by a third or more in mean simulated cost,
    and a few heavy ops set their tail, so a sequence drawn from the seed
    would spread the simulated metrics far beyond any useful bound.  The
    sequence is therefore fixed, and the seed trims every write and pwrite
    payload by 0-7 bytes: each seed leaves other file sizes and write
    boundaries, while the simulated costs stay comparable.

    The sequence is long rather than several short ones: each new 96 MiB
    machine evicts the host caches, and a short body after it runs cold,
    so its host time follows the memory traffic of other tenants more
    than the simulator's own work.
    """

    name = "fuzz-diff"
    unit = "op-system"
    OPS_SEED = 0
    SIZES = {"full": {"ops": 2400}, "tiny": {"ops": 20}}

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        rng = random.Random(seed)
        self.ops = []
        for op in generate_ops(self.OPS_SEED, self.size["ops"]):
            if op.call in ("write", "pwrite") and len(op.data) > 1:
                trim = rng.randrange(min(8, len(op.data)))
                op = dataclasses.replace(
                    op, data=op.data[:len(op.data) - trim])
            self.ops.append(op)

    def repeat(self) -> Repeat:
        original = diff_executor.apply_op
        lat: List[float] = []
        current = {"fs": None, "clock": None}
        setup = 0.0
        opened: List[tuple] = []

        def timed_apply(fs, slots, op, faults=None):
            if fs is not current["fs"]:  # the oracle model
                return original(fs, slots, op, faults=faults)
            clock = current["clock"]
            t = clock.now_ns
            outcome = original(fs, slots, op, faults=faults)
            lat.append(clock.now_ns - t)
            return outcome

        def factory(kind: str, pm_size: int):
            nonlocal setup
            t0 = perf()
            # Free the previous system's machine first: when the collector
            # would get to it otherwise depends on every allocation before,
            # which makes peak memory and the body time jump by a whole
            # device between inputs.
            gc.collect()
            machine, fs = make_filesystem(kind, pm_size=pm_size)
            setup += perf() - t0
            current["fs"], current["clock"] = fs, machine.clock
            opened.append((machine.pm.stats, machine.pm.stats.snapshot()))
            return machine, fs

        t0 = perf()
        diff_executor.apply_op = timed_apply
        try:
            report = run_differential(self.ops, seed=self.OPS_SEED,
                                      fs_factory=factory)
        finally:
            diff_executor.apply_op = original
        wall = perf() - t0
        device = DeviceStats()
        for stats, before in opened:
            _add(device, stats.delta_since(before))
        kinds = len(SYSTEM_NAMES)
        user = sum(len(op.data) for op in self.ops
                   if op.call in ("write", "pwrite", "writev"))
        return Repeat(
            setup_s=setup, wall_s=wall, units=len(lat),
            # Each divergence is one failed (op, system) pair.
            failed=len(report.divergences),
            digest=digest_of(report.format(), lat, vars(device)),
            device=device, user_bytes=user * kinds,
            sim_ns_per_op=statistics.fmean(lat),
            samples=_mean_per_op(lat, kinds))


class CrashSweep(Workload):
    """Pruned fork-engine crash exploration of a fixed op sequence on
    ``splitfs-strict`` with two intra-epoch states drawn from the seed.

    The op sequence is fixed because the host cost of a sweep follows its
    ops (file sizes, fence count); the seed picks which intra-epoch crash
    points are checked and how their unfenced lines survive or tear.
    """

    name = "crash-sweep"
    unit = "state"
    KIND = "splitfs-strict"
    INTRA = 2
    OPS_SEED = 0
    SIZES = {"full": {"ops": 60}, "tiny": {"ops": 10}}

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        self.explore_seed = random.Random(seed).getrandbits(31)
        self.ops = generate_workload(self.OPS_SEED, self.size["ops"])

    def repeat(self) -> Repeat:
        fresh, remount = crash_explorer.fresh, crash_explorer.remount
        setup = 0.0
        lat: List[float] = []
        device = DeviceStats()
        opened: List[tuple] = []

        def timed_fresh(kind, pm_size, **kwargs):
            nonlocal setup
            t0 = perf()
            machine, fs = fresh(kind, pm_size, **kwargs)
            setup += perf() - t0
            opened.append((machine.pm.stats, machine.pm.stats.snapshot()))
            return machine, fs

        def timed_remount(machine, kind):
            t = machine.clock.now_ns
            before = machine.pm.stats.snapshot()
            fs = remount(machine, kind)
            lat.append(machine.clock.now_ns - t)
            _add(device, machine.pm.stats.delta_since(before))
            return fs

        t0 = perf()
        crash_explorer.fresh = timed_fresh
        crash_explorer.remount = timed_remount
        try:
            report = explore(self.KIND, ops=self.ops, seed=self.explore_seed,
                             intra=self.INTRA, prune=True)
        finally:
            crash_explorer.fresh = fresh
            crash_explorer.remount = remount
        wall = perf() - t0
        for stats, before in opened:
            _add(device, stats.delta_since(before))
        user = sum(op.size for op in self.ops if op.kind != "fsync")
        planned = report.candidate_fence_states + self.INTRA
        return Repeat(
            setup_s=setup, wall_s=wall, units=report.states_explored,
            failed=len(report.violations) + report.skipped_triggers,
            digest=digest_of(report.format(), lat, vars(device)),
            # The workload runs twice: the recording pass and the harvest.
            device=device, user_bytes=2 * user,
            sim_ns_per_op=statistics.fmean(lat), samples=lat,
            extra={"keep_ratio": report.states_explored / planned})


WORKLOADS = {w.name: w for w in (AppendFsync, ServeKV, FuzzDiff, CrashSweep)}
