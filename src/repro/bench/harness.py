"""Benchmark harness: builds systems, runs workloads, measures simulated time.

Every experiment in ``benchmarks/`` goes through here.  A measurement
returns a :class:`Measurement` carrying the simulated-time split (data /
metadata-IO / CPU), the derived software overhead (paper Section 5.7
definition: total minus data-device time), and device IO counters — enough
to regenerate every table and figure in the paper's evaluation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.splitfs import SplitFSConfig
from ..factory import make_filesystem
from ..kernel.machine import DEFAULT_PM_SIZE
from ..pmem.device import DeviceStats
from ..pmem.timing import TimeAccount
from ..posix import flags as F
from ..posix.api import FileSystemAPI

#: The device size, under the name the benchmarks import.
DEFAULT_PM = DEFAULT_PM_SIZE
BLOCK = 4096


@dataclass
class Measurement:
    """One measured workload execution on one system."""

    system: str
    workload: str
    operations: int
    account: TimeAccount
    io: DeviceStats
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def total_ns(self) -> float:
        return self.account.total_ns

    @property
    def ns_per_op(self) -> float:
        return self.account.total_ns / max(1, self.operations)

    @property
    def software_overhead_ns_per_op(self) -> float:
        return self.account.software_overhead_ns / max(1, self.operations)

    @property
    def kops_per_sec(self) -> float:
        """Throughput in KOps/s of simulated time."""
        if self.account.total_ns == 0:
            return 0.0
        return self.operations / (self.account.total_ns / 1e9) / 1e3

    @property
    def seconds(self) -> float:
        return self.account.total_ns / 1e9


def measure(
    system: str,
    workload_name: str,
    setup: Callable[[FileSystemAPI], object],
    body: Callable[[FileSystemAPI, object], int],
    splitfs_config: Optional[SplitFSConfig] = None,
    ras: bool = False,
    observer=None,
    device_profile=None,
    numa_remote: bool = False,
) -> Measurement:
    """Run ``setup`` (uncharged to the measurement), then measure ``body``.

    ``body`` returns the number of operations it performed.  ``ras=True``
    runs the workload with the online RAS layer enabled and folds its
    counters into ``extras`` (keys prefixed ``ras_``).  ``observer``
    (a :class:`~repro.obs.Observer`) traces the run; its collected state is
    zeroed (``begin()``) after setup, so spans and attribution cover exactly
    the measured body — attribution totals equal ``account`` by
    construction.
    """
    machine, fs = make_filesystem(system, splitfs_config=splitfs_config,
                                  ras=ras, observer=observer,
                                  device_profile=device_profile,
                                  numa_remote=numa_remote)
    ctx = setup(fs)
    io_before = machine.pm.stats.snapshot()
    if observer is not None:
        observer.begin()
    with machine.clock.measure() as account:
        ops = body(fs, ctx)
    io = machine.pm.stats.delta_since(io_before)
    extras = {
        # Cache lines still volatile when the workload finished: data a
        # crash at this instant would lose (crash-consistency exposure).
        "unpersisted_lines": float(machine.pm.unpersisted_lines),
        "fences": float(io.fences),
        "clwb_lines": float(io.clwb_lines),
    }
    if machine.ras is not None:
        for key, value in machine.ras.stats.as_dict().items():
            extras[f"ras_{key}"] = float(value)
        extras["ras_scrub_background_ns"] = machine.ras.background_account.total_ns
    return Measurement(system, workload_name, ops, account.snapshot(), io,
                       extras=extras)


# ---------------------------------------------------------------------------
# Micro-workloads (Table 1, Figure 3, Figure 4)
# ---------------------------------------------------------------------------

def io_pattern_workload(
    system: str,
    pattern: str,
    file_bytes: int = 8 * 1024 * 1024,
    op_size: int = BLOCK,
    fsync_every: int = 0,
    splitfs_config: Optional[SplitFSConfig] = None,
    seed: int = 5,
    ras: bool = False,
    observer=None,
    device_profile=None,
    numa_remote: bool = False,
) -> Measurement:
    """The Figure 4 micro-benchmarks: one pattern over one file.

    Patterns: ``seq-read``, ``rand-read``, ``seq-write`` (overwrite),
    ``rand-write``, ``append``.  Writes issue ``fsync`` every
    ``fsync_every`` operations, as in the paper's Figure 3 setup.
    """
    nops = file_bytes // op_size
    rng = random.Random(seed)
    payload = bytes(rng.randrange(256) for _ in range(64)) * (op_size // 64)

    def setup(fs: FileSystemAPI):
        fd = fs.open("/bench", F.O_CREAT | F.O_RDWR)
        if pattern != "append":
            # Pre-populate the file (not measured).
            chunk = payload * 64
            written = 0
            while written < file_bytes:
                n = min(len(chunk), file_bytes - written)
                fs.pwrite(fd, chunk[:n], written)
                written += n
            fs.fsync(fd)
        return fd

    offsets = list(range(0, file_bytes, op_size))
    if pattern.startswith("rand"):
        rng.shuffle(offsets)

    def body(fs: FileSystemAPI, fd: int) -> int:
        if pattern.endswith("read"):
            for off in offsets:
                fs.pread(fd, op_size, off)
        elif pattern == "append":
            size = 0
            for i, _ in enumerate(offsets):
                fs.pwrite(fd, payload, size)
                size += op_size
                if fsync_every and (i + 1) % fsync_every == 0:
                    fs.fsync(fd)
            if fsync_every:
                fs.fsync(fd)
        else:  # overwrites
            for i, off in enumerate(offsets):
                fs.pwrite(fd, payload, off)
                if fsync_every and (i + 1) % fsync_every == 0:
                    fs.fsync(fd)
            if fsync_every:
                fs.fsync(fd)
        return nops

    return measure(system, f"{pattern}-{op_size}B", setup, body,
                   splitfs_config=splitfs_config, ras=ras, observer=observer,
                   device_profile=device_profile, numa_remote=numa_remote)


def append_4k_workload(system: str, total_bytes: int = 8 * 1024 * 1024,
                       fsync_every: int = 100, observer=None, seed: int = 5,
                       device_profile=None,
                       numa_remote: bool = False) -> Measurement:
    """Table 1: the 4K-append workload (paper used 128 MB; scaled)."""
    return io_pattern_workload(system, "append", file_bytes=total_bytes,
                               fsync_every=fsync_every, observer=observer,
                               seed=seed, device_profile=device_profile,
                               numa_remote=numa_remote)


# ---------------------------------------------------------------------------
# Table 6: per-system-call latency microbenchmark (Varmail-like)
# ---------------------------------------------------------------------------

def syscall_latency_workload(system: str, iterations: int = 50
                             ) -> Dict[str, float]:
    """The Section 5.4 microbenchmark.

    Create + 4x(append 4K, fsync), close, open, read 16K, close,
    open/close, unlink — measuring the mean latency of each call type.
    Returns {syscall: mean ns}.
    """
    machine, fs = make_filesystem(system)
    lat: Dict[str, List[float]] = {k: [] for k in
                                   ("open", "close", "append", "fsync",
                                    "read", "unlink")}

    def timed(kind: str, fn, *args):
        with machine.clock.measure() as acct:
            out = fn(*args)
        lat[kind].append(acct.total_ns)
        return out

    payload = b"v" * BLOCK
    for i in range(iterations):
        path = f"/mail{i:04d}"
        fd = timed("open", fs.open, path, F.O_CREAT | F.O_RDWR)
        for _ in range(4):
            timed("append", fs.write, fd, payload)
            timed("fsync", fs.fsync, fd)
        timed("close", fs.close, fd)
        fd = timed("open", fs.open, path, F.O_RDWR)
        timed("read", fs.read, fd, 4 * BLOCK)
        timed("close", fs.close, fd)
        fd = timed("open", fs.open, path, F.O_RDWR)
        timed("close", fs.close, fd)
        timed("unlink", fs.unlink, path)
    return {k: sum(v) / len(v) for k, v in lat.items() if v}


# ---------------------------------------------------------------------------
# Application workloads (Figures 5, 6; Table 7)
# ---------------------------------------------------------------------------

def ycsb_workload(
    system: str,
    phase: str,  # "load" or a run workload letter A..F
    record_count: int = 1000,
    operation_count: int = 1500,
    observer=None,
    device_profile=None,
    numa_remote: bool = False,
) -> Measurement:
    """YCSB on the LevelDB model.  Load phases measure the load itself;
    run phases perform an (unmeasured) load first."""
    from ..apps.leveldb import LevelDB
    from ..apps import ycsb

    cfg = ycsb.YCSBConfig(record_count=record_count,
                          operation_count=operation_count)

    def setup(fs: FileSystemAPI):
        db = LevelDB(fs)
        if phase != "load":
            ycsb.load(db, cfg)
        return db

    def body(fs: FileSystemAPI, db) -> int:
        if phase == "load":
            ycsb.load(db, cfg)
            db.sync()
            return cfg.record_count
        ycsb.run(db, phase, cfg)
        db.sync()
        return cfg.operation_count

    name = "ycsb-load" if phase == "load" else f"ycsb-run{phase}"
    return measure(system, name, setup, body, observer=observer,
                   device_profile=device_profile, numa_remote=numa_remote)


def redis_workload(system: str, n_sets: int = 3000,
                   value_size: int = 100) -> Measurement:
    """Paper: SET workload against Redis in AOF mode."""
    from ..apps.redis import RedisAOF

    def setup(fs: FileSystemAPI):
        return RedisAOF(fs, fsync_every_ops=1000)

    def body(fs: FileSystemAPI, server) -> int:
        value = b"v" * value_size
        for i in range(n_sets):
            server.set(b"key:%010d" % i, value)
        server.shutdown()
        return n_sets

    return measure(system, "redis-set", setup, body)


def tpcc_workload(system: str, transactions: int = 120) -> Measurement:
    """TPC-C on the SQLite model in WAL mode."""
    from ..apps.sqlite import SQLiteWAL
    from ..apps.tpcc import TPCC, TPCCConfig

    def setup(fs: FileSystemAPI):
        db = SQLiteWAL(fs)
        bench = TPCC(db, TPCCConfig(transactions=transactions))
        bench.load()
        return bench

    def body(fs: FileSystemAPI, bench) -> int:
        result = bench.run()
        bench.db.close()
        return result.total

    return measure(system, "tpcc", setup, body)


def utility_workload(system: str, which: str, nfiles: int = 60,
                     file_size: int = 8 * 1024) -> Measurement:
    """git / tar / rsync metadata-heavy workloads (Section 5.9)."""
    from ..apps import utilities

    def setup(fs: FileSystemAPI):
        return utilities.make_source_tree(fs, nfiles=nfiles,
                                          file_size=file_size)

    def body(fs: FileSystemAPI, paths) -> int:
        if which == "git":
            stats = utilities.git_add_commit(fs, paths)
        elif which == "tar":
            stats = utilities.tar_create(fs, paths)
        elif which == "rsync":
            stats = utilities.rsync_copy(fs, paths)
        else:
            raise ValueError(which)
        return stats.files_processed

    return measure(system, which, setup, body)
