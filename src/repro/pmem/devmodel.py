"""First-class device models: contended bandwidth, eADR, and NUMA.

The per-op costs in :mod:`repro.pmem.constants` model a *fixed-cost* device:
every access charges the same uncontended latency regardless of what else is
happening on the machine.  That is the right baseline for the paper's
closed-loop single-client tables, but it is wrong in exactly the three ways
real PM hardware punishes a scaled-up system:

``bandwidth``
    Optane sustains far below its streaming ceiling under a mixed small-write
    stream (~2.3 GB/s per DIMM vs. the 13.9 GB/s device ceiling, van Renen et
    al., *PM I/O Primitives*).  A token bucket (:class:`BandwidthModel`)
    models that queueing for every workload (table1, ycsb, scaling, serve)
    and — under a running scheduler — refills on the scheduler's *virtual*
    timeline, so concurrent tasks' draws serialize through the one device
    the way N CPUs really share one DIMM.  The ``flat`` profile is the bucket
    alone: no small-write curve, no eADR.

``small writes``
    The media writes whole 256-byte XPLines; a sub-line store consumes a full
    line of sustained bandwidth (read-modify-write in the on-DIMM buffer).
    Profiles with ``xpline_bytes`` round every bucket draw up to that
    granularity — the calibrated small-random-write penalty curve.

``eadr``
    With extended ADR the CPU caches join the persistence domain: cache-line
    writebacks (``clwb``) cost nothing because nothing needs writing back,
    but fences still *order* (and still cost ``SFENCE_NS``), and the
    persistence-domain bookkeeping is untouched — a crash loses exactly what
    it lost before.  This is purely a timing change, and it changes the
    logging economics: systems that flush per-op log entries (NOVA, PMFS,
    the journals) get their flush tax refunded, while SplitFS's movnt data
    path (which never flushed) keeps only the fence cost.

``numa``
    A device lives on one NUMA node; accesses from a CPU on another node pay
    remote multipliers on the transfer portion of the charge.  Under a
    scheduler, the accessing node is the current task's CPU modulo the node
    count; without one, the ``numa_remote`` knob pins every access remote
    (the worst-case placement an unpinned process can land in).

Everything here is **opt-in**: a machine without an attached model (the
default everywhere) charges bit-identically to the seed tree — the off-path
golden guards in ``tests/pmem/test_device_model_offpath.py`` and the
committed goldens (``tools/goldens.py --check``) enforce that byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from ..obs.metrics import counter_field
from . import constants as C


@dataclass
class BandwidthModel:
    """Token-bucket shared-bandwidth queueing (the ``bandwidth`` axis).

    The per-op device costs in :mod:`repro.pmem.constants` model
    *uncontended* latency: each store charges the single-stream streaming
    rate regardless of how much traffic preceded it.  Real PM saturates at
    a sustained byte-rate far below its burst ceiling (van Renen et al.),
    and past that point transfers queue *at the device*.

    The bucket holds up to ``burst_bytes`` of credit and refills at
    ``rate_bytes_per_ns`` as simulated time advances.  Each transfer draws
    its byte count (reads weighted by ``read_weight``); when the bucket runs
    dry, :meth:`acquire` returns the queueing delay the caller must charge —
    time until the refill covers the deficit.

    The stall counters are :func:`~repro.obs.metrics.counter_field`\\ s so
    the bucket is a metrics source (``pmem.bw.*``) reset through the
    registry like every other stats block.
    """

    rate_bytes_per_ns: float = C.PM_SUSTAINED_WRITE_BW_BYTES_PER_NS
    burst_bytes: float = float(C.PM_BANDWIDTH_BURST_BYTES)
    read_weight: float = C.PM_BANDWIDTH_READ_WEIGHT
    tokens: float = float(C.PM_BANDWIDTH_BURST_BYTES)
    last_refill_ns: float = 0.0
    stalled_ops: int = counter_field()
    stall_ns: float = counter_field(0.0)
    bytes_acquired: float = counter_field(0.0)

    def acquire(self, nbytes: float, now_ns: float) -> float:
        """Draw ``nbytes`` of write-side credit; return queueing delay (ns).

        The caller is expected to charge the returned delay to its clock, so
        the refill accounting advances ``last_refill_ns`` past the stall.
        """
        if nbytes <= 0:
            return 0.0
        elapsed = now_ns - self.last_refill_ns
        if elapsed > 0:
            self.tokens = min(self.burst_bytes,
                              self.tokens + elapsed * self.rate_bytes_per_ns)
            self.last_refill_ns = now_ns
        self.bytes_acquired += nbytes
        if nbytes <= self.tokens:
            self.tokens -= nbytes
            return 0.0
        deficit = nbytes - self.tokens
        self.tokens = 0.0
        delay = deficit / self.rate_bytes_per_ns
        # The stall consumes exactly the refill accumulated while waiting.
        self.last_refill_ns += delay
        self.stalled_ops += 1
        self.stall_ns += delay
        return delay

    def acquire_read(self, nbytes: float, now_ns: float) -> float:
        """Draw read-side credit (reads cost ``read_weight`` per byte)."""
        return self.acquire(nbytes * self.read_weight, now_ns)

    def clone(self) -> "BandwidthModel":
        """An independent copy at the same bucket state (machine forking)."""
        return replace(self)


#: The bucket fields exported as the ``pmem.bw.*`` metrics source.
BANDWIDTH_METRIC_FIELDS = ("stalled_ops", "stall_ns", "bytes_acquired",
                           "tokens")


@dataclass(frozen=True)
class DeviceProfile:
    """A named, calibrated bundle of device-model parameters.

    ``xpline_bytes == 0`` disables the small-write penalty curve;
    ``eadr`` drops cache-line writeback cost to zero (fences still charge).
    """

    name: str
    rate_bytes_per_ns: float
    burst_bytes: float
    read_weight: float
    eadr: bool = False
    xpline_bytes: int = 0


#: The calibrated profile family surfaced as ``--device-profile``.
PROFILES = {
    # Optane DC under a concurrent mixed stream: sustained-rate token bucket
    # plus the XPLine small-write curve (van Renen et al.).
    "optane": DeviceProfile(
        name="optane",
        rate_bytes_per_ns=C.PM_SUSTAINED_WRITE_BW_BYTES_PER_NS,
        burst_bytes=float(C.PM_BANDWIDTH_BURST_BYTES),
        read_weight=C.PM_BANDWIDTH_READ_WEIGHT,
        eadr=False,
        xpline_bytes=C.PM_XPLINE_BYTES,
    ),
    # Same device, but the platform guarantees eADR: flushes free, fences
    # still order.  Changes SplitFS-vs-NOVA logging economics (see module
    # docstring).
    "eadr": DeviceProfile(
        name="eadr",
        rate_bytes_per_ns=C.PM_SUSTAINED_WRITE_BW_BYTES_PER_NS,
        burst_bytes=float(C.PM_BANDWIDTH_BURST_BYTES),
        read_weight=C.PM_BANDWIDTH_READ_WEIGHT,
        eadr=True,
        xpline_bytes=C.PM_XPLINE_BYTES,
    ),
    # The token bucket alone: Optane's sustained rate, burst and read
    # weight, with no small-write curve and no eADR.
    "flat": DeviceProfile(
        name="flat",
        rate_bytes_per_ns=C.PM_SUSTAINED_WRITE_BW_BYTES_PER_NS,
        burst_bytes=float(C.PM_BANDWIDTH_BURST_BYTES),
        read_weight=C.PM_BANDWIDTH_READ_WEIGHT,
        eadr=False,
        xpline_bytes=0,
    ),
    # DRAM-class bandwidth (the paper's DRAM-emulation baseline): the bucket
    # is effectively unbounded at the offered loads simulated here, and DRAM
    # has no XPLine granularity.  Isolates the bandwidth axis.
    "dram": DeviceProfile(
        name="dram",
        rate_bytes_per_ns=C.DRAM_SUSTAINED_WRITE_BW_BYTES_PER_NS,
        burst_bytes=float(C.DRAM_BANDWIDTH_BURST_BYTES),
        read_weight=C.DRAM_BANDWIDTH_READ_WEIGHT,
        eadr=False,
        xpline_bytes=0,
    ),
}

PROFILE_NAMES = tuple(PROFILES)


@dataclass
class NumaStats:
    """Remote-access counters (metrics source ``pmem.numa``)."""

    remote_loads: int = counter_field()
    remote_stores: int = counter_field()
    remote_extra_ns: float = counter_field(0.0)


def resolve_profile(profile: Union[str, DeviceProfile]) -> DeviceProfile:
    if isinstance(profile, DeviceProfile):
        return profile
    try:
        return PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown device profile {profile!r}; choose from {PROFILE_NAMES}"
        ) from None


class DeviceModel:
    """One device's calibrated behavior model, attached to a machine.

    Bundles the token bucket (shared-bandwidth queueing), the eADR flag,
    the small-write curve, and the NUMA penalty configuration.  Attached
    via :meth:`repro.kernel.machine.Machine.enable_device_model`; consulted
    by :class:`~repro.pmem.device.PersistentMemory` on every store, load,
    and clwb.  ``None`` (no model) is the fixed-cost device.
    """

    __slots__ = ("profile", "bandwidth", "numa_remote", "numa_nodes",
                 "device_node", "remote_read_mult", "remote_write_mult",
                 "numa")

    def __init__(self, profile: Union[str, DeviceProfile] = "optane",
                 numa_remote: bool = False,
                 numa_nodes: int = C.PM_NUMA_NODES,
                 device_node: int = 0,
                 remote_read_mult: float = C.PM_NUMA_REMOTE_READ_MULT,
                 remote_write_mult: float = C.PM_NUMA_REMOTE_WRITE_MULT,
                 bandwidth: Optional[BandwidthModel] = None) -> None:
        self.profile = resolve_profile(profile)
        self.bandwidth = bandwidth if bandwidth is not None else BandwidthModel(
            rate_bytes_per_ns=self.profile.rate_bytes_per_ns,
            burst_bytes=self.profile.burst_bytes,
            read_weight=self.profile.read_weight,
            tokens=self.profile.burst_bytes,
        )
        self.numa_remote = numa_remote
        self.numa_nodes = numa_nodes
        self.device_node = device_node
        self.remote_read_mult = remote_read_mult
        self.remote_write_mult = remote_write_mult
        self.numa = NumaStats()

    # -- derived behavior ----------------------------------------------------

    @property
    def eadr(self) -> bool:
        return self.profile.eadr

    def effective_write_bytes(self, nbytes: int) -> float:
        """The bucket draw for an ``nbytes`` store: the small-write curve.

        Rounds up to whole XPLines when the profile has a media granularity
        (sub-line stores consume a full line of sustained bandwidth); the
        identity otherwise.
        """
        gran = self.profile.xpline_bytes
        if gran and nbytes > 0:
            return float((nbytes + gran - 1) // gran * gran)
        return float(nbytes)

    def node_of_cpu(self, cpu: int) -> int:
        return cpu % self.numa_nodes

    def is_remote(self, sched) -> bool:
        """Is the access happening now on a NUMA-remote CPU?

        Under a running scheduler the current task's CPU decides; serially,
        the ``numa_remote`` knob pins every access remote (worst-case
        placement).  With the knob off entirely, nothing is ever remote.
        """
        if not self.numa_remote:
            return False
        if sched is not None and sched.current is not None:
            return self.node_of_cpu(sched.current.cpu) != self.device_node
        return True

    # -- forking -------------------------------------------------------------

    def clone(self) -> "DeviceModel":
        """An independent copy at the same state (machine forking)."""
        child = DeviceModel(
            profile=self.profile,
            numa_remote=self.numa_remote,
            numa_nodes=self.numa_nodes,
            device_node=self.device_node,
            remote_read_mult=self.remote_read_mult,
            remote_write_mult=self.remote_write_mult,
            bandwidth=self.bandwidth.clone(),
        )
        child.numa = replace(self.numa)
        return child

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DeviceModel({self.profile.name!r}, "
                f"numa_remote={self.numa_remote})")


def window_stall_fraction(window) -> float:
    """Fraction of one telemetry window spent stalled on device bandwidth.

    Reads the window's ``pmem.bw.stall_ns`` counter delta against the
    window width.  Zero when no model is attached — the timeline renderer
    uses that to hide the column.
    """
    stall = window.counters.get("pmem.bw.stall_ns", 0.0)
    width = window.width_ns
    return stall / width if width else 0.0
