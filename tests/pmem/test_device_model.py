"""Device-model conformance suite: the calibrated model obeys its physics.

The token bucket is checked *differentially* against an independent
completion-time formulation of the same leaky bucket (virtual finish times
instead of token arithmetic), so an algebra bug in one cannot hide in the
other.  The eADR test pins the invariant that matters: flush ns drop to
zero while the persistence-domain bookkeeping and fence ordering (and the
fence's cost) are untouched.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.machine import Machine
from repro.pmem import constants as C
from repro.pmem.devmodel import (BandwidthModel, DeviceModel, DeviceProfile,
                                 PROFILES, resolve_profile)
from repro.pmem.timing import Category

PM = 32 * 1024 * 1024

# Acquire sequences: (bytes, idle-gap-ns) pairs.  Gaps are appended *after*
# any stall the previous draw charged, mirroring how the device really calls
# the bucket (the clock advances by at least the returned delay).
ACQUIRES = st.lists(
    st.tuples(st.integers(min_value=1, max_value=1 << 20),
              st.floats(min_value=0.0, max_value=1e6,
                        allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=40)
RATES = st.floats(min_value=0.01, max_value=64.0,
                  allow_nan=False, allow_infinity=False)
BURSTS = st.floats(min_value=1.0, max_value=1e7,
                   allow_nan=False, allow_infinity=False)


class _FinishTimeReference:
    """The same leaky bucket, formulated as virtual finish times.

    ``done`` is the instant the device finishes draining every granted byte
    at the sustained rate, offset by the burst credit: a draw at ``now``
    starts at ``max(now - burst/rate, done)`` and the queueing delay is
    whatever part of its finish time lies in the future.  Algebraically
    equivalent to token arithmetic, structurally nothing like it.
    """

    def __init__(self, rate: float, burst: float, tokens: float) -> None:
        self.rate = rate
        self.burst = burst
        self.done = -tokens / rate  # full bucket = a full burst of credit

    def acquire(self, nbytes: float, now: float) -> float:
        start = max(now - self.burst / self.rate, self.done)
        self.done = start + nbytes / self.rate
        return max(0.0, self.done - now)


@settings(deadline=None, max_examples=200)
@given(ops=ACQUIRES, rate=RATES, burst=BURSTS)
def test_token_conservation_matches_completion_time_model(ops, rate, burst):
    """Every charged delay equals the queueing the bucket state implies."""
    bucket = BandwidthModel(rate_bytes_per_ns=rate, burst_bytes=burst,
                            tokens=burst)
    ref = _FinishTimeReference(rate, burst, tokens=burst)
    now = 0.0
    for nbytes, gap in ops:
        delay = bucket.acquire(nbytes, now)
        expected = ref.acquire(nbytes, now)
        assert delay == pytest.approx(expected, rel=1e-9, abs=1e-6)
        now += delay + gap
    # Total stall is conserved too, not just per-op delays.
    assert bucket.stall_ns >= 0.0
    assert bucket.bytes_acquired == pytest.approx(sum(n for n, _ in ops))


@settings(deadline=None, max_examples=150)
@given(ops=ACQUIRES, rate=RATES, burst=BURSTS)
def test_completion_times_monotone_in_arrival_order(ops, rate, burst):
    """Ops issued in arrival order complete in arrival order."""
    bucket = BandwidthModel(rate_bytes_per_ns=rate, burst_bytes=burst,
                            tokens=burst)
    now = 0.0
    last_completion = 0.0
    for nbytes, gap in ops:
        delay = bucket.acquire(nbytes, now)
        completion = now + delay
        assert completion >= last_completion - 1e-6
        last_completion = completion
        now = completion + gap


@settings(deadline=None, max_examples=100)
@given(ops=ACQUIRES, rate=RATES, burst=BURSTS)
def test_clone_state_equality_after_arbitrary_acquires(ops, rate, burst):
    bucket = BandwidthModel(rate_bytes_per_ns=rate, burst_bytes=burst,
                            tokens=burst)
    now = 0.0
    for nbytes, gap in ops:
        now += bucket.acquire(nbytes, now) + gap
    twin = bucket.clone()
    assert dataclasses.asdict(twin) == dataclasses.asdict(bucket)
    # Identical futures from identical state...
    assert twin.acquire(4096, now + 1.0) == bucket.acquire(4096, now + 1.0)
    # ...and independent state thereafter.
    twin.acquire(1 << 22, now + 2.0)
    assert twin.tokens != bucket.tokens or twin.stall_ns != bucket.stall_ns


@settings(deadline=None, max_examples=100)
@given(ops=ACQUIRES, rate=RATES, burst=BURSTS,
       weight=st.floats(min_value=0.05, max_value=1.0))
def test_read_fraction_scales_draws_by_weight(ops, rate, burst, weight):
    """A read of n bytes is exactly a write of weight*n bytes."""
    reads = BandwidthModel(rate_bytes_per_ns=rate, burst_bytes=burst,
                           tokens=burst, read_weight=weight)
    writes = BandwidthModel(rate_bytes_per_ns=rate, burst_bytes=burst,
                            tokens=burst, read_weight=weight)
    now = 0.0
    for nbytes, gap in ops:
        d1 = reads.acquire_read(nbytes, now)
        d2 = writes.acquire(nbytes * weight, now)
        assert d1 == pytest.approx(d2, rel=1e-9, abs=1e-6)
        now += d1 + gap
    assert reads.tokens == pytest.approx(writes.tokens, rel=1e-9, abs=1e-6)


# ---------------------------------------------------------------------------
# eADR: flushes free, fences still order, crash bookkeeping untouched
# ---------------------------------------------------------------------------

def _flush_sequence(machine):
    """Temporal stores + clwb + fence; returns (clwb ns, fence ns, trace)."""
    pm = machine.pm
    trace = []
    pm.store(0, b"a" * 256, nontemporal=False)
    trace.append(("dirty", pm.domain.dirty_line_count))
    t0 = machine.clock.now_ns
    flushed = pm.clwb(0, 256)
    clwb_ns = machine.clock.now_ns - t0
    trace.append(("flushed", flushed, pm.domain.dirty_line_count))
    t1 = machine.clock.now_ns
    pm.sfence()
    fence_ns = machine.clock.now_ns - t1
    trace.append(("fenced", pm.domain.dirty_line_count))
    return clwb_ns, fence_ns, trace


def test_eadr_zeroes_flush_cost_but_preserves_ordering():
    base = Machine(PM, seed=1)
    eadr = Machine(PM, seed=1)
    eadr.enable_device_model(profile="eadr")
    assert eadr.pm.model.eadr

    base_clwb, base_fence, base_trace = _flush_sequence(base)
    eadr_clwb, eadr_fence, eadr_trace = _flush_sequence(eadr)

    # Identical persistence-domain bookkeeping at every step: a crash keeps
    # exactly what it kept before.
    assert base_trace == eadr_trace
    # Flush ns drop to zero...
    lines = 256 // C.CACHELINE_SIZE
    assert base_clwb == pytest.approx(lines * C.CLWB_NS)
    assert eadr_clwb == 0.0
    # ...while the fence still orders and still costs SFENCE_NS.
    assert base_fence == eadr_fence == pytest.approx(C.SFENCE_NS)


def test_eadr_crash_semantics_identical():
    """What survives a crash is byte-identical with and without eADR."""
    payload = b"q" * 4096
    imgs = []
    for profile in (None, "eadr"):
        machine = Machine(PM, seed=2)
        if profile:
            machine.enable_device_model(profile=profile)
        pm = machine.pm
        pm.store(0, payload, nontemporal=False)     # volatile until flushed
        pm.store(8192, payload, nontemporal=True)   # durable at next fence
        pm.clwb(0, 2048)                            # persist only half
        pm.sfence()
        pm.store(16384, payload, nontemporal=False)  # never flushed
        machine.crash()
        imgs.append(pm.peek(0, 20480))
    assert imgs[0] == imgs[1]


# ---------------------------------------------------------------------------
# XPLine small-write curve and NUMA penalties
# ---------------------------------------------------------------------------

def test_xpline_rounds_write_draws_up_to_media_granularity():
    model = DeviceModel(profile="optane")
    gran = C.PM_XPLINE_BYTES
    assert model.effective_write_bytes(1) == gran
    assert model.effective_write_bytes(gran) == gran
    assert model.effective_write_bytes(gran + 1) == 2 * gran
    assert model.effective_write_bytes(4096) == 4096  # already aligned
    assert model.effective_write_bytes(0) == 0.0
    dram = DeviceModel(profile="dram")  # no media granularity
    assert dram.effective_write_bytes(1) == 1.0


def test_small_writes_drain_the_bucket_faster_than_large_ones():
    """64 one-byte stores cost the bucket 64 XPLines; one 64-byte store
    costs one — the calibrated small-random-write penalty."""
    small = Machine(PM, seed=0)
    small.enable_device_model(profile="optane")
    for i in range(64):
        small.pm.store(i * 4096, b"x", nontemporal=True)
    large = Machine(PM, seed=0)
    large.enable_device_model(profile="optane")
    large.pm.store(0, b"x" * 64, nontemporal=True)
    # bytes_acquired counts the draws themselves (tokens also refill with
    # the advancing clock, so they under-count the penalty).
    assert small.pm.model.bandwidth.bytes_acquired == pytest.approx(
        64 * C.PM_XPLINE_BYTES)
    assert large.pm.model.bandwidth.bytes_acquired == pytest.approx(
        C.PM_XPLINE_BYTES)


def test_numa_remote_charges_multiplier_and_counts():
    local = Machine(PM, seed=0)
    local.enable_device_model(profile="optane")
    remote = Machine(PM, seed=0)
    remote.enable_device_model(profile="optane", numa_remote=True)
    payload = b"z" * 4096

    t0 = local.clock.now_ns
    local.pm.store(0, payload, nontemporal=True)
    local_ns = local.clock.now_ns - t0
    t0 = remote.clock.now_ns
    remote.pm.store(0, payload, nontemporal=True)
    remote_ns = remote.clock.now_ns - t0
    base = 4096 * C.PM_WRITE_NS_PER_BYTE
    assert local_ns == pytest.approx(base)
    assert remote_ns == pytest.approx(base * C.PM_NUMA_REMOTE_WRITE_MULT)

    t0 = remote.clock.now_ns
    remote.pm.load(0, 4096)
    read_ns = remote.clock.now_ns - t0
    base_read = C.PM_SEQ_READ_LATENCY_NS + 4096 * C.PM_READ_NS_PER_BYTE
    assert read_ns == pytest.approx(base_read * C.PM_NUMA_REMOTE_READ_MULT)

    stats = remote.pm.model.numa
    assert stats.remote_stores == 1 and stats.remote_loads == 1
    assert stats.remote_extra_ns == pytest.approx(
        base * (C.PM_NUMA_REMOTE_WRITE_MULT - 1)
        + base_read * (C.PM_NUMA_REMOTE_READ_MULT - 1))
    out = remote.metrics.collect()
    assert out["pmem.numa.remote_stores"] == 1.0
    assert out["pmem.bw.bytes_acquired"] > 0.0


def test_numa_node_follows_the_running_tasks_cpu():
    machine = Machine(PM, seed=0)
    model = machine.enable_device_model(profile="optane", numa_remote=True)
    sched = machine.attach_scheduler(2)
    seen = []

    def probe(cpu_parity):
        # Tasks are placed round-robin: task 0 on cpu 0 (node 0, local to
        # the device), task 1 on cpu 1 (node 1, remote).
        seen.append((cpu_parity, model.is_remote(sched)))
        yield

    sched.spawn(probe(0), name="t0")
    sched.spawn(probe(1), name="t1")
    sched.run()
    assert dict(seen) == {0: False, 1: True}
    # Without a running task the knob pins worst-case remote placement.
    assert model.is_remote(None) is True
    model.numa_remote = False
    assert model.is_remote(None) is False


# ---------------------------------------------------------------------------
# Virtual-time refill under the scheduler, profiles, forking
# ---------------------------------------------------------------------------

def test_device_now_uses_virtual_time_under_a_running_scheduler():
    machine = Machine(PM, seed=0)
    machine.enable_device_model(profile="optane")
    sched = machine.attach_scheduler(2)
    assert machine.pm.sched is sched
    observed = []

    def task():
        observed.append((machine.pm._device_now(), sched.vnow()))
        yield

    sched.spawn(task(), name="t")
    sched.run()
    (device_now, vnow), = observed
    assert device_now == vnow
    # Serially (no task current) the device clock is the machine clock.
    assert machine.pm._device_now() == machine.clock.now_ns


def test_profiles_resolve_and_reject_unknown_names():
    assert resolve_profile("optane") is PROFILES["optane"]
    custom = DeviceProfile(name="x", rate_bytes_per_ns=1.0,
                           burst_bytes=10.0, read_weight=0.5)
    assert resolve_profile(custom) is custom
    with pytest.raises(ValueError, match="unknown device profile"):
        resolve_profile("nvdimm-n")
    assert PROFILES["eadr"].eadr and not PROFILES["optane"].eadr
    assert PROFILES["dram"].xpline_bytes == 0
    # flat is the token bucket alone: optane's bucket, no curve, no eADR.
    flat, optane = PROFILES["flat"], PROFILES["optane"]
    assert (flat.rate_bytes_per_ns, flat.burst_bytes, flat.read_weight) == (
        optane.rate_bytes_per_ns, optane.burst_bytes, optane.read_weight)
    assert flat.xpline_bytes == 0 and not flat.eadr


def test_fork_clones_model_state_and_registers_metrics():
    machine = Machine(PM, seed=0)
    model = machine.enable_device_model(profile="optane", numa_remote=True)
    machine.pm.store(0, b"y" * 4096, nontemporal=True)
    child = machine.fork()
    assert child.pm.model is not model
    assert child.pm.model.eadr == model.eadr
    assert child.pm.model.bandwidth is not model.bandwidth
    assert child.pm.model.bandwidth.tokens == model.bandwidth.tokens
    assert child.pm.model.numa.remote_stores == model.numa.remote_stores
    assert child.pm.sched is None
    child.pm.store(4096, b"y" * 4096, nontemporal=True)
    assert child.pm.model.bandwidth.tokens != model.bandwidth.tokens
    assert child.pm.model.numa.remote_stores == model.numa.remote_stores + 1
    out = child.metrics.collect()
    assert "pmem.bw.tokens" in out and "pmem.numa.remote_stores" in out
