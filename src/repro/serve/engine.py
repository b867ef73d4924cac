"""The open-loop serve engine: a single-server queue on the simulated clock.

Mechanics
---------
Arrivals are generated open-loop (their times never depend on completions,
unlike the closed-loop bench harness) and pushed through one FIFO server —
the file-system stack is synchronous, so service happens inline and the
machine clock *is* the serve timeline: the engine charges idle time to the
clock whenever the queue empties, so time-based machinery (SplitFS
re-promotion hysteresis, RAS scrub intervals, the token-bucket refill) sees
real inter-arrival gaps rather than back-to-back execution.

Overload robustness
-------------------
* **Admission control** — at most ``queue_limit`` requests in flight
  (queued + in service); arrivals beyond that are rejected (EAGAIN
  semantics) instead of growing the queue without bound.
* **Backpressure** — when the device-saturation signal (token-bucket stall
  fraction, EWMA-smoothed) exceeds a threshold, the effective admission
  limit shrinks, shedding load *before* queueing delay destroys every
  deadline.
* **Deadlines** — each request carries ``arrival + deadline`` end-to-end;
  requests whose deadline passes while queued are discarded without being
  serviced (no dead work), and late completions are counted but excluded
  from goodput.
* **Retry/backoff** — rejected attempts and retryable errnos
  (EAGAIN, staging ENOSPC) re-arrive after exponential backoff with
  seeded jitter from an engine-owned RNG (never the ``random`` module's
  global state), capped at ``max_retries``; a request is *shed* — counted
  exactly once — only when its retry budget is exhausted.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..factory import SYSTEM_NAMES, make_filesystem
from ..kernel.machine import Machine
from ..obs.metrics import counter_field
from ..obs.telemetry import Objective, SLOEngine, Telemetry
from ..posix.errors import FSError
from .arrival import bursty_arrivals, poisson_arrivals
from .reqtrace import RequestTracer
from .workload import Request, make_workload

DEFAULT_PM = 192 * 1024 * 1024

#: Errnos the client treats as transient (retry with backoff).
RETRYABLE_ERRNOS = ("EAGAIN", "ENOSPC")

#: Bytes per value the workloads write.
VALUE_SIZE = 256
#: EWMA device-stall fraction at which backpressure trips.
BACKPRESSURE_THRESHOLD = 0.5
#: Divisor of the admission limit while backpressure is tripped.
BACKPRESSURE_FACTOR = 4
#: Telemetry windows retained (overflow counts ``dropped``).
TELEMETRY_CAPACITY = 4096


@dataclass
class ServeConfig:
    """One serve run: system, workload, offered load, and robustness knobs."""

    system: str = "splitfs-strict"
    app: str = "kv"  # kv (LSM) | aof | pagedb
    arrival: str = "poisson"  # poisson | bursty
    clients: int = 100
    #: Per-client request rate (req/s); offered load = clients * this,
    #: unless ``offered_rate`` overrides the product directly.
    rate_per_client: float = 100.0
    offered_rate: Optional[float] = None  # total req/s
    requests: int = 2000
    seed: int = 7
    records: int = 500
    read_fraction: Optional[float] = None  # None = workload default
    pm_size: int = DEFAULT_PM
    # Robustness stack:
    deadline_us: float = 400.0
    queue_limit: int = 64
    max_retries: int = 3
    backoff_base_us: float = 50.0
    backoff_cap_us: float = 800.0
    #: Number of serve CPUs: the FIFO becomes an M-server queue (one server
    #: per CPU) so capacity scales with cores.  1 (the default) is a
    #: single-server FIFO.
    cpus: int = 1
    #: Attach the calibrated device model: a profile name from
    #: :data:`repro.pmem.devmodel.PROFILES` (``flat`` for the token bucket
    #: alone, ``optane``/``eadr``/``dram``) or a ``DeviceProfile`` instance.
    #: ``None`` (default) keeps the fixed-seed default reports
    #: bit-identical.
    device_profile: Optional[object] = None
    #: Add NUMA-remote access penalties (implies the ``optane`` profile
    #: when ``device_profile`` is unset).
    numa_remote: bool = False
    #: Record a per-request outcome map (tests; costs memory).
    track_outcomes: bool = False
    # Live telemetry stack (all opt-in; at the defaults the event loop
    # takes no telemetry branch and fixed-seed reports stay bit-identical):
    #: Attach windowed telemetry + the SLO burn-rate engine.
    slo: bool = False
    #: Telemetry window width in simulated microseconds.
    telemetry_window_us: float = 500.0
    #: Trace one request in k through its lifecycle (0 = tracing off).
    trace_sample_every: int = 0
    #: Capture the fs span tree for traced requests (binds an Observer).
    trace_spans: bool = False

    @property
    def offered_req_per_s(self) -> float:
        return (self.offered_rate if self.offered_rate is not None
                else self.clients * self.rate_per_client)


@dataclass
class ServeCounters:
    """Every request reaches exactly one terminal outcome:
    ``generated == completed + timeouts_queue + shed + failed``."""

    generated: int = counter_field()
    attempts: int = counter_field()
    admitted: int = counter_field()
    rejections: int = counter_field()  # attempt-level queue-full events
    backpressure_rejections: int = counter_field()
    retries: int = counter_field()
    completed: int = counter_field()  # serviced to completion (incl. late)
    deadline_met: int = counter_field()
    timeouts_queue: int = counter_field()  # deadline passed while queued
    timeouts_late: int = counter_field()  # serviced but past deadline
    shed: int = counter_field()  # dropped after retry-budget exhaustion
    failed: int = counter_field()  # non-retryable errors (terminal)
    retryable_errors: int = counter_field()

    @property
    def timeouts(self) -> int:
        return self.timeouts_queue + self.timeouts_late


@dataclass
class ServeResult:
    """Deterministic summary of one serve run (no wall-clock anywhere)."""

    config: ServeConfig
    counters: ServeCounters
    duration_ns: float
    latency: Dict[str, float]  # p50/p99/p999/max/mean, ns
    wait_ns_mean: float
    service_ns_mean: float
    goodput_req_per_s: float
    offered_req_per_s: float
    degrade: Dict[str, float] = field(default_factory=dict)
    bandwidth: Dict[str, float] = field(default_factory=dict)
    outcomes: Optional[Dict[int, str]] = None
    # Live-telemetry handles (populated when the matching knob is on):
    telemetry: Optional[Telemetry] = None
    slo: Optional[SLOEngine] = None
    tracer: Optional[RequestTracer] = None


def default_serve_objectives(deadline_ns: float) -> Tuple[Objective, ...]:
    """The stock serve SLOs, parameterized by the run's deadline.

    * ``latency-p99`` — p99 ≤ deadline, expressed as its equivalent error
      budget: at most 1% of completions may exceed the deadline.
    * ``goodput`` — at least 90% of arrivals must complete in deadline
      (``bad = arrivals − deadline_met``), the goodput-floor objective.
    * ``errors`` — at most 5% of attempts may end shed or failed.
    """
    return (
        Objective("latency-p99", budget=0.01,
                  hist="serve.request.latency_ns", threshold_ns=deadline_ns),
        Objective("goodput", budget=0.10,
                  total=("serve.window.arrivals",),
                  good=("serve.engine.deadline_met",)),
        Objective("errors", budget=0.05,
                  total=("serve.engine.attempts",),
                  bad=("serve.engine.shed", "serve.engine.failed")),
    )


class ServeEngine:
    """Runs one :class:`ServeConfig` to a :class:`ServeResult`."""

    def __init__(self, config: ServeConfig) -> None:
        if config.system not in SYSTEM_NAMES:
            raise ValueError(f"unknown system {config.system!r}")
        if config.arrival not in ("poisson", "bursty"):
            raise ValueError(f"unknown arrival process {config.arrival!r}")
        if config.cpus < 1:
            raise ValueError("need at least one serve CPU")
        self.cfg = config
        seed = config.seed
        # Independent seeded streams; the jitter RNG is engine-owned so
        # backoff is deterministic per (seed, attempt order).
        self.arrival_rng = random.Random((seed << 4) ^ 0xA221)
        self.jitter_rng = random.Random((seed << 4) ^ 0x5E12E)
        self.workload_rng = random.Random((seed << 4) ^ 0x77B1)

    # -- pieces ---------------------------------------------------------------

    def _build(self) -> Tuple[Machine, object, object]:
        cfg = self.cfg
        machine, fs = make_filesystem(cfg.system, pm_size=cfg.pm_size,
                                      seed=cfg.seed,
                                      device_profile=cfg.device_profile,
                                      numa_remote=cfg.numa_remote)
        workload = make_workload(cfg.app, self.workload_rng,
                                 records=cfg.records,
                                 value_size=VALUE_SIZE,
                                 read_fraction=cfg.read_fraction)
        ctx = workload.setup(fs)
        return machine, workload, ctx

    def _arrival_stream(self, rate_per_ns: float):
        if self.cfg.arrival == "poisson":
            return poisson_arrivals(self.arrival_rng, rate_per_ns)
        return bursty_arrivals(self.arrival_rng, rate_per_ns)

    def _backoff_ns(self, attempt: int) -> float:
        """Exponential backoff with seeded jitter, capped."""
        base = self.cfg.backoff_base_us * 1e3 * (2.0 ** attempt)
        capped = min(base, self.cfg.backoff_cap_us * 1e3)
        return capped * (0.5 + self.jitter_rng.random())

    def estimate_capacity(self, probe_ops: int = 48) -> float:
        """Closed-loop service-rate probe (req/s) on a throwaway machine."""
        machine, workload, ctx = self._build()
        with machine.clock.measure() as acct:
            for _ in range(probe_ops):
                workload.execute(ctx, workload.next_request())
        mean_ns = acct.total_ns / probe_ops
        per_server = 1e9 / mean_ns if mean_ns else float("inf")
        # M servers drain M times faster (service times are CPU-bound here).
        return per_server * self.cfg.cpus

    # -- the event loop -------------------------------------------------------

    def run(self) -> ServeResult:
        cfg = self.cfg
        machine, workload, ctx = self._build()
        clock = machine.clock
        model = machine.pm.model
        bw = model.bandwidth if model is not None else None
        counters = ServeCounters()
        machine.metrics.register_source("serve.engine", counters)
        latency_hist = machine.metrics.histogram("serve.request.latency_ns")
        wait_hist = machine.metrics.histogram("serve.request.wait_ns")
        service_hist = machine.metrics.histogram("serve.request.service_ns")

        # Live telemetry (opt-in).  The tracer/telemetry never touch the
        # clock, so enabling them changes no simulated timestamp; at the
        # defaults (slo=False, trace_sample_every=0) the loop below takes
        # none of these branches at all.
        tracer: Optional[RequestTracer] = None
        if cfg.trace_sample_every:
            tracer = RequestTracer(cfg.seed, cfg.trace_sample_every,
                                   capture_spans=cfg.trace_spans)
            if cfg.trace_spans:
                from ..obs.observer import Observer
                Observer().bind(clock)
        span_obs = clock.obs if (tracer is not None and cfg.trace_spans
                                 and clock.obs.enabled) else None
        telem: Optional[Telemetry] = None
        slo_engine: Optional[SLOEngine] = None
        arrivals_ctr = None
        queue_gauge = pressure_gauge = None

        rate_per_ns = cfg.offered_req_per_s / 1e9
        deadline_ns = cfg.deadline_us * 1e3
        stream = self._arrival_stream(rate_per_ns)

        # Draw the whole open-loop request stream up front: times and op
        # descriptors depend only on the seeds, never on scheduling.
        events: List[Tuple[float, int, int, int]] = []  # (t, seq, id, attempt)
        requests: List[Request] = []
        arrival0: List[float] = []
        for rid in range(cfg.requests):
            t = next(stream)
            requests.append(workload.next_request())
            arrival0.append(t)
            events.append((t, rid, rid, 0))
        counters.generated = cfg.requests
        heapq.heapify(events)
        next_seq = cfg.requests

        outcomes: Optional[Dict[int, str]] = {} if cfg.track_outcomes else None
        origin = clock.now_ns
        # Token-bucket counters at origin: setup (preload) traffic must not
        # leak into the reported device-saturation numbers.
        bw0_stall = bw.stall_ns if bw is not None else 0.0
        bw0_ops = bw.stalled_ops if bw is not None else 0
        bw0_bytes = bw.bytes_acquired if bw is not None else 0.0
        if cfg.slo:
            telem = Telemetry(machine.metrics,
                              window_ns=int(cfg.telemetry_window_us * 1e3),
                              capacity=TELEMETRY_CAPACITY)
            machine.telemetry = telem
            arrivals_ctr = machine.metrics.counter("serve.window.arrivals")
            queue_gauge = machine.metrics.gauge("serve.queue.depth")
            pressure_gauge = machine.metrics.gauge("serve.backpressure.ewma")
            slo_engine = SLOEngine(
                default_serve_objectives(deadline_ns)).attach(telem)
            # Baseline after setup: preload traffic and the up-front
            # ``generated`` total stay out of every window's deltas.
            # Windows live on the engine's virtual timeline (origin = 0).
            telem.begin(0)
        # In-flight completion times (admission control).  A min-heap: with
        # M servers completions are not FIFO-monotone, so the heap drains
        # whichever completes first.
        inflight: List[float] = []
        # Per-server virtual free times (the M-server queue): a request
        # starts on the earliest-free server.
        servers: List[float] = [0.0] * cfg.cpus
        pressure = 0.0
        end_time = 0.0

        def terminal(rid: int, outcome: str) -> None:
            if outcomes is not None:
                assert rid not in outcomes, (rid, outcome, outcomes[rid])
                outcomes[rid] = outcome

        while events:
            t, seq, rid, attempt = heapq.heappop(events)
            counters.attempts += 1
            if telem is not None:
                # Close windows ending at or before this dispatch instant:
                # everything this event records lands in t's window.
                telem.advance(int(t))
                if attempt == 0:
                    arrivals_ctr.inc()
            if tracer is not None:
                tracer.on_attempt(rid, t, attempt)
            while inflight and inflight[0] <= t:
                heapq.heappop(inflight)
            if telem is not None:
                queue_gauge.set(float(len(inflight)))
                pressure_gauge.set(pressure)

            # Admission control, clamped under device backpressure.
            limit = cfg.queue_limit
            clamped = bw is not None and pressure >= BACKPRESSURE_THRESHOLD
            if clamped:
                limit = max(1, cfg.queue_limit // BACKPRESSURE_FACTOR)
            if len(inflight) >= limit:
                counters.rejections += 1
                if clamped:
                    counters.backpressure_rejections += 1
                if tracer is not None:
                    tracer.on_rejected(rid, t, attempt, clamped)
                if attempt < cfg.max_retries:
                    counters.retries += 1
                    retry_t = t + self._backoff_ns(attempt)
                    heapq.heappush(events, (retry_t, next_seq, rid, attempt + 1))
                    next_seq += 1
                    if tracer is not None:
                        tracer.on_backoff(rid, t, retry_t, attempt)
                else:
                    counters.shed += 1
                    terminal(rid, "shed")
                    if tracer is not None:
                        tracer.on_outcome(rid, t, "shed")
                continue

            counters.admitted += 1
            start = max(t, servers[0])
            deadline = arrival0[rid] + deadline_ns
            if start >= deadline:
                # Client gave up while we were queued: discard, no dead work.
                counters.timeouts_queue += 1
                terminal(rid, "timeout")
                if tracer is not None:
                    tracer.on_queue_timeout(rid, t, start, attempt)
                    tracer.on_outcome(rid, start, "timeout")
                heapq.heappush(inflight, start)
                heapq.heapreplace(servers, start)
                end_time = max(end_time, start)
                continue

            # Service inline; the machine clock is the serve timeline.
            idle = origin + start - clock.now_ns
            if idle > 0:
                clock.charge_cpu(idle)
            stall_before = bw.stall_ns if bw is not None else 0.0
            ev0 = (len(span_obs.events)
                   if span_obs is not None and rid in tracer.traces else -1)
            err: Optional[FSError] = None
            with clock.measure() as acct:
                try:
                    workload.execute(ctx, requests[rid])
                except FSError as exc:
                    err = exc
            service = acct.total_ns
            served_spans = span_obs.events[ev0:] if ev0 >= 0 else ()
            # With M servers the machine clock is aggregate CPU work (other
            # servers' service charged since origin), so the completion
            # instant lives on the virtual timeline.
            end = start + service
            heapq.heappush(inflight, end)
            heapq.heapreplace(servers, end)
            end_time = max(end_time, end)
            if bw is not None and service > 0:
                frac = (bw.stall_ns - stall_before) / service
                pressure = 0.8 * pressure + 0.2 * frac

            if tracer is not None:
                tracer.on_service(rid, t, start, end, attempt,
                                  err_name=(err.errno_name if err is not None
                                            else ""),
                                  spans=served_spans)

            if err is not None:
                if err.errno_name in RETRYABLE_ERRNOS:
                    counters.retryable_errors += 1
                    if attempt < cfg.max_retries:
                        counters.retries += 1
                        retry_t = end + self._backoff_ns(attempt)
                        heapq.heappush(events,
                                       (retry_t, next_seq, rid, attempt + 1))
                        next_seq += 1
                        if tracer is not None:
                            tracer.on_backoff(rid, end, retry_t, attempt)
                    else:
                        counters.shed += 1
                        terminal(rid, "shed")
                        if tracer is not None:
                            tracer.on_outcome(rid, end, "shed")
                else:
                    counters.failed += 1
                    terminal(rid, "failed")
                    if tracer is not None:
                        tracer.on_outcome(rid, end, "failed")
                continue

            counters.completed += 1
            terminal(rid, "completed")
            if tracer is not None:
                tracer.on_outcome(rid, end, "completed")
            latency_hist.record(end - arrival0[rid])
            wait_hist.record(start - t)
            service_hist.record(service)
            if end <= deadline:
                counters.deadline_met += 1
            else:
                counters.timeouts_late += 1

        # The run spans the full arrival window even if the tail was shed.
        duration_ns = max(end_time, arrival0[-1] if arrival0 else 0.0, 1.0)
        if telem is not None:
            # +1: the trailing partial window must cover the final instant.
            telem.finish(int(duration_ns) + 1)
        collected = machine.metrics.collect()
        degrade = {k: v for k, v in collected.items()
                   if k.startswith("splitfs.degrade.")}
        bw_stats = {}
        if bw is not None:
            stall_ns = bw.stall_ns - bw0_stall
            bw_stats = {
                "stalled_ops": float(bw.stalled_ops - bw0_ops),
                "stall_ns": stall_ns,
                "bytes_acquired": bw.bytes_acquired - bw0_bytes,
                "stall_fraction": stall_ns / duration_ns,
            }
        latency = {
            "mean": latency_hist.mean,
            "p50": latency_hist.quantile(0.50),
            "p99": latency_hist.quantile(0.99),
            "p999": latency_hist.quantile(0.999),
            "max": latency_hist.max,
        }
        return ServeResult(
            config=cfg,
            counters=counters,
            duration_ns=duration_ns,
            latency=latency,
            wait_ns_mean=wait_hist.mean,
            service_ns_mean=service_hist.mean,
            goodput_req_per_s=counters.deadline_met / (duration_ns / 1e9),
            offered_req_per_s=cfg.offered_req_per_s,
            degrade=degrade,
            bandwidth=bw_stats,
            outcomes=outcomes,
            telemetry=telem,
            slo=slo_engine,
            tracer=tracer,
        )


def run_sweep(base: ServeConfig,
              multipliers: Tuple[float, ...] = (0.25, 0.5, 0.75, 1.0,
                                                1.25, 1.5, 2.0),
              capacity: Optional[float] = None,
              ) -> Tuple[float, List[ServeResult]]:
    """Latency-vs-offered-load sweep around the measured service capacity.

    Calibrates capacity with a closed-loop probe, then runs one independent
    serve run (fresh machine, same seed) per offered-load multiple.
    Returns ``(capacity_req_per_s, results)``.  Pass ``capacity`` to pin
    the absolute offered rates instead of probing — the knee-shift tests
    use this to sweep a device-modelled config at the *fixed-cost* config's
    rates, so the two curves are comparable point for point.
    """
    if capacity is None:
        capacity = ServeEngine(base).estimate_capacity()
    results = []
    for mult in multipliers:
        cfg = dataclasses.replace(base, offered_rate=capacity * mult)
        results.append(ServeEngine(cfg).run())
    return capacity, results


def saturation_knee(results: List[ServeResult],
                    threshold: float = 0.9) -> float:
    """The saturation knee of a sweep: the lowest offered load (req/s)
    whose goodput falls below ``threshold`` of offered.

    Returns ``inf`` when no point in the sweep saturates.  Under a
    contended-bandwidth device model the knee can only move left (or stay)
    relative to the fixed-cost model at the same offered rates — queueing
    delay is non-negative — which the sensitivity tests pin.
    """
    for r in sorted(results, key=lambda r: r.offered_req_per_s):
        if r.goodput_req_per_s < threshold * r.offered_req_per_s:
            return r.offered_req_per_s
    return float("inf")
