"""Per-request lifecycle tracing for the serve engine.

A sampled request carries a trace context through its whole lifecycle —
admit → queue → serve (with the fs span tree) → retry/backoff →
deadline/shed outcome — on the serve engine's virtual timeline.  Sampling
is deterministic: a seeded splitmix64 hash of the request id decides
membership, so two runs with the same seed trace the same requests and
the exported artifacts are byte-identical.

The tracer also keeps an outcome tally over *all* requests (sampled or
not); the telemetry cross-check tests use it to prove a retried-then-shed
request lands exactly once per terminal outcome in the tracer, the serve
counters, and the SLO ledger alike.

Exports:

* :func:`to_chrome_trace` — trace-event JSON with one thread lane per
  traced request (phases as "X" events, nested fs spans when span capture
  is on), loadable in Perfetto next to the observer's clock-lane trace.
* :meth:`RequestTracer.exemplars` — the slowest traced completions inside
  a time range; the monitor report uses it to link slow telemetry windows
  to concrete traced requests.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.export import (chrome_trace_doc, complete_event, counter_event,
                          meta_event)

_M64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 output step — a cheap, well-mixed 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


@dataclasses.dataclass
class TracePhase:
    """One lifecycle phase of a traced request on the virtual timeline."""

    name: str  # queued | service | backoff | rejected | error
    start_ns: float
    end_ns: float
    attempt: int
    detail: str = ""
    #: Captured fs spans (``obs.Span``) for service phases, when span
    #: capture is enabled.  Span timestamps are machine-clock ns; the
    #: exporter shifts them onto the virtual timeline.
    spans: Tuple[Any, ...] = ()


@dataclasses.dataclass
class RequestTrace:
    """The full lifecycle record of one sampled request."""

    rid: int
    arrival_ns: float
    phases: List[TracePhase] = dataclasses.field(default_factory=list)
    outcome: str = ""
    outcome_ns: float = 0.0
    attempts: int = 0

    @property
    def latency_ns(self) -> float:
        return self.outcome_ns - self.arrival_ns


class RequestTracer:
    """Deterministically-sampled request lifecycle sink.

    ``sample_every=k`` traces roughly one request in ``k`` (exactly those
    whose seeded hash lands in the residue class), ``k=1`` traces all.
    The engine calls the hooks below; every hook is O(1) and touches no
    clock, so tracing never perturbs simulated time.
    """

    def __init__(self, seed: int, sample_every: int = 16,
                 capture_spans: bool = False) -> None:
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}")
        self.seed = seed
        self.sample_every = sample_every
        self.capture_spans = capture_spans
        self._salt = _splitmix64(seed ^ 0x7E1E_ACE5)
        self.traces: Dict[int, RequestTrace] = {}
        #: Terminal-outcome tally over ALL requests, traced or not.
        self.outcome_counts: Dict[str, int] = {}

    def sampled(self, rid: int) -> bool:
        return _splitmix64(self._salt ^ rid) % self.sample_every == 0

    def _trace(self, rid: int, t: float) -> Optional[RequestTrace]:
        tr = self.traces.get(rid)
        if tr is None:
            if not self.sampled(rid):
                return None
            tr = self.traces[rid] = RequestTrace(rid=rid, arrival_ns=t)
        return tr

    # -- engine hooks ----------------------------------------------------------

    def on_attempt(self, rid: int, t: float, attempt: int) -> None:
        tr = self._trace(rid, t)
        if tr is not None:
            if attempt == 0:
                tr.arrival_ns = t
            tr.attempts = attempt + 1

    def on_rejected(self, rid: int, t: float, attempt: int,
                    backpressure: bool) -> None:
        tr = self.traces.get(rid)
        if tr is not None:
            tr.phases.append(TracePhase(
                "rejected", t, t, attempt,
                detail="backpressure" if backpressure else "queue-full"))

    def on_backoff(self, rid: int, t: float, retry_t: float,
                   attempt: int) -> None:
        tr = self.traces.get(rid)
        if tr is not None:
            tr.phases.append(TracePhase("backoff", t, retry_t, attempt))

    def on_queue_timeout(self, rid: int, t: float, start: float,
                         attempt: int) -> None:
        tr = self.traces.get(rid)
        if tr is not None:
            tr.phases.append(TracePhase("queued", t, start, attempt,
                                        detail="deadline-while-queued"))

    def on_service(self, rid: int, t: float, start: float, end: float,
                   attempt: int, err_name: str = "",
                   spans: Sequence[Any] = ()) -> None:
        tr = self.traces.get(rid)
        if tr is None:
            return
        if start > t:
            tr.phases.append(TracePhase("queued", t, start, attempt))
        tr.phases.append(TracePhase(
            "service", start, end, attempt, detail=err_name,
            spans=tuple(spans) if self.capture_spans else ()))

    def on_outcome(self, rid: int, t: float, outcome: str) -> None:
        self.outcome_counts[outcome] = self.outcome_counts.get(outcome, 0) + 1
        tr = self.traces.get(rid)
        if tr is not None:
            assert not tr.outcome, (rid, tr.outcome, outcome)
            tr.outcome = outcome
            tr.outcome_ns = t

    # -- views -----------------------------------------------------------------

    def exemplars(self, start_ns: float, end_ns: float,
                  k: int = 3) -> List[RequestTrace]:
        """Slowest traced *completions* whose terminal instant lies in
        ``[start_ns, end_ns)`` — the exemplar links from a slow telemetry
        window back to concrete requests."""
        hits = [tr for tr in self.traces.values()
                if tr.outcome == "completed"
                and start_ns <= tr.outcome_ns < end_ns]
        hits.sort(key=lambda tr: (-tr.latency_ns, tr.rid))
        return hits[:k]


def to_chrome_trace(tracer: RequestTracer, origin_ns: float = 0.0,
                    pid: int = 2) -> Dict[str, Any]:
    """Trace-event JSON with one thread lane per traced request.

    Lifecycle phases become "X" complete events on the request's lane;
    captured fs spans (machine-clock ns) are shifted by ``-origin_ns``
    onto the virtual timeline and nested under their service phase.
    Built with the :mod:`repro.obs.export` event builders and validated
    by :func:`repro.obs.export.validate_chrome_trace`.
    """
    events: List[Dict[str, Any]] = [
        meta_event("process_name", pid, 0, "serve-requests")]
    for rid in sorted(tracer.traces):
        tr = tracer.traces[rid]
        tid = rid + 1  # tid 0 is reserved for the process meta row
        events.append(meta_event("thread_name", pid, tid,
                                 f"req {rid} ({tr.outcome or 'open'})"))
        for ph in tr.phases:
            events.append(complete_event(
                ph.name, "request", ph.start_ns,
                max(ph.end_ns - ph.start_ns, 0.0), pid, tid,
                {"rid": rid, "attempt": ph.attempt, "detail": ph.detail}))
            for span in ph.spans:
                events.append(complete_event(
                    span.name, span.cat, span.start_ns - origin_ns,
                    span.duration_ns, pid, tid,
                    {"rid": rid, "depth": span.depth,
                     "self_ns": span.self_ns}))
        if tr.outcome:
            events.append(counter_event(
                f"req {rid} outcome", tr.outcome_ns, pid, tid,
                {"latency_ns": tr.latency_ns, "attempts": tr.attempts}))
    return chrome_trace_doc(events, "repro.serve.reqtrace",
                            sample_every=tracer.sample_every,
                            traced=len(tracer.traces))
