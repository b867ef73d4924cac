"""Byte-deterministic renderers for serve runs and sweeps.

No wall-clock, no timestamps, no dict-ordering hazards: two identical-seed
runs must render byte-identical reports (gated in CI by `cmp`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..bench.report import (
    fmt_us,
    render_alert_ledger,
    render_latency_load_table,
    render_slo_timeline,
    render_table,
)
from ..pmem.devmodel import model_label
from .engine import ServeResult

#: The latency histogram the timeline's p99 column reads.
LATENCY_HIST = "serve.request.latency_ns"
#: The monitor report links this many slowest windows to their traced
#: requests, and that many requests per window.
EXEMPLAR_WINDOWS = 3
EXEMPLAR_REQUESTS = 2


def _device_note(cfg) -> str:
    """The device-model annotation for a config ("" on the off path)."""
    label = model_label(cfg.device_profile, cfg.numa_remote)
    return f"device model {label}" if label else ""


def render_serve_report(result: ServeResult) -> str:
    cfg = result.config
    c = result.counters
    title = (f"repro serve: {cfg.system} app={cfg.app} "
             f"arrival={cfg.arrival} clients={cfg.clients} seed={cfg.seed}")
    lines = [title, "=" * len(title)]
    lines.append(
        f"offered {result.offered_req_per_s / 1e3:.1f} kreq/s, "
        f"{c.generated} requests over {result.duration_ns / 1e6:.2f} ms "
        f"simulated"
        + (", " + note if (note := _device_note(cfg)) else ""))
    lines.append(
        f"goodput {result.goodput_req_per_s / 1e3:.1f} kreq/s "
        f"({c.deadline_met}/{c.generated} within the "
        f"{cfg.deadline_us:.0f} us deadline)")
    lat = result.latency
    lines.append(
        f"latency us: p50 {fmt_us(lat['p50'])}  p99 {fmt_us(lat['p99'])}  "
        f"p999 {fmt_us(lat['p999'])}  max {fmt_us(lat['max'])}  "
        f"mean {fmt_us(lat['mean'])}")
    lines.append(
        f"queueing us: wait mean {fmt_us(result.wait_ns_mean)}  "
        f"service mean {fmt_us(result.service_ns_mean)}")
    lines.append(render_table(
        "overload counters",
        ["completed", "shed", "retries", "timeouts", "rejections",
         "bp-rejections", "retryable-errs", "failed"],
        [[c.completed, c.shed, c.retries, c.timeouts, c.rejections,
          c.backpressure_rejections, c.retryable_errors, c.failed]]))
    if result.bandwidth:
        b = result.bandwidth
        lines.append(
            f"device: {b['stalled_ops']:.0f} stalled transfers, "
            f"stall {b['stall_ns'] / 1e6:.2f} ms "
            f"({100.0 * b['stall_fraction']:.1f}% of duration), "
            f"{b['bytes_acquired'] / 1e6:.1f} MB through the token bucket")
    if result.telemetry is not None and result.slo is not None:
        lines.append("")
        lines.append(render_slo_timeline(
            f"SLO timeline ({cfg.telemetry_window_us:.0f} us windows)",
            result.telemetry, result.slo, latency_hist=LATENCY_HIST))
        lines.append("")
        lines.append(render_alert_ledger(result.slo))
    return "\n".join(lines)


def _exemplar_lines(result: ServeResult) -> List[str]:
    """Link the slowest telemetry windows to their traced requests."""
    tracer, telem = result.tracer, result.telemetry
    if tracer is None or telem is None:
        return []
    ranked = sorted(telem.windows,
                    key=lambda w: (-w.quantile_ns(LATENCY_HIST, 0.99),
                                   w.index))
    lines: List[str] = []
    for w in sorted(ranked[:EXEMPLAR_WINDOWS], key=lambda w: w.index):
        if not w.quantile_ns(LATENCY_HIST, 0.99):
            continue
        ex = tracer.exemplars(w.start_ns, w.end_ns, k=EXEMPLAR_REQUESTS)
        if not ex:
            continue
        frag = ", ".join(
            f"req {tr.rid} ({fmt_us(tr.latency_ns)} us, "
            f"{tr.attempts} attempt{'s' if tr.attempts != 1 else ''})"
            for tr in ex)
        lines.append(f"  win {w.index} "
                     f"p99 {fmt_us(w.quantile_ns(LATENCY_HIST, 0.99))} us"
                     f" -> {frag}")
    return lines


def render_monitor_report(result: ServeResult,
                          capacity_req_per_s: Optional[float] = None) -> str:
    """The `repro monitor` composition: serve summary + SLO timeline +
    alert ledger (via :func:`render_serve_report`), then exemplar links
    from the slowest windows to traced requests and the trace census."""
    lines = [render_serve_report(result)]
    if capacity_req_per_s is not None:
        lines.insert(0, f"capacity probe: {capacity_req_per_s / 1e3:.1f} "
                        f"kreq/s (closed-loop service rate)")
    ex = _exemplar_lines(result)
    if ex:
        lines.append("")
        lines.append("slow-window exemplars (traced requests):")
        lines.extend(ex)
    tracer = result.tracer
    if tracer is not None:
        lines.append("")
        lines.append(
            f"traced {len(tracer.traces)} of "
            f"{result.counters.generated} requests "
            f"(deterministic 1-in-{tracer.sample_every} sample)")
    return "\n".join(lines)


def render_sweep_report(capacity_req_per_s: float,
                        results: Iterable[ServeResult]) -> str:
    results = list(results)
    cfg = results[0].config
    lines: List[str] = [
        f"capacity probe: {capacity_req_per_s / 1e3:.1f} kreq/s "
        f"(closed-loop service rate, {cfg.system}/{cfg.app})",
        "",
        render_latency_load_table(
            f"Tail latency vs offered load: {cfg.system} app={cfg.app} "
            f"arrival={cfg.arrival} seed={cfg.seed}"
            + (" [" + note + "]" if (note := _device_note(cfg)) else ""),
            results),
    ]
    return "\n".join(lines)
