"""Plain-text renderers for the reproduced tables and figures."""

from __future__ import annotations

from typing import Dict, Iterable, Sequence



def render_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned monospace table (the benches print these)."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_bar_figure(title: str, groups: Dict[str, Dict[str, float]],
                      unit: str = "x", bar_width: int = 40) -> str:
    """ASCII bar chart standing in for the paper's figures.

    ``groups``: {group label: {series label: value}}, values pre-normalized.
    """
    lines = [title, "=" * len(title)]
    peak = max((v for g in groups.values() for v in g.values()), default=1.0)
    for group, series in groups.items():
        lines.append(f"\n{group}:")
        for label, value in series.items():
            n = int(round(bar_width * value / peak)) if peak else 0
            lines.append(f"  {label:<18} {'#' * n} {value:.2f}{unit}")
    return "\n".join(lines)


def render_persistence_summary(measurements: Iterable) -> str:
    """Per-measurement persistence-traffic table.

    Surfaces the crash-consistency-relevant counters every measurement now
    carries in ``extras``: fences issued, cache lines written back, and the
    lines still volatile when the workload finished (data a crash at that
    instant would lose).
    """
    rows = []
    for m in measurements:
        rows.append([
            m.system,
            m.workload,
            f"{m.extras.get('fences', 0):.0f}",
            f"{m.extras.get('clwb_lines', 0):.0f}",
            f"{m.extras.get('unpersisted_lines', 0):.0f}",
        ])
    return render_table(
        "Persistence traffic (per measured workload)",
        ["system", "workload", "fences", "clwb lines", "unpersisted lines"],
        rows)


def render_ras_summary(measurements: Iterable) -> str:
    """Per-measurement RAS counter table (``repro ras-report`` and benches).

    Shows the error ledger (detected / repaired / unrecoverable), scrub
    activity, and graceful-degradation events each measurement recorded in
    its ``ras_*`` extras.
    """
    rows = []
    for m in measurements:
        e = m.extras
        rows.append([
            m.system,
            m.workload,
            f"{e.get('ras_detected', 0):.0f}",
            f"{e.get('ras_repaired', 0):.0f}",
            f"{e.get('ras_unrecoverable', 0):.0f}",
            f"{e.get('ras_scrub_passes', 0):.0f}",
            f"{e.get('ras_degraded_entries', 0):.0f}",
            f"{e.get('ras_degraded_ops', 0):.0f}",
            f"{e.get('ras_enospc_retries', 0):.0f}",
        ])
    return render_table(
        "RAS summary (per measured workload)",
        ["system", "workload", "detected", "repaired", "unrecov",
         "scrubs", "degr entries", "degr ops", "enospc retries"],
        rows)


def render_latency_load_table(title: str, points: Iterable) -> str:
    """Figure-style latency-vs-offered-load table (`repro serve --sweep`).

    ``points`` are :class:`~repro.serve.engine.ServeResult`\\ s in offered-load
    order; the table shows the saturation knee — goodput flattening while the
    tail quantiles and shed counts climb — the way the paper's figures plot
    throughput curves.
    """
    rows = []
    for r in points:
        c = r.counters
        stall = r.bandwidth.get("stall_fraction", 0.0) if r.bandwidth else 0.0
        rows.append([
            f"{r.offered_req_per_s / 1e3:.1f}",
            f"{r.goodput_req_per_s / 1e3:.1f}",
            fmt_us(r.latency["p50"]),
            fmt_us(r.latency["p99"]),
            fmt_us(r.latency["p999"]),
            f"{c.shed}",
            f"{c.timeouts}",
            f"{c.retries}",
            f"{100.0 * stall:.1f}%",
        ])
    return render_table(
        title,
        ["offered kreq/s", "goodput kreq/s", "p50 us", "p99 us", "p999 us",
         "shed", "timeout", "retries", "dev stall"],
        rows)


def render_sensitivity_table(results: Dict[str, Dict[str, object]],
                             total_mb: int, seed: int) -> str:
    """The Table-2-style device-model sensitivity table.

    ``results`` is ``{profile label: {system: Measurement}}`` (see
    :func:`~repro.bench.sensitivity.run_sensitivity`).  One row per system,
    one ns/op column per profile, plus an ``eadr gain`` column (optane ns/op
    over eadr ns/op — how much of a system's cost was flush tax) when both
    profiles are present.  Byte-deterministic for a fixed seed.
    """
    labels = list(results)
    systems = list(next(iter(results.values())))
    gain = "optane" in results and "eadr" in results
    headers = ["system"] + [f"{label} ns/op" for label in labels]
    if gain:
        headers.append("eadr gain")
    rows = []
    for system in systems:
        row = [system]
        for label in labels:
            row.append(f"{results[label][system].ns_per_op:.0f}")
        if gain:
            row.append(fmt_ratio(results["optane"][system].ns_per_op
                                 / results["eadr"][system].ns_per_op))
        rows.append(row)
    title = (f"Device-model sensitivity: 4K appends + fsync "
             f"({total_mb} MB per system, seed {seed})")
    return render_table(title, headers, rows)


def degrade_phase(window, open_degrades: int) -> str:
    """Classify one telemetry window into an operator-facing phase label.

    ``open_degrades`` is the running entries−exits balance *before* this
    window; callers thread it through
    (``open_degrades += entries - exits``).  Priority order: an open
    degraded interval dominates (the system is in fallback mode), then
    shedding (requests dying), then backpressure (admission clamped), then
    retrying, else ok.
    """
    entries = window.counters.get("splitfs.degrade.degraded_entries", 0.0)
    exits = window.counters.get("splitfs.degrade.degraded_exits", 0.0)
    if open_degrades + entries - exits > 0 or entries > 0:
        return "degraded"
    if window.counters.get("serve.engine.shed", 0.0) > 0:
        return "shedding"
    if window.counters.get("serve.engine.backpressure_rejections", 0.0) > 0:
        return "backpressure"
    if window.counters.get("serve.engine.retries", 0.0) > 0:
        return "retrying"
    return "ok"


def render_slo_timeline(title: str, telemetry, slo,
                        latency_hist: str = "serve.request.latency_ns",
                        max_rows: int = 48) -> str:
    """The per-window SLO timeline table (`repro serve --slo` / `monitor`).

    One row per retained telemetry window: offered load (arrival rate),
    completion rate, the window's own p99 (from the histogram delta), the
    primary objective's fast/slow burn rates, every firing ``slo:rule``
    pair, and the degrade phase.  A device-stall column appears only when
    a device model exported stall counters.  Long runs are
    stride-downsampled to ``max_rows`` rows (deterministically), with a
    note saying so.
    """
    from ..pmem.devmodel import window_stall_fraction

    windows = list(telemetry.windows)
    primary = slo.objectives[0]
    rule = slo.rules[0]
    evals = {}  # (objective, window index) -> WindowEval
    for obj in slo.objectives:
        for ev in slo.evals[obj.name]:
            evals[(obj.name, ev.window)] = ev
    has_stall = any(w.counters.get("pmem.bw.stall_ns", 0.0) > 0
                    for w in windows)
    headers = ["win", "t ms", "offered kreq/s", "done kreq/s", "p99 us",
               f"burn {rule.name} f/s", "alerts", "phase"]
    if has_stall:
        headers.insert(7, "dev stall")
    stride = max(1, -(-len(windows) // max_rows))  # ceil div
    rows = []
    open_degrades = 0.0
    for w in windows:
        pe = evals.get((primary.name, w.index))
        firing = sorted(
            f"{obj.name}:{r}" for obj in slo.objectives
            for ev in (evals.get((obj.name, w.index)),) if ev is not None
            for r in ev.firing)
        phase = degrade_phase(w, open_degrades)
        if w.index % stride == 0 or w is windows[-1]:
            row = [
                f"{w.index}",
                f"{w.end_ns / 1e6:.2f}",
                f"{w.rate_per_s('serve.window.arrivals') / 1e3:.1f}",
                f"{w.rate_per_s('serve.engine.completed') / 1e3:.1f}",
                fmt_us(w.quantile_ns(latency_hist, 0.99)),
                (f"{pe.burn[rule.name][0]:.1f}/{pe.burn[rule.name][1]:.1f}"
                 if pe is not None else "-"),
                ",".join(firing) if firing else "-",
                phase,
            ]
            if has_stall:
                row.insert(7, f"{100.0 * window_stall_fraction(w):.1f}%")
            rows.append(row)
        open_degrades += (
            w.counters.get("splitfs.degrade.degraded_entries", 0.0)
            - w.counters.get("splitfs.degrade.degraded_exits", 0.0))
    out = render_table(title, headers, rows)
    notes = []
    if stride > 1:
        notes.append(f"(showing every {stride}th of {len(windows)} windows)")
    if telemetry.dropped:
        notes.append(f"({telemetry.dropped} windows evicted from the ring "
                     f"buffer)")
    return out + ("\n" + " ".join(notes) if notes else "")


def render_alert_ledger(slo) -> str:
    """The deterministic fire/resolve alert ledger table."""
    if not slo.ledger:
        return "alerts: none fired"
    rows = [[f"{ev.window}", f"{ev.t_ns / 1e6:.2f}", ev.slo, ev.rule,
             ev.kind, f"{ev.burn_fast:.1f}", f"{ev.burn_slow:.1f}"]
            for ev in slo.ledger]
    return render_table(
        "SLO alert ledger",
        ["win", "t ms", "objective", "rule", "event", "burn fast",
         "burn slow"],
        rows)


def fmt_us(ns: float) -> str:
    return f"{ns / 1000:.2f}"


def fmt_ratio(x: float) -> str:
    return f"{x:.2f}x"
