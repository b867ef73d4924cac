"""Exporters for observer data.

Three consumable shapes:

* :func:`attribution_rows` / :func:`render_attribution_table` — the
  per-layer latency-attribution table ("who pays what"), the paper's
  Figure 1 decomposition.  The authoritative total is the measurement's
  simulated-ns (the same ``TimeAccount`` the benchmarks report); any
  float-summation residue between it and the attributed sum is shown as an
  explicit ``(residual)`` row instead of being smeared over categories, so
  the table always sums to the reported number exactly.
* :func:`to_chrome_trace` — Chrome trace-event JSON ("X" complete events,
  microsecond timestamps) loadable in Perfetto / ``chrome://tracing``.
  The event builders (:func:`meta_event`, :func:`complete_event`,
  :func:`counter_event`) and the :func:`chrome_trace_doc` envelope are
  shared with the serve request tracer; :func:`validate_chrome_trace`
  checks the schema without external deps.
* :func:`to_collapsed_stacks` — ``root;child;leaf <ns>`` lines for
  flamegraph.pl / speedscope (self-time weighted, integer ns).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .observer import Observer, TIME_CATEGORIES

#: Display order for span categories in attribution tables; unknown
#: categories sort after these, alphabetically.
CATEGORY_ORDER = (
    "usplit", "staging", "oplog", "relink", "fallback",
    "vfs", "trap", "fs", "alloc", "journal", "fault", "vm",
    "ras", "other",
)


def _category_rank(cat: str) -> Tuple[int, str]:
    try:
        return (CATEGORY_ORDER.index(cat), cat)
    except ValueError:
        return (len(CATEGORY_ORDER), cat)


def attribution_rows(attribution: Mapping[str, Mapping[str, float]],
                     total_ns: Optional[float] = None,
                     ) -> List[Dict[str, float]]:
    """Flatten an attribution dict into ordered row dicts.

    ``total_ns`` is the authoritative measurement total; when given, a
    final ``(residual)`` row absorbs ``total_ns - sum(attributed)`` (float
    ordering residue, ~1 ulp) so the rows partition the total exactly.
    """
    rows: List[Dict[str, float]] = []
    for cat in sorted(attribution, key=_category_rank):
        bucket = attribution[cat]
        row: Dict[str, float] = {"category": cat}  # type: ignore[dict-item]
        for key in TIME_CATEGORIES:
            row[key] = float(bucket.get(key, 0.0))
        row["total"] = sum(row[key] for key in TIME_CATEGORIES)
        rows.append(row)
    if total_ns is not None:
        residual = total_ns - sum(r["total"] for r in rows)
        rows.append({"category": "(residual)",  # type: ignore[dict-item]
                     "data": 0.0, "meta_io": 0.0, "cpu": 0.0,
                     "total": residual})
    return rows


def render_attribution_table(title: str,
                             attribution: Mapping[str, Mapping[str, float]],
                             total_ns: Optional[float] = None,
                             operations: Optional[int] = None) -> str:
    """Monospace Figure-1-style table for one (system, workload) run."""
    from ..bench.report import render_table  # lazy: bench pulls in numpy-free but heavier modules

    rows = attribution_rows(attribution, total_ns=total_ns)
    grand = total_ns if total_ns is not None else sum(r["total"] for r in rows)
    headers = ["layer", "data ns", "meta-io ns", "cpu ns", "total ns", "share"]
    if operations:
        headers.append("ns/op")
    table_rows: List[List[str]] = []
    for r in rows:
        share = (r["total"] / grand * 100.0) if grand else 0.0
        cells = [
            str(r["category"]),
            f"{r['data']:.0f}",
            f"{r['meta_io']:.0f}",
            f"{r['cpu']:.0f}",
            f"{r['total']:.0f}",
            f"{share:5.1f}%",
        ]
        if operations:
            cells.append(f"{r['total'] / operations:.1f}")
        table_rows.append(cells)
    total_cells = ["TOTAL", "", "", "", f"{grand:.0f}", "100.0%"]
    if operations:
        total_cells.append(f"{grand / operations:.1f}")
    table_rows.append(total_cells)
    return render_table(title, headers, table_rows)


# -- Chrome trace-event JSON --------------------------------------------------


def meta_event(name: str, pid: int, tid: int, label: str) -> Dict[str, Any]:
    """A metadata ("M") event naming a process or thread lane."""
    return {"ph": "M", "name": name, "pid": pid, "tid": tid,
            "args": {"name": label}}


def complete_event(name: str, cat: str, start_ns: float, dur_ns: float,
                   pid: int, tid: int, args: Dict[str, Any]) -> Dict[str, Any]:
    """A complete ("X") event; simulated ns become trace microseconds."""
    return {"ph": "X", "name": name, "cat": cat, "ts": start_ns / 1000.0,
            "dur": dur_ns / 1000.0, "pid": pid, "tid": tid, "args": args}


def counter_event(name: str, ts_ns: float, pid: int, tid: int,
                  args: Dict[str, Any]) -> Dict[str, Any]:
    """A counter ("C") event at simulated instant ``ts_ns``."""
    return {"ph": "C", "name": name, "pid": pid, "tid": tid,
            "ts": ts_ns / 1000.0, "args": args}


def chrome_trace_doc(events: List[Dict[str, Any]], producer: str,
                     **other: Any) -> Dict[str, Any]:
    """The trace-event JSON object envelope around ``events``.

    ``displayTimeUnit: "ns"`` keeps the UI readable at nanosecond scale;
    ``other`` rides along in ``otherData`` after the producer name.
    """
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"producer": producer, **other},
    }


def to_chrome_trace(obs: Observer, process_name: str = "repro",
                    pid: int = 1, tid: int = 1) -> Dict[str, Any]:
    """Trace-event JSON object format (Perfetto / chrome://tracing).

    One "X" event per span on a single clock lane; span category and
    fence epochs ride along in ``args``.
    """
    events: List[Dict[str, Any]] = [
        meta_event("process_name", pid, tid, process_name),
        meta_event("thread_name", pid, tid, "sim-clock"),
    ]
    for span in obs.events:
        events.append(complete_event(
            span.name, span.cat, span.start_ns, span.duration_ns, pid, tid,
            {"self_ns": span.self_ns,
             "fences": span.end_fences - span.start_fences,
             "depth": span.depth}))
    events.append(counter_event(
        "fences", obs.events[-1].end_ns if obs.events else 0.0, pid, tid,
        {"count": obs.fence_count}))
    return chrome_trace_doc(events, "repro.obs",
                            dropped_events=obs.dropped_events)


#: Hand-rolled schema for :func:`validate_chrome_trace` (no jsonschema dep).
#: phase -> (required fields, {field: allowed types}).
_EVENT_FIELD_TYPES: Dict[str, type] = {
    "name": str, "cat": str, "ph": str,
    "pid": int, "tid": int,
    "ts": (int, float), "dur": (int, float),  # type: ignore[dict-item]
    "args": dict,
}
_REQUIRED_BY_PHASE = {
    "X": ("name", "ph", "ts", "dur", "pid", "tid"),
    "M": ("name", "ph", "pid", "args"),
    "C": ("name", "ph", "ts", "pid", "args"),
}


def validate_chrome_trace(doc: Any) -> List[str]:
    """Return a list of schema violations (empty means valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    if "displayTimeUnit" in doc and doc["displayTimeUnit"] not in ("ms", "ns"):
        errors.append(f"displayTimeUnit must be 'ms' or 'ns', "
                      f"got {doc['displayTimeUnit']!r}")
    for i, ev in enumerate(events):
        if len(errors) > 50:
            errors.append("... (truncated)")
            break
        if not isinstance(ev, dict):
            errors.append(f"event[{i}]: not an object")
            continue
        ph = ev.get("ph")
        required = _REQUIRED_BY_PHASE.get(ph)  # type: ignore[arg-type]
        if required is None:
            errors.append(f"event[{i}]: unknown phase {ph!r}")
            continue
        for fieldname in required:
            if fieldname not in ev:
                errors.append(f"event[{i}] ({ph}): missing field "
                              f"{fieldname!r}")
        for fieldname, value in ev.items():
            expected = _EVENT_FIELD_TYPES.get(fieldname)
            if expected is not None and not isinstance(value, expected):
                errors.append(
                    f"event[{i}] ({ph}): field {fieldname!r} has type "
                    f"{type(value).__name__}")
        if ph == "X":
            if isinstance(ev.get("ts"), (int, float)) and ev["ts"] < 0:
                errors.append(f"event[{i}] (X): negative ts")
            if isinstance(ev.get("dur"), (int, float)) and ev["dur"] < 0:
                errors.append(f"event[{i}] (X): negative dur")
    return errors


# -- collapsed stacks ---------------------------------------------------------


def to_collapsed_stacks(obs: Observer) -> str:
    """One ``frame;frame;frame <int_ns>`` line per unique stack.

    Weights are self time, so summing the file reproduces total attributed
    span time; sub-nanosecond rounding keeps the format integer as
    flamegraph tools expect.
    """
    lines = []
    for stack in sorted(obs.collapsed):
        ns = int(round(obs.collapsed[stack]))
        if ns > 0:
            lines.append(";".join(stack) + f" {ns}")
    return "\n".join(lines) + ("\n" if lines else "")
