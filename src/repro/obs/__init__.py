"""Unified observability: span tracing, attribution, metrics, exporters.

Import surface is deliberately light — ``pmem.timing`` (which everything
imports) pulls in :mod:`.observer`, so nothing heavy may load here.
``obs.profile`` (the CLI workload runner) is imported lazily by the CLI.
"""

from .observer import NULL_OBSERVER, NullObserver, Observer, Span
from .metrics import (
    Counter,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    counter_field,
    reset_counter_fields,
)
from .telemetry import (
    AlertEvent,
    BurnRule,
    DEFAULT_BURN_RULES,
    Objective,
    SLOEngine,
    Telemetry,
    Window,
)

__all__ = [
    "NULL_OBSERVER",
    "NullObserver",
    "Observer",
    "Span",
    "Counter",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "counter_field",
    "reset_counter_fields",
    "AlertEvent",
    "BurnRule",
    "DEFAULT_BURN_RULES",
    "Objective",
    "SLOEngine",
    "Telemetry",
    "Window",
]
