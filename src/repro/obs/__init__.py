"""Observability: tracing spans, metrics registry, run-report export.

Telemetry is opt-in (``EngineConfig.telemetry=True`` or the CLI's
``--trace-out`` / ``--metrics-out``); when off, the engine holds the
shared :data:`NULL_TRACER` / :data:`NULL_METRICS` singletons, which
record nothing. Null spans still time themselves: span durations are
the one source of the engine's phase timings.
Nothing here may perturb solver results — telemetry observes the run,
it never participates in it.
"""

from repro.obs.clock import SYSTEM_CLOCK, Clock, ManualClock, MonotonicClock
from repro.obs.metrics import (
    EMPTY_SNAPSHOT,
    NULL_METRICS,
    Metrics,
    MetricsLike,
    MetricsSnapshot,
    NullMetrics,
    TimerStat,
)
from repro.obs.report import (
    REPORT_SCHEMA,
    config_dict,
    run_report,
    solve_report_dict,
    write_report,
)
from repro.obs.telemetry import Telemetry
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    TracerLike,
    span_tree,
)

__all__ = [
    "Clock",
    "EMPTY_SNAPSHOT",
    "ManualClock",
    "Metrics",
    "MetricsLike",
    "MetricsSnapshot",
    "MonotonicClock",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "REPORT_SCHEMA",
    "SYSTEM_CLOCK",
    "SpanRecord",
    "Telemetry",
    "TimerStat",
    "Tracer",
    "TracerLike",
    "config_dict",
    "run_report",
    "solve_report_dict",
    "span_tree",
    "write_report",
]
