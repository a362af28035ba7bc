"""Dependency-free observability: structured tracing + process-local metrics.

See ``docs/OBSERVABILITY.md`` for the trace schema, the canonical metric
names, and the ``python -m repro.obs summary`` CLI.  Quick orientation:

* :func:`span` / :func:`timed` / :func:`event` — instrument a region; spans
  are no-op-cheap unless a sink is active, ``timed`` always measures wall.
* :func:`tracing` — supervisor-side: write a per-run JSONL trace file
  (tracing state is per thread).
* :func:`collecting` — worker-side span buffering, shipped back with each
  traced task's answer (:mod:`repro.supervised`).
* :func:`counter` / :func:`gauge` / :func:`histogram` / :func:`registry` —
  the process-global metrics registry.
* :class:`RunTelemetry` / :func:`summarize` — run-level and trace-level
  digests.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    registry,
)
from repro.obs.summary import (
    CellTrace,
    RunTelemetry,
    TraceSummary,
    render_summary,
    summarize,
)
from repro.obs.trace import (
    SpanBuffer,
    TraceWriter,
    adopt_spans,
    collecting,
    current_id,
    emit_metrics,
    emit_span,
    enabled,
    event,
    read_trace,
    root_id,
    span,
    span_id,
    task_seed,
    timed,
    tracing,
)

__all__ = [
    "CellTrace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunTelemetry",
    "SpanBuffer",
    "TraceSummary",
    "TraceWriter",
    "adopt_spans",
    "collecting",
    "counter",
    "current_id",
    "emit_metrics",
    "emit_span",
    "enabled",
    "event",
    "gauge",
    "histogram",
    "read_trace",
    "registry",
    "render_summary",
    "root_id",
    "span",
    "span_id",
    "summarize",
    "task_seed",
    "timed",
    "tracing",
]
