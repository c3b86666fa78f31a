"""`repro.obs` — engine observability: metrics, tracing, EXPLAIN ANALYZE.

Three small layers, all dependency-free (stdlib only) so every other
subsystem may import them without cycles:

- :mod:`repro.obs.names` — the registered constant table of metric and
  span names (lint OBS001 rejects bare string literals at call sites);
- :mod:`repro.obs.metrics` — thread-safe `MetricsRegistry` (counters,
  gauges, histograms with labels; one process-wide default plus one per
  `Engine`), the unified `CacheStats` counter bundle every cache in the
  system reports through, and a Prometheus text renderer;
- :mod:`repro.obs.trace` — span-based `Tracer` (hierarchical per-query
  traces: parse → plan/optimize/verify → lower → execute) and
  `TraceCollector` (per-physical-operator actuals: rows, batches, wall
  time), both with a no-op fast path costing one integer comparison
  when disabled;
- :mod:`repro.obs.explain` — the EXPLAIN ANALYZE renderer joining the
  planner's estimates with the collector's actuals, flagging ≥4×
  estimate drift per operator.

Enable per-query tracing with ``ExecutionConfig(trace=True)`` or
``REPRO_TRACE=1``; read the result back via ``Engine.last_trace()``
(JSON-ready dict).  ``Engine.metrics_snapshot()`` returns the stable
merged view; ``render_prometheus`` turns it into text exposition.
"""

from repro.obs.explain import DRIFT_THRESHOLD, estimate_drift, render_analyze
from repro.obs.metrics import (
    CacheStats,
    MetricsRegistry,
    global_metrics,
    render_prometheus,
)
from repro.obs.trace import (
    OperatorRecord,
    Span,
    TraceCollector,
    Tracer,
    current_tracer,
    trace_span,
    tracing_active,
)

__all__ = [
    "CacheStats",
    "DRIFT_THRESHOLD",
    "MetricsRegistry",
    "OperatorRecord",
    "Span",
    "TraceCollector",
    "Tracer",
    "current_tracer",
    "estimate_drift",
    "global_metrics",
    "render_analyze",
    "render_prometheus",
    "trace_span",
    "tracing_active",
]
