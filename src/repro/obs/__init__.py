"""Unified observability subsystem: stats, tracing, exporters.

One package holds the simulator's instrumentation APIs:

- :mod:`repro.obs.monitor` -- the counter registry every component
  reports into (:data:`NULL_MONITOR` when built standalone) and the
  per-run :class:`BottleneckReport`;
- :mod:`repro.obs.trace` -- request-scoped typed spans with causal links
  across every layer of the simulated stack;
- :mod:`repro.obs.stats` -- prefetcher outcome statistics;
- :mod:`repro.obs.export` -- Chrome ``trace_event`` JSON, per-layer
  latency breakdowns, critical-path reports;
- :mod:`repro.obs.telemetry` -- labeled metric registry (counters,
  gauges, fixed-bucket histograms), resource probes, and the
  simulated-time sampler;
- :mod:`repro.obs.telemetry_export` -- Prometheus text snapshot,
  CSV/JSONL time series, ASCII utilization heatmap/timeline;
- :mod:`repro.obs.observability` -- :class:`Observability`, the Monitor
  that also carries the tracer and telemetry, exposed by a
  :class:`~repro.machine.Machine` as ``machine.obs``.
"""

from repro.obs.export import (
    breakdown_of,
    chrome_trace_events,
    chrome_trace_json,
    critical_path_report,
    latency_breakdown,
    render_breakdown,
)
from repro.obs.fairness import FairnessReport, TenantUsage, jain_index
from repro.obs.monitor import NULL_MONITOR, BottleneckReport, CounterStat, Monitor
from repro.obs.observability import Observability
from repro.obs.stats import PrefetchStats
from repro.obs.telemetry import (
    DEFAULT_TIME_BUCKETS_S,
    NULL_TELEMETRY,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricRegistry,
    Telemetry,
    get_telemetry,
)
from repro.obs.telemetry_export import (
    prometheus_text,
    timeseries_csv,
    timeseries_jsonl,
    utilization_heatmap,
    utilization_matrix,
    utilization_timeline,
)
from repro.obs.trace import (
    NOOP_SPAN,
    NULL_TRACER,
    Span,
    TraceContext,
    Tracer,
    get_tracer,
)

__all__ = [
    "BottleneckReport",
    "CounterMetric",
    "CounterStat",
    "DEFAULT_TIME_BUCKETS_S",
    "FairnessReport",
    "GaugeMetric",
    "HistogramMetric",
    "MetricRegistry",
    "Monitor",
    "NOOP_SPAN",
    "NULL_MONITOR",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "Observability",
    "PrefetchStats",
    "Span",
    "Telemetry",
    "TenantUsage",
    "TraceContext",
    "Tracer",
    "breakdown_of",
    "chrome_trace_events",
    "chrome_trace_json",
    "critical_path_report",
    "get_telemetry",
    "get_tracer",
    "jain_index",
    "latency_breakdown",
    "prometheus_text",
    "render_breakdown",
    "timeseries_csv",
    "timeseries_jsonl",
    "utilization_heatmap",
    "utilization_matrix",
    "utilization_timeline",
]
