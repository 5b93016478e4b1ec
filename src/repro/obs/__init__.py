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
- :mod:`repro.obs.observability` -- :class:`Observability`, the Monitor
  that also carries the tracer, exposed by a
  :class:`~repro.machine.Machine` as ``machine.obs``.

Which resource saturated a run is answered from the components'
busy-seconds by :meth:`repro.machine.Machine.bottleneck_report`.  A
traced run (``trace=True``) takes the same paths as an untraced one and
only records request spans.
"""

from repro.obs.export import (
    breakdown_of,
    chrome_trace_events,
    chrome_trace_json,
    critical_path_report,
    latency_breakdown,
    render_breakdown,
)
from repro.obs.monitor import NULL_MONITOR, BottleneckReport, CounterStat, Monitor
from repro.obs.observability import Observability
from repro.obs.stats import PrefetchStats
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
    "CounterStat",
    "Monitor",
    "NOOP_SPAN",
    "NULL_MONITOR",
    "NULL_TRACER",
    "Observability",
    "PrefetchStats",
    "Span",
    "TraceContext",
    "Tracer",
    "breakdown_of",
    "chrome_trace_events",
    "chrome_trace_json",
    "critical_path_report",
    "get_tracer",
    "latency_breakdown",
    "render_breakdown",
]
