"""The single observability handle a :class:`~repro.machine.Machine` owns.

:class:`Observability` *is* the run's counter registry (a
:class:`~repro.obs.monitor.Monitor`) and also carries the request tracer
(:class:`~repro.obs.trace.Tracer`) and the telemetry sampler.
Components throughout the stack take one ``monitor=`` constructor
argument; handed an ``Observability`` they get counters *and* (via
:func:`~repro.obs.trace.get_tracer` / :func:`~repro.obs.telemetry.get_telemetry`)
the tracer and telemetry, with no wiring changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.obs.export import (
    chrome_trace_json,
    critical_path_report,
    latency_breakdown,
    render_breakdown,
)
from repro.obs.monitor import Monitor
from repro.obs.telemetry import Telemetry
from repro.obs.telemetry_export import (
    prometheus_text,
    timeseries_csv,
    timeseries_jsonl,
    utilization_heatmap,
    utilization_timeline,
)
from repro.obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


class Observability(Monitor):
    """The counter registry plus a tracer and telemetry -- one handle.

    On top of the :class:`~repro.obs.monitor.Monitor` counters:

    - :attr:`tracer` -- the request tracer (disabled unless
      ``trace=True``);
    - :attr:`telemetry` -- the labeled metric registry + sampler
      (disabled unless ``telemetry=True``);
    - export conveniences (:meth:`chrome_trace`, :meth:`breakdown`,
      :meth:`breakdown_table`, :meth:`critical_path`, :meth:`prometheus`,
      :meth:`telemetry_csv`, :meth:`telemetry_jsonl`, :meth:`heatmap`,
      :meth:`timeline`).
    """

    def __init__(
        self,
        env: "Environment",
        trace: bool = False,
        telemetry: bool = False,
        telemetry_interval_s: float = 0.05,
    ) -> None:
        super().__init__(env)
        self.tracer = Tracer(env, enabled=trace)
        self.telemetry = Telemetry(env, enabled=telemetry, interval_s=telemetry_interval_s)

    # -- trace exports ------------------------------------------------------

    def chrome_trace(self, indent: Optional[int] = None) -> str:
        """Chrome ``trace_event`` JSON for the recorded spans."""
        return chrome_trace_json(self.tracer, indent=indent)

    def breakdown(self, rank: Optional[int] = None) -> Dict[str, float]:
        """Per-layer critical-path seconds (all ranks, or one rank)."""
        return latency_breakdown(self.tracer, rank=rank)

    def breakdown_table(self, rank: Optional[int] = None) -> str:
        title = (
            "Per-layer latency breakdown"
            if rank is None
            else f"Per-layer latency breakdown (rank {rank})"
        )
        return render_breakdown(self.breakdown(rank=rank), title=title)

    def critical_path(self) -> str:
        """Report on what bounded the slowest rank's read-call time."""
        return critical_path_report(self.tracer)

    def spans(self, kind: Optional[str] = None) -> List:
        return self.tracer.by_kind(kind) if kind else list(self.tracer.spans)

    # -- telemetry exports ---------------------------------------------------

    def prometheus(self) -> str:
        """Current metric state in Prometheus text exposition format."""
        return prometheus_text(self.telemetry)

    def telemetry_csv(self) -> str:
        """Sampled time series as CSV rows."""
        return timeseries_csv(self.telemetry)

    def telemetry_jsonl(self) -> str:
        """Sampled time series as JSON Lines."""
        return timeseries_jsonl(self.telemetry)

    def heatmap(self, family: str = "disk_busy_seconds", **kwargs) -> str:
        """ASCII utilization heatmap of a busy-seconds family."""
        return utilization_heatmap(self.telemetry, family, **kwargs)

    def timeline(self, family: str = "disk_busy_seconds", **kwargs) -> str:
        """ASCII utilization line chart of a busy-seconds family."""
        return utilization_timeline(self.telemetry, family, **kwargs)

    def __repr__(self) -> str:
        return f"<Observability tracer={self.tracer!r} telemetry={self.telemetry!r}>"
