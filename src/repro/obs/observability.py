"""The single observability handle a :class:`~repro.machine.Machine` owns.

:class:`Observability` *is* the run's counter registry (a
:class:`~repro.obs.monitor.Monitor`) and also carries the request tracer
(:class:`~repro.obs.trace.Tracer`).  Components throughout the stack
take one ``monitor=`` constructor argument; handed an ``Observability``
they get counters *and* (via :func:`~repro.obs.trace.get_tracer`) the
tracer, with no wiring changes.
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
from repro.obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


class Observability(Monitor):
    """The counter registry plus a tracer -- one handle.

    On top of the :class:`~repro.obs.monitor.Monitor` counters:

    - :attr:`tracer` -- the request tracer (disabled unless
      ``trace=True``);
    - export conveniences (:meth:`chrome_trace`, :meth:`breakdown`,
      :meth:`breakdown_table`, :meth:`critical_path`).
    """

    def __init__(self, env: "Environment", trace: bool = False) -> None:
        super().__init__(env)
        self.tracer = Tracer(env, enabled=trace)

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

    def __repr__(self) -> str:
        return f"<Observability tracer={self.tracer!r}>"
