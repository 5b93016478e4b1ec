"""The run's counter registry and the bottleneck report built beside it.

Models report into a :class:`Monitor` through named
:class:`CounterStat`\\ s -- monotonically increasing counts (requests
issued, cache hits, bytes moved).  Every component holds a monitor:
the machine's :class:`~repro.obs.observability.Observability` (itself a
Monitor), or the shared no-op :data:`NULL_MONITOR` when built
standalone, so instrumented code never checks for ``None``.

:class:`BottleneckReport` answers which resource saturated a run; it is
built by :meth:`repro.machine.Machine.bottleneck_report` from the
components' busy-seconds fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment

#: A resource busier than this fraction of the run counts as saturated.
SATURATED_FRACTION = 0.90
#: A resource at most this busy counts as idle.
IDLE_FRACTION = 0.10


class CounterStat:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount

    def __repr__(self) -> str:
        return f"<CounterStat {self.name}={self.value}>"


class Monitor:
    """Registry of named counters for one simulation run."""

    def __init__(self, env: Optional["Environment"] = None) -> None:
        self.env = env
        self._counters: Dict[str, CounterStat] = {}

    def counter(self, name: str) -> CounterStat:
        stat = self._counters.get(name)
        if stat is None:
            stat = self._counters[name] = CounterStat(name)
        return stat

    def counter_value(self, name: str) -> float:
        stat = self._counters.get(name)
        return stat.value if stat is not None else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Flat snapshot of every counter, keyed ``counter.<name>``."""
        return {f"counter.{name}": c.value for name, c in self._counters.items()}


class _NullCounter:
    """Accepts every increment and records nothing."""

    __slots__ = ()

    def add(self, amount: float = 1.0) -> None:
        pass


NULL_COUNTER = _NullCounter()


class _NullMonitor(Monitor):
    """A monitor whose counters are all :data:`NULL_COUNTER`."""

    def counter(self, name: str) -> CounterStat:
        return NULL_COUNTER  # type: ignore[return-value]


#: Shared no-op monitor for components built without a machine.
NULL_MONITOR = _NullMonitor()


@dataclass
class BottleneckReport:
    """Which resource class saturated (and which sat idle) during a run.

    ``by_family`` maps a display name ("disk", "mesh link", ...) to each
    instance's busy fraction over the run.  ``resource``/``utilization``
    name the single busiest instance -- the resource that bounds the
    collective bandwidth when its fraction approaches 1.0.
    """

    resource: str
    utilization: float
    elapsed_s: float
    by_family: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @classmethod
    def from_busy_seconds(
        cls, busy: Mapping[str, Mapping[str, float]], elapsed_s: float
    ) -> Optional["BottleneckReport"]:
        """Build the report from busy-seconds per family and instance.

        Each value is busy-seconds normalised to one unit of capacity,
        so ``value / elapsed_s`` is the busy fraction in [0, 1].  The
        busiest instance wins; ties go to the larger name.  Returns
        ``None`` for a zero-duration run or when every family is empty.
        """
        if elapsed_s <= 0:
            return None
        by_family: Dict[str, Dict[str, float]] = {}
        best: Optional[Tuple[float, str]] = None
        for display, members in busy.items():
            if not members:
                continue
            fractions: Dict[str, float] = {}
            for name in sorted(members):
                fraction = max(0.0, min(1.0, members[name] / elapsed_s))
                fractions[name] = fraction
                candidate = (fraction, f"{display} {name}")
                if best is None or candidate > best:
                    best = candidate
            by_family[display] = fractions
        if best is None:
            return None
        return cls(resource=best[1], utilization=best[0], elapsed_s=elapsed_s, by_family=by_family)

    @property
    def saturated(self) -> List[str]:
        return [
            f"{family} {name}"
            for family, members in self.by_family.items()
            for name, frac in sorted(members.items())
            if frac >= SATURATED_FRACTION
        ]

    @property
    def idle(self) -> List[str]:
        return [
            f"{family} {name}"
            for family, members in self.by_family.items()
            for name, frac in sorted(members.items())
            if frac <= IDLE_FRACTION
        ]

    def describe(self) -> str:
        lines = [
            f"bottleneck: {self.resource} at {self.utilization:.0%} busy "
            f"over {self.elapsed_s:.4g}s sim-time"
        ]
        for family, members in self.by_family.items():
            if not members:
                continue
            fractions = list(members.values())
            peak = max(fractions)
            n_sat = sum(1 for f in fractions if f >= SATURATED_FRACTION)
            if n_sat:
                detail = f"{n_sat}/{len(fractions)} saturated (>{SATURATED_FRACTION:.0%})"
            elif peak <= IDLE_FRACTION:
                detail = f"all {len(fractions)} idle (<{IDLE_FRACTION:.0%})"
            else:
                detail = f"{len(fractions)} active"
            lines.append(f"  {family}: {detail}, peak {peak:.0%}")
        return "\n".join(lines)

    def to_jsonable(self) -> dict:
        return {
            "resource": self.resource,
            "utilization": round(self.utilization, 6),
            "elapsed_s": round(self.elapsed_s, 9),
            "saturated": self.saturated,
            "idle": self.idle,
            "by_family": {
                family: {name: round(frac, 6) for name, frac in sorted(members.items())}
                for family, members in self.by_family.items()
            },
        }
