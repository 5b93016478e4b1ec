"""Aggregate statistics: counters, time-weighted signals, sample series.

Models register named statistics on a :class:`Monitor`:

- :class:`CounterStat` -- monotonically increasing counts (requests issued,
  cache hits, bytes moved).
- :class:`TimeWeightedStat` -- piecewise-constant values integrated over
  simulated time (queue lengths, utilisation).
- :class:`SeriesStat` -- raw samples (latencies) with summary statistics.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


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


class TimeWeightedStat:
    """Time-weighted average of a piecewise-constant signal."""

    __slots__ = ("name", "env", "_value", "_last_change", "_area", "_start", "_max")

    def __init__(self, env: "Environment", name: str, initial: float = 0.0) -> None:
        self.env = env
        self.name = name
        self._value = initial
        self._last_change = env.now
        self._start = env.now
        self._area = 0.0
        self._max = initial

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        now = self.env.now
        self._area += self._value * (now - self._last_change)
        self._last_change = now
        self._value = value
        if value > self._max:
            self._max = value

    def adjust(self, delta: float) -> None:
        self.set(self._value + delta)

    @property
    def maximum(self) -> float:
        return self._max

    def mean(self) -> float:
        """Time-weighted mean from creation to now.

        Degenerate window: when queried at the instant the stat was
        created (``env.now == start``, zero elapsed time) there is no
        interval to integrate over, so the mean is *defined* as the
        current value -- the limit of the time-weighted mean as the
        window shrinks to zero, since only the latest value has any
        weight going forward.  Values set and overwritten within the
        zero-width window carry no weight.
        """
        now = self.env.now
        total = now - self._start
        if total == 0:
            # Explicit degenerate-window definition (see docstring); not
            # a float accident.
            return self._value
        area = self._area + self._value * (now - self._last_change)
        return area / total

    def __repr__(self) -> str:
        return f"<TimeWeightedStat {self.name}={self._value} mean={self.mean():.4g}>"


class SeriesStat:
    """Collects raw samples and offers summary statistics."""

    __slots__ = ("name", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[float] = []

    def record(self, sample: float) -> None:
        self.samples.append(sample)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else math.nan

    def minimum(self) -> float:
        return min(self.samples) if self.samples else math.nan

    def maximum(self) -> float:
        return max(self.samples) if self.samples else math.nan

    def stdev(self) -> float:
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean()
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples) / (n - 1))

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile, q in [0, 100]."""
        if not self.samples:
            return math.nan
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        data = sorted(self.samples)
        if len(data) == 1:
            return data[0]
        pos = (len(data) - 1) * q / 100.0
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        if lo == hi:
            return data[lo]
        frac = pos - lo
        return data[lo] * (1 - frac) + data[hi] * frac

    def __repr__(self) -> str:
        return f"<SeriesStat {self.name} n={self.count} mean={self.mean():.4g}>"


class Monitor:
    """Registry of named statistics for one simulation run."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._counters: Dict[str, CounterStat] = {}
        self._weighted: Dict[str, TimeWeightedStat] = {}
        self._series: Dict[str, SeriesStat] = {}

    def counter(self, name: str) -> CounterStat:
        stat = self._counters.get(name)
        if stat is None:
            stat = self._counters[name] = CounterStat(name)
        return stat

    def time_weighted(self, name: str, initial: float = 0.0) -> TimeWeightedStat:
        stat = self._weighted.get(name)
        if stat is None:
            stat = self._weighted[name] = TimeWeightedStat(self.env, name, initial)
        return stat

    def series(self, name: str) -> SeriesStat:
        stat = self._series.get(name)
        if stat is None:
            stat = self._series[name] = SeriesStat(name)
        return stat

    def counter_value(self, name: str) -> float:
        stat = self._counters.get(name)
        return stat.value if stat is not None else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Flat snapshot of every statistic's headline value."""
        out: Dict[str, float] = {}
        for name, c in self._counters.items():
            out[f"counter.{name}"] = c.value
        for name, w in self._weighted.items():
            out[f"tw.{name}.mean"] = w.mean()
            out[f"tw.{name}.max"] = w.maximum
        for name, s in self._series.items():
            out[f"series.{name}.count"] = s.count
            out[f"series.{name}.mean"] = s.mean()
        return out
