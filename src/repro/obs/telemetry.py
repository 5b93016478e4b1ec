"""Fleet-wide telemetry: labeled metrics, probes, and a simulated-time sampler.

The tracer (PR 1) answers "where did *this* read's time go"; telemetry
answers "which resource filled up first as the run progressed" -- the
question behind the paper's 160->224 KB crossover.  Three pieces:

- :class:`MetricRegistry` -- Prometheus-shaped metric families
  (:class:`CounterMetric`, :class:`GaugeMetric`, :class:`HistogramMetric`
  with fixed bucket bounds), each fanned out over label sets.
- Probes -- zero-argument callables registered per labeled series
  (``lambda: raid.busy_s``).  Components own plain floats/ints; telemetry
  reads them, so the hot path never pays a method call when disabled.
- :class:`Telemetry` -- the facade on ``machine.obs``.  When enabled it
  installs an :class:`~repro.sim.environment.Environment` *tick hook* and
  snapshots every probe into a time series at a fixed simulated-time
  cadence.

Why a tick hook and not a sampler *process*: the machine's event loop
runs until the queue is empty, so a perpetual ``while True: yield
timeout`` sampler would keep the run alive forever.  A hook observes the
clock after each processed event and never schedules anything -- which
also makes the bit-identical guarantee structural: an enabled run cannot
perturb the event queue because it never touches it.

The contract mirrors tracing exactly: zero overhead when disabled
(components accumulate the same plain counters either way; probes are
simply never registered) and bit-identical :class:`BandwidthReport`\\ s
when enabled (asserted in ``tests/test_obs_telemetry.py``).
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Mapping, Optional, Tuple

#: Canonical label encoding: sorted ``(key, value)`` pairs.
LabelsKey = Tuple[Tuple[str, str], ...]

#: Default histogram bounds for simulated-time durations (seconds).
#: Spans 0.1 ms (a memcpy) to 2.5 s (a saturated collective read call).
DEFAULT_TIME_BUCKETS_S: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)


def labels_key(labels: Optional[Mapping[str, str]]) -> LabelsKey:
    """Canonicalise a labels mapping into a hashable, sorted key."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class CounterMetric:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


class GaugeMetric:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class HistogramMetric:
    """Fixed-bound cumulative-bucket histogram (Prometheus semantics).

    ``counts[i]`` is the number of observations ``<= bounds[i]``; the
    final slot counts the ``+Inf`` overflow.  ``sum``/``count`` allow
    mean recovery.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[int]:
        """Cumulative bucket counts, the way Prometheus exposes them."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


class _NullMetric:
    """Accepts every metric operation and records nothing.

    Returned by a disabled :class:`Telemetry` so instrumented components
    can hold one unconditional reference (``self._hist.observe(dt)``)
    with near-zero cost and no branches.
    """

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_METRIC = _NullMetric()


class MetricFamily:
    """One named metric fanned out over label sets."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.children: Dict[LabelsKey, object] = {}

    def child(self, labels: Optional[Mapping[str, str]] = None):
        key = labels_key(labels)
        metric = self.children.get(key)
        if metric is None:
            if self.kind == "counter":
                metric = CounterMetric()
            elif self.kind == "gauge":
                metric = GaugeMetric()
            elif self.kind == "histogram":
                metric = HistogramMetric(self.buckets or DEFAULT_TIME_BUCKETS_S)
            else:  # pragma: no cover - kinds are fixed at creation
                raise ValueError(f"unknown metric kind {self.kind!r}")
            self.children[key] = metric
        return metric


class MetricRegistry:
    """Registry of metric families, keyed and exported in creation order."""

    def __init__(self) -> None:
        self.families: Dict[str, MetricFamily] = {}

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> MetricFamily:
        family = self.families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help=help, buckets=buckets)
            self.families[name] = family
        elif family.kind != kind:
            raise ValueError(f"metric {name!r} already registered as {family.kind}, not {kind}")
        return family

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None, help: str = ""
    ) -> CounterMetric:
        return self._family(name, "counter", help).child(labels)

    def gauge(
        self, name: str, labels: Optional[Mapping[str, str]] = None, help: str = ""
    ) -> GaugeMetric:
        return self._family(name, "gauge", help).child(labels)

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS_S,
    ) -> HistogramMetric:
        return self._family(name, "histogram", help, buckets=buckets).child(labels)


class Probe:
    """A registered resource observable: ``fn()`` -> current value."""

    __slots__ = ("name", "labels", "fn", "kind")

    def __init__(self, name: str, labels: LabelsKey, fn: Callable[[], float], kind: str):
        self.name = name
        self.labels = labels
        self.fn = fn
        self.kind = kind


class Telemetry:
    """Metric registry + probe set + simulated-time sampler.

    Parameters
    ----------
    env:
        The simulation environment (may be ``None`` for a registry used
        outside a simulation, e.g. in exporter tests).
    enabled:
        Off by default.  When off, every metric factory returns the
        shared :data:`NULL_METRIC` and probe registration is a no-op, so
        the instrumented hot paths cost one attribute load.
    interval_s:
        Sampler cadence in *simulated* seconds.  Samples are taken at
        the first processed event at-or-after each due time, so the
        spacing is at least ``interval_s`` (event-time resolution, not
        wall-clock).
    """

    def __init__(
        self,
        env=None,
        enabled: bool = False,
        interval_s: float = 0.05,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.env = env
        self.enabled = bool(enabled)
        self.interval_s = float(interval_s)
        self.registry = MetricRegistry()
        self._probes: Dict[Tuple[str, LabelsKey], Probe] = {}
        #: (name, labels) -> [(sim_time, value), ...]
        self.samples: Dict[Tuple[str, LabelsKey], List[Tuple[float, float]]] = {}
        self.sample_times: List[float] = []
        self._next_due = 0.0
        if self.enabled and env is not None:
            env.add_tick_hook(self._on_tick)

    def __bool__(self) -> bool:
        return self.enabled

    # -- metric factories (NULL_METRIC when disabled) -----------------------

    def counter(self, name, labels=None, help=""):
        if not self.enabled:
            return NULL_METRIC
        return self.registry.counter(name, labels, help=help)

    def gauge(self, name, labels=None, help=""):
        if not self.enabled:
            return NULL_METRIC
        return self.registry.gauge(name, labels, help=help)

    def histogram(self, name, labels=None, help="", buckets=DEFAULT_TIME_BUCKETS_S):
        if not self.enabled:
            return NULL_METRIC
        return self.registry.histogram(name, labels, help=help, buckets=buckets)

    # -- probes -------------------------------------------------------------

    def register_probe(
        self,
        name: str,
        fn: Callable[[], float],
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
        kind: str = "gauge",
    ) -> None:
        """Register ``fn`` as the source of the labeled series *name*.

        ``kind`` is ``"gauge"`` for instantaneous levels (queue depth,
        occupancy) or ``"counter"`` for monotonic accumulations
        (busy-seconds, bytes read).  Re-registering the same
        (name, labels) replaces the probe -- re-opened handles refresh
        their probes instead of leaking stale closures.
        """
        if not self.enabled:
            return
        if kind not in ("gauge", "counter"):
            raise ValueError(f"probe kind must be gauge or counter, got {kind!r}")
        key = labels_key(labels)
        self.registry._family(name, kind, help).child(labels)
        self._probes[(name, key)] = Probe(name, key, fn, kind)

    def refresh_probes(self) -> None:
        """Push every probe's current value into its registry metric.

        Called before point-in-time exports (the Prometheus snapshot)
        so gauges reflect *now*, not the last sample.
        """
        for probe in self._probes.values():
            metric = self.registry.families[probe.name].child(dict(probe.labels))
            metric.value = float(probe.fn())

    # -- sampling -----------------------------------------------------------

    def _on_tick(self, now: float) -> None:
        if not self.enabled:
            # Defensive: the hook is only ever installed when enabled
            # (see __init__), so this cannot fire on a disabled run --
            # but sampling from a stray hook would silently tax every
            # event pop, so guard it structurally anyway.  The
            # zero-overhead contract (env._tick_hooks stays empty when
            # telemetry is off) is asserted in
            # tests/test_kernel_perf_safety.py.
            return
        if now < self._next_due and self.sample_times:
            return
        self.sample(now)

    def sample(self, now: Optional[float] = None) -> None:
        """Take one snapshot of every probe and scalar metric at *now*.

        Idempotent per timestamp: a second call at the same (or earlier)
        simulated time is a no-op, so :meth:`finalize` after the run and
        a tick-hook sample at the final event do not duplicate rows.
        """
        if now is None:
            now = self.env.now if self.env is not None else 0.0
        if self.sample_times and now <= self.sample_times[-1]:
            return
        for probe in self._probes.values():
            value = float(probe.fn())
            metric = self.registry.families[probe.name].child(dict(probe.labels))
            metric.value = value
            self.samples.setdefault((probe.name, probe.labels), []).append((now, value))
        for family in self.registry.families.values():
            if family.kind == "histogram":
                continue
            for labels, metric in family.children.items():
                key = (family.name, labels)
                if (family.name, labels) in self._probes:
                    continue  # already sampled above, fresh from the probe
                self.samples.setdefault(key, []).append((now, metric.value))
        self.sample_times.append(now)
        self._next_due = now + self.interval_s

    def finalize(self) -> None:
        """Capture the end-of-run state as the last sample.

        Handles the degenerate cases the sampler alone would miss: a
        zero-duration run (no events -> no ticks) still gets one sample
        at t=0, and an interval longer than the run still ends with the
        final resource state on record.
        """
        if self.enabled:
            self.sample()

    # -- queries ------------------------------------------------------------

    def series(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> List[Tuple[float, float]]:
        """The sampled ``(time, value)`` series for one labeled metric."""
        return self.samples.get((name, labels_key(labels)), [])

    def series_by_name(self, name: str) -> Dict[LabelsKey, List[Tuple[float, float]]]:
        """All sampled series of family *name*, keyed by label set."""
        return {labels: pts for (fam, labels), pts in self.samples.items() if fam == name}

    @property
    def n_samples(self) -> int:
        return len(self.sample_times)

    @property
    def elapsed_s(self) -> float:
        """Simulated span covered by samples (0.0 if fewer than one)."""
        if not self.sample_times:
            return 0.0
        return self.sample_times[-1] - self.sample_times[0]

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"<Telemetry {state} families={len(self.registry.families)} "
            f"probes={len(self._probes)} samples={self.n_samples}>"
        )


#: Shared disabled instance for components constructed without a monitor.
NULL_TELEMETRY = Telemetry(env=None, enabled=False)


def get_telemetry(monitor) -> Telemetry:
    """Resolve the telemetry handle from a monitor-ish object.

    Mirrors :func:`repro.obs.trace.get_tracer`: components take one
    ``monitor=`` parameter; if it is an
    :class:`~repro.obs.observability.Observability` (or anything else
    carrying a ``telemetry`` attribute) the live handle is returned,
    otherwise the shared :data:`NULL_TELEMETRY`.
    """
    telemetry = getattr(monitor, "telemetry", None)
    if isinstance(telemetry, Telemetry):
        return telemetry
    return NULL_TELEMETRY
