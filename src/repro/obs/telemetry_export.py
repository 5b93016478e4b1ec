"""Telemetry exporters: Prometheus text, CSV/JSONL time series, and ASCII
utilization charts.

All exporters are read-only over a :class:`~repro.obs.telemetry.Telemetry`
and can run at any point (they refresh probes themselves); none touch
simulation state.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence, Tuple

from repro.obs.telemetry import (
    HistogramMetric,
    LabelsKey,
    Telemetry,
)

#: Shade ramp for the heatmap, idle -> saturated.
HEATMAP_SHADES = " .:-=+*#%@"


# -- Prometheus text exposition ---------------------------------------------


def _fmt(value: float) -> str:
    """Prometheus-friendly number: integers bare, floats via repr-ish %g."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".10g")


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labels: LabelsKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(labels) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def prometheus_text(telemetry: Telemetry) -> str:
    """The registry as a Prometheus text-format snapshot.

    Probes are refreshed first, so gauges show the current simulated
    state.  Families render in creation order (instrumentation order:
    hardware up through the PFS layers).
    """
    telemetry.refresh_probes()
    lines: List[str] = []
    for family in telemetry.registry.families.values():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels in sorted(family.children):
            metric = family.children[labels]
            if isinstance(metric, HistogramMetric):
                cumulative = metric.cumulative()
                for bound, count in zip(metric.bounds, cumulative):
                    le = _label_str(labels, [("le", _fmt(bound))])
                    lines.append(f"{family.name}_bucket{le} {count}")
                le_inf = _label_str(labels, [("le", "+Inf")])
                lines.append(f"{family.name}_bucket{le_inf} {cumulative[-1]}")
                lines.append(f"{family.name}_sum{_label_str(labels)} {_fmt(metric.sum)}")
                lines.append(f"{family.name}_count{_label_str(labels)} {metric.count}")
            else:
                lines.append(f"{family.name}{_label_str(labels)} {_fmt(metric.value)}")
    return "\n".join(lines) + "\n"


# -- time-series dumps -------------------------------------------------------


def _sorted_sample_items(telemetry: Telemetry):
    return sorted(telemetry.samples.items(), key=lambda kv: kv[0])


def timeseries_csv(telemetry: Telemetry) -> str:
    """Every sampled series as CSV: ``time_s,metric,labels,value``."""
    lines = ["time_s,metric,labels,value"]
    for (name, labels), points in _sorted_sample_items(telemetry):
        label_text = ";".join(f"{k}={v}" for k, v in labels)
        for when, value in points:
            lines.append(f"{when:.9g},{name},{label_text},{_fmt(value)}")
    return "\n".join(lines) + "\n"


def timeseries_jsonl(telemetry: Telemetry) -> str:
    """Every sampled series as JSON Lines, one object per sample."""
    lines = []
    for (name, labels), points in _sorted_sample_items(telemetry):
        label_map = dict(labels)
        for when, value in points:
            lines.append(
                json.dumps(
                    {"t": round(when, 9), "metric": name,
                     "labels": label_map, "value": value},
                    sort_keys=True,
                )
            )
    return "\n".join(lines) + "\n"


# -- utilization derivation --------------------------------------------------


def _interpolate(points: List[Tuple[float, float]], at: float) -> float:
    """Linear interpolation on a sampled monotonic series, clamped at ends."""
    if not points:
        return 0.0
    if at <= points[0][0]:
        return points[0][1]
    if at >= points[-1][0]:
        return points[-1][1]
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        if t0 <= at <= t1:
            if t1 <= t0:
                return v1
            return v0 + (v1 - v0) * (at - t0) / (t1 - t0)
    return points[-1][1]  # pragma: no cover - loop above is exhaustive


def utilization_matrix(
    telemetry: Telemetry, family: str = "disk_busy_seconds", bins: int = 48
) -> Optional[Tuple[List[str], List[float], List[List[float]]]]:
    """Resample a busy-seconds family into per-bin busy fractions.

    Returns ``(instance_names, bin_mid_times, rows)`` where ``rows[i][j]``
    is instance i's busy fraction in time bin j, or ``None`` if the
    family has no sampled series or the run spans zero time.
    """
    series_map = telemetry.series_by_name(family)
    if not series_map:
        return None
    t0 = min(points[0][0] for points in series_map.values())
    t1 = max(points[-1][0] for points in series_map.values())
    if t1 <= t0:
        return None
    edges = [t0 + (t1 - t0) * i / bins for i in range(bins + 1)]
    names: List[str] = []
    rows: List[List[float]] = []
    for labels in sorted(series_map):
        points = series_map[labels]
        names.append(",".join(v for _k, v in labels) or family)
        row = []
        for lo, hi in zip(edges, edges[1:]):
            busy = _interpolate(points, hi) - _interpolate(points, lo)
            row.append(max(0.0, min(1.0, busy / (hi - lo))))
        rows.append(row)
    mids = [(lo + hi) / 2 for lo, hi in zip(edges, edges[1:])]
    return names, mids, rows


def utilization_heatmap(
    telemetry: Telemetry,
    family: str = "disk_busy_seconds",
    bins: int = 48,
    title: Optional[str] = None,
) -> str:
    """One shaded row per instance, one column per time bin.

    The shade ramp runs idle ``' '`` to saturated ``'@'``; a glance shows
    which devices pinned at 100% and when.
    """
    matrix = utilization_matrix(telemetry, family, bins=bins)
    header = title or f"{family} utilization heatmap"
    if matrix is None:
        return f"{header}\n(no samples for {family})"
    names, mids, rows = matrix
    width = max(len(n) for n in names)
    lines = [header]
    top = len(HEATMAP_SHADES) - 1
    for name, row in zip(names, rows):
        shades = "".join(HEATMAP_SHADES[min(top, int(value * top + 0.5))] for value in row)
        lines.append(f"{name.rjust(width)} |{shades}|")
    t0 = mids[0] - (mids[1] - mids[0]) / 2 if len(mids) > 1 else mids[0]
    t1 = mids[-1] + (mids[1] - mids[0]) / 2 if len(mids) > 1 else mids[-1]
    if abs(t0) < 1e-9:  # snap edge-reconstruction float noise to zero
        t0 = 0.0
    axis = f"t={t0:.4g}s".ljust(bins // 2) + f"t={t1:.4g}s".rjust(bins - bins // 2)
    lines.append(f"{' ' * width}  {axis}")
    lines.append(
        f"{' ' * width}  scale: ' '=0% " + " ".join(
            f"'{HEATMAP_SHADES[i]}'={100 * i // top}%" for i in (top // 2, top)
        )
    )
    return "\n".join(lines)


def utilization_timeline(
    telemetry: Telemetry,
    family: str = "disk_busy_seconds",
    bins: int = 32,
    title: Optional[str] = None,
    **plot_kwargs,
) -> str:
    """Per-instance busy-percent over time as an ASCII line chart."""
    # Imported lazily: experiments package pulls in machine/config layers.
    from repro.experiments.ascii_chart import plot_series

    matrix = utilization_matrix(telemetry, family, bins=bins)
    header = title or f"{family} utilization (% busy)"
    if matrix is None:
        return f"{header}\n(no samples for {family})"
    names, mids, rows = matrix
    series = {name: [100.0 * v for v in row] for name, row in zip(names, rows)}
    return plot_series(
        mids,
        series,
        title=header,
        x_label="sim time (s)",
        y_label="% busy",
        **plot_kwargs,
    )
