"""Mechanism-importance observatory: automated ablation harness.

The paper attributes its bandwidth to a stack of cooperating mechanisms
(one-request-ahead prefetch, Fast Path, UFS block coalescing, ART
queueing, LOOK disk scheduling, server readahead, the drive track
cache).  This module turns "which mechanism buys which megabyte?" into
an instrument:

- a declarative **mechanism registry** mapping each named mechanism onto
  the :class:`~repro.config.MachineConfig` / :class:`~repro.config.PFSConfig`
  knob that disables it, validated so the all-mechanisms-on configuration
  is a strict no-op against the bench3 golden fingerprints;
- a **baseline-plus-one-off run-set generator** with stable run IDs
  (``ablation:M_RECORD:64kb:off=track_cache``), executed per workload
  mode through the existing observability plane;
- a **ranked importance report** (per-cell and aggregate bandwidth
  deltas plus attribution from the always-on monitor counters: disk /
  SCSI utilization, track-cache and buffer-cache hit-rate shifts)
  emitted as ``BENCH_ablation.json`` with ASCII and Markdown renderers;
- a **regression tripwire** (``python -m repro.obs.ablation --check``)
  that diffs the current importance vector against a committed
  ``benchmarks/baseline_ablation.json`` and exits non-zero when any
  mechanism's importance collapses -- a refactor that silently
  disconnects a mechanism now fails in CI instead of shipping.

Attribution is read from the always-on monitor counters and
``machine.bottleneck_report()`` (the components' busy-seconds), so the
fast kernel stays engaged for the sweep.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import KB, MachineConfig, PFSConfig
from repro.hardware.params import HardwareParams

MB = 1024.0 * 1024.0

#: Workload modes the default sweep covers.  M_RECORD/M_SYNC/M_UNIX are
#: the paper's shared-file modes; M_ASYNC runs with overlapping readers
#: (no partition), the case that exercises the drive track cache.
DEFAULT_MODES = ("M_RECORD", "M_SYNC", "M_UNIX", "M_ASYNC")
#: Request sizes swept per mode: 64KB (the paper's block size), 256KB
#: (past the prefetch-gain knee), and 1024KB (each I/O node sees two
#: contiguous stripe units -- the case UFS coalescing can merge).
DEFAULT_SIZES_KB = (64, 256, 1024)
#: Rounds per rank per run (golden validation always uses 4 -- the
#: capture setting of ``tests/golden/bench3_fingerprints.json``).
DEFAULT_ROUNDS = 4
#: Computation delay between reads: the paper's "balanced workload"
#: middle ground where prefetch overlap actually matters.
DEFAULT_DELAY_S = 0.05

#: Tripwire defaults: a mechanism matters when its baseline importance
#: is >= MIN_IMPORTANCE; it has collapsed when its current importance
#: falls below baseline * COLLAPSE_RATIO and the drop exceeds ABS_TOL.
MIN_IMPORTANCE = 0.05
COLLAPSE_RATIO = 0.5
ABS_TOL = 0.02


class AblationError(Exception):
    """Raised for invalid registry entries, override paths, or reports."""


# -- mechanism registry -----------------------------------------------------


@dataclass(frozen=True)
class Mechanism:
    """One named mechanism and the config overrides that toggle it.

    Override keys are dotted paths over a run specification:

    - ``machine.<field>`` -- a :class:`MachineConfig` field;
    - ``machine.hardware.<group>.<field>`` -- a nested
      :class:`HardwareParams` field (e.g. the disk track cache);
    - ``pfs.<field>`` -- a :class:`PFSConfig` field;
    - ``workload.<field>`` -- a workload-level switch (``prefetch``).

    ``off`` disables the mechanism; ``on`` states it explicitly when the
    enabled state differs from the machine defaults; ``context`` names
    shared overrides applied to *both* sides of the comparison for
    mechanisms that are inert in the default configuration (server
    readahead only acts on buffered mounts, so its delta is measured on
    a buffered context rather than against the Fast Path baseline).
    Context mechanisms contribute nothing to the all-on baseline.
    """

    name: str
    title: str
    description: str
    off: Mapping[str, object]
    on: Mapping[str, object] = field(default_factory=dict)
    context: Mapping[str, object] = field(default_factory=dict)


MECHANISMS: Tuple[Mechanism, ...] = (
    Mechanism(
        name="prefetch",
        title="Client prefetching (one-request-ahead)",
        description=(
            "The paper's central mechanism: each rank keeps one request "
            "in flight ahead of the application, overlapping compute "
            "delay with I/O."
        ),
        off={"workload.prefetch": False},
        on={"workload.prefetch": True},
    ),
    Mechanism(
        name="fastpath",
        title="Fast Path (cache-bypass transfers)",
        description=(
            "Data moves directly between the disks and the reply "
            "message; off routes every block through the I/O-node "
            "buffer cache and pays a cache-to-message memcpy per byte."
        ),
        off={"pfs.buffered": True},
    ),
    Mechanism(
        name="ufs_coalesce",
        title="UFS block coalescing",
        description=(
            "Contiguous file-system blocks are coalesced into single "
            "disk requests; off issues one disk request per 64KB block."
        ),
        off={"machine.ufs_coalesce": False},
    ),
    Mechanism(
        name="art_queueing",
        title="ART request queueing",
        description=(
            "The async request thread pool lets each compute node keep "
            "several transfers in flight; off serialises them through a "
            "single thread."
        ),
        off={"machine.art_threads": 1},
    ),
    Mechanism(
        name="look_scheduling",
        title="LOOK disk scheduling",
        description=(
            "RAID arms serve queued requests nearest-first in the sweep "
            "direction; off dispatches in arrival order (FIFO)."
        ),
        off={"machine.disk_elevator": False},
    ),
    Mechanism(
        name="server_readahead",
        title="Server-side readahead",
        description=(
            "The I/O node pulls the next blocks of the stripe file into "
            "its cache after a buffered read -- the server-side "
            "alternative to client prefetching.  Inert on Fast Path "
            "mounts, so its delta is measured on a buffered context."
        ),
        context={"pfs.buffered": True},
        on={"machine.server_readahead_blocks": 4},
        off={"machine.server_readahead_blocks": 0},
    ),
    Mechanism(
        name="track_cache",
        title="Drive track cache",
        description=(
            "Requests falling inside the most recently transferred "
            "region are served from the drive buffer with no "
            "positioning cost; off zeroes the buffer."
        ),
        off={"machine.hardware.disk.track_cache_bytes": 0},
    ),
    Mechanism(
        name="stride_detection",
        title="Stride detection for prefetch prediction",
        description=(
            "Infers the access stride from the demand offsets so "
            "lseek-strided M_ASYNC streams are predicted correctly; off "
            "falls back to the (wrong) sequential mode arithmetic.  "
            "Measured under the depth-k policy on the strided family."
        ),
        context={"workload.family": "strided", "machine.prefetch_policy": "depth-k"},
        on={"machine.prefetch_stride_detect": True},
        off={"machine.prefetch_stride_detect": False},
    ),
)


def mechanism(name: str) -> Mechanism:
    """Registry lookup by name; raises :class:`AblationError` on miss."""
    for mech in MECHANISMS:
        if mech.name == name:
            return mech
    raise AblationError(
        f"unknown mechanism {name!r}; registry has "
        f"{', '.join(m.name for m in MECHANISMS)}"
    )


def baseline_overrides() -> Dict[str, object]:
    """The all-mechanisms-on override set (context mechanisms excluded).

    Every non-context mechanism contributes its ``on`` overrides; the
    result must resolve to the pure default configs plus the workload's
    prefetch switch -- :func:`validate_registry` enforces it.
    """
    merged: Dict[str, object] = {}
    for mech in MECHANISMS:
        if mech.context:
            continue
        merged.update(mech.on)
    return merged


# -- override resolution ----------------------------------------------------

#: Workload-level override fields: the prefetch on/off switch and the
#: workload family ("collective" = the paper's shared-file readers,
#: "strided" = the non-unit-stride M_ASYNC family the stride detector
#: is measured on).
_WORKLOAD_FIELDS = ("prefetch", "family")
_WORKLOAD_FAMILIES = ("collective", "strided")


def resolve_configs(
    overrides: Mapping[str, object],
    tie_break: str = "fifo",
) -> Tuple[MachineConfig, PFSConfig, Dict[str, object]]:
    """Resolve dotted-path overrides into concrete run configs.

    Returns ``(machine_config, pfs_config, workload_kwargs)`` where the
    workload kwargs carry ``prefetch`` and ``family``.  Unknown paths or
    fields raise :class:`AblationError` at resolution time, so a
    registry entry pointing at a renamed knob fails loudly instead of
    silently measuring nothing.
    """
    machine_kw: Dict[str, object] = {}
    hardware_kw: Dict[str, Dict[str, object]] = {}
    pfs_kw: Dict[str, object] = {}
    workload: Dict[str, object] = {"prefetch": True, "family": "collective"}

    machine_fields = {f.name for f in dataclasses.fields(MachineConfig)}
    pfs_fields = {f.name for f in dataclasses.fields(PFSConfig)}
    hw_groups = {f.name: f for f in dataclasses.fields(HardwareParams)}

    for path in sorted(overrides):
        value = overrides[path]
        parts = path.split(".")
        if parts[0] == "machine" and len(parts) == 2:
            if parts[1] not in machine_fields or parts[1] == "hardware":
                raise AblationError(f"unknown MachineConfig field in {path!r}")
            machine_kw[parts[1]] = value
        elif parts[:2] == ["machine", "hardware"] and len(parts) == 4:
            group, fname = parts[2], parts[3]
            if group not in hw_groups:
                raise AblationError(f"unknown hardware group in {path!r}")
            group_type = type(getattr(HardwareParams(), group))
            if fname not in {f.name for f in dataclasses.fields(group_type)}:
                raise AblationError(f"unknown {group} field in {path!r}")
            hardware_kw.setdefault(group, {})[fname] = value
        elif parts[0] == "pfs" and len(parts) == 2:
            if parts[1] not in pfs_fields:
                raise AblationError(f"unknown PFSConfig field in {path!r}")
            pfs_kw[parts[1]] = value
        elif parts[0] == "workload" and len(parts) == 2:
            if parts[1] not in _WORKLOAD_FIELDS:
                raise AblationError(f"unknown workload field in {path!r}")
            if parts[1] == "family" and value not in _WORKLOAD_FAMILIES:
                raise AblationError(
                    f"unknown workload family {value!r}; known: "
                    f"{', '.join(_WORKLOAD_FAMILIES)}"
                )
            workload[parts[1]] = value
        else:
            raise AblationError(f"unresolvable override path {path!r}")

    hardware = HardwareParams()
    if hardware_kw:
        hardware = dataclasses.replace(
            hardware,
            **{
                group: dataclasses.replace(getattr(hardware, group), **fields)
                for group, fields in hardware_kw.items()
            },
        )
        machine_kw["hardware"] = hardware
    machine_cfg = MachineConfig(tie_break=tie_break, **machine_kw)
    pfs_cfg = PFSConfig(**pfs_kw)
    return machine_cfg, pfs_cfg, workload


# -- run-set generation -----------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One run of the sweep: a workload cell under one override set."""

    run_id: str
    mode: str
    request_kb: int
    #: "baseline", "on" (context mechanism enabled), or "off".
    role: str
    mechanism: Optional[str]
    overrides: Tuple[Tuple[str, object], ...]

    @property
    def signature(self) -> str:
        """Canonical signature of the *resolved* configuration.

        Built from the resolved configs rather than the raw override
        paths so runs that spell the same machine differently (e.g. an
        explicit ``server_readahead_blocks: 0`` vs the default) dedupe
        to one simulation.
        """
        machine_cfg, pfs_cfg, workload = resolve_configs(dict(self.overrides))
        return repr((self.mode, self.request_kb, machine_cfg, pfs_cfg, sorted(workload.items())))


def _canon(overrides: Mapping[str, object]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted(overrides.items()))


def generate_runs(
    modes: Sequence[str] = DEFAULT_MODES,
    sizes_kb: Sequence[int] = DEFAULT_SIZES_KB,
) -> List[RunSpec]:
    """Baseline-plus-one-off run set with stable IDs.

    Per (mode, size): one all-on baseline, one ``off=<name>`` run per
    default-on mechanism, and an ``ctx=<name>:{on,off}`` pair per
    context mechanism.  IDs are stable across releases -- they key the
    committed baseline the tripwire diffs against.
    """
    base = baseline_overrides()
    runs: List[RunSpec] = []
    for mode in modes:
        for kb in sizes_kb:
            prefix = f"ablation:{mode}:{kb}kb"
            runs.append(
                RunSpec(f"{prefix}:baseline", mode, kb, "baseline", None, _canon(base))
            )
            for mech in MECHANISMS:
                if mech.context:
                    on_ov = {**base, **mech.context, **mech.on}
                    off_ov = {**base, **mech.context, **mech.off}
                    runs.append(
                        RunSpec(
                            f"{prefix}:ctx={mech.name}:on",
                            mode, kb, "on", mech.name, _canon(on_ov),
                        )
                    )
                    runs.append(
                        RunSpec(
                            f"{prefix}:ctx={mech.name}:off",
                            mode, kb, "off", mech.name, _canon(off_ov),
                        )
                    )
                else:
                    off_ov = {**base, **mech.off}
                    runs.append(
                        RunSpec(
                            f"{prefix}:off={mech.name}",
                            mode, kb, "off", mech.name, _canon(off_ov),
                        )
                    )
    return runs


# -- execution --------------------------------------------------------------


def _round(value: float, places: int = 4) -> float:
    return round(value, places)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _attribution(machine, report) -> Dict[str, object]:
    """Per-run attribution from the always-on observability plane."""
    bottleneck = machine.bottleneck_report()
    disk: List[float] = []
    scsi: List[float] = []
    cpu: List[float] = []
    if bottleneck is not None:
        util = bottleneck.by_family
        disk = [util["disk"][array.name] for array in machine.arrays]
        scsi = [util["scsi bus"][bus.name] for bus in machine.buses]
        cpu = [util["cpu"][str(node.node_id)] for node in machine.compute_nodes]
    mon = machine.monitor
    n_io = machine.config.n_io
    disk_reads = sum(mon.counter_value(f"raid{i}.reads") for i in range(n_io))
    track_hits = sum(
        mon.counter_value(f"raid{i}.track_cache_hits") for i in range(n_io)
    )
    sequential = sum(
        mon.counter_value(f"raid{i}.sequential_hits") for i in range(n_io)
    )
    cache_hits = sum(c.counts.get("hits", 0) for c in machine.caches)
    cache_misses = sum(
        c.counts.get("misses", 0) + c.counts.get("collapsed_misses", 0)
        for c in machine.caches
    )
    record: Dict[str, object] = {
        "bottleneck": bottleneck.resource if bottleneck is not None else None,
        "disk_util_mean": _round(_mean(disk)),
        "disk_util_max": _round(max(disk) if disk else 0.0),
        "scsi_util_mean": _round(_mean(scsi)),
        "cpu_util_mean": _round(_mean(cpu)),
        "disk_reads": int(disk_reads),
        "track_cache_hits": int(track_hits),
        "sequential_hits": int(sequential),
        "cache_hits": int(cache_hits),
        "cache_misses": int(cache_misses),
    }
    if report.prefetch is not None:
        stats = report.prefetch
        record["prefetch"] = {
            "hits": stats.hits,
            "partial_hits": stats.partial_hits,
            "misses": stats.misses,
            "issued": stats.issued,
        }
    return record


def execute_run(
    spec: RunSpec,
    rounds: int = DEFAULT_ROUNDS,
    compute_delay: float = DEFAULT_DELAY_S,
    tie_break: str = "fifo",
) -> Dict[str, object]:
    """Execute one run on a fresh machine; returns the run record."""
    from repro.machine import Machine
    from repro.pfs import IOMode
    from repro.workloads import CollectiveReadWorkload, StridedReadWorkload

    machine_cfg, pfs_cfg, workload_kw = resolve_configs(dict(spec.overrides), tie_break=tie_break)
    machine = Machine(machine_cfg)
    mount = machine.mount("/pfs", pfs_cfg)
    request = spec.request_kb * KB
    # The prefetcher factory routes through the machine's own policy
    # knobs; with the default knobs this builds exactly the
    # paper's prototype (proven against the golden fingerprints by
    # validate_registry).
    factory = machine.build_prefetcher if workload_kw["prefetch"] else None
    if workload_kw["family"] == "strided":
        # Non-unit-stride M_ASYNC readers: stride of 3 requests (an odd
        # unit step walks all I/O nodes instead of beating on a subset).
        stride = 3 * request
        file_size = stride * machine_cfg.n_compute * rounds
        machine.create_file(mount, "data", file_size)
        workload = StridedReadWorkload(
            machine,
            mount,
            "data",
            request_size=request,
            stride=stride,
            compute_delay=compute_delay,
            rounds=rounds,
            prefetcher_factory=factory,
        )
    else:
        file_size = request * machine_cfg.n_compute * rounds
        machine.create_file(mount, "data", file_size)
        workload = CollectiveReadWorkload(
            machine,
            mount,
            "data",
            request_size=request,
            compute_delay=compute_delay,
            iomode=IOMode[spec.mode],
            rounds=rounds,
            prefetcher_factory=factory,
            # M_ASYNC runs unpartitioned: every rank walks the same region
            # with its private pointer, the overlapping-readers case the
            # drive track cache exists for.
            async_partition=spec.mode != "M_ASYNC",
        )
    report = workload.run().report
    record: Dict[str, object] = {
        "run_id": spec.run_id,
        "mode": spec.mode,
        "request_kb": spec.request_kb,
        "role": spec.role,
        "mechanism": spec.mechanism,
        "overrides": {k: v for k, v in spec.overrides},
        "bandwidth_mbps": _round(report.collective_bandwidth_mbps),
        "mean_read_access_s": _round(report.mean_read_access_time_s, 6),
        "total_bytes": report.total_bytes,
        "attribution": _attribution(machine, report),
    }
    return record


def execute_runs(
    runs: Sequence[RunSpec],
    rounds: int = DEFAULT_ROUNDS,
    compute_delay: float = DEFAULT_DELAY_S,
    tie_break: str = "fifo",
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Dict[str, object]]:
    """Execute a run set; returns ``{run_id: record}``.

    Runs whose override signatures coincide (e.g. the buffered baseline
    shared by ``fastpath`` off and ``server_readahead``'s context-off
    leg) are simulated once and recorded under each ID with
    ``deduped_from`` naming the executed twin.
    """
    records: Dict[str, Dict[str, object]] = {}
    memo: Dict[str, str] = {}
    for spec in runs:
        twin = memo.get(spec.signature)
        if twin is not None:
            record = dict(records[twin])
            record.update(
                run_id=spec.run_id,
                role=spec.role,
                mechanism=spec.mechanism,
                deduped_from=twin,
            )
            records[spec.run_id] = record
            continue
        if progress is not None:
            progress(spec.run_id)
        records[spec.run_id] = execute_run(
            spec,
            rounds=rounds,
            compute_delay=compute_delay,
            tie_break=tie_break,
        )
        memo[spec.signature] = spec.run_id
    return records


# -- registry validation ----------------------------------------------------

_GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parents[3]
    / "tests"
    / "golden"
    / "bench3_fingerprints.json"
)


def _golden_cell_report(
    size_kb: int, prefetch: bool, iomode: str = "M_RECORD", async_partition: bool = True
):
    """Run one bench3 golden cell through the registry-resolved baseline.

    Mirrors the capture settings of ``tests/golden/bench3_fingerprints.json``
    exactly (rounds=4, no compute delay) but goes through
    :func:`resolve_configs`, so a match proves the registry's all-on
    assembly *and* this harness's run plumbing are both no-ops.
    """
    from repro.machine import Machine
    from repro.pfs import IOMode
    from repro.workloads import CollectiveReadWorkload

    overrides = dict(baseline_overrides())
    overrides["workload.prefetch"] = prefetch
    machine_cfg, pfs_cfg, workload_kw = resolve_configs(overrides)
    machine = Machine(machine_cfg)
    mount = machine.mount("/pfs", pfs_cfg)
    request = size_kb * KB
    machine.create_file(mount, "data", request * machine_cfg.n_compute * 4)
    # Routed through Machine.build_prefetcher so a golden match also
    # proves the config-driven policy plumbing is a no-op by default.
    factory = machine.build_prefetcher if workload_kw["prefetch"] else None
    workload = CollectiveReadWorkload(
        machine,
        mount,
        "data",
        request_size=request,
        iomode=IOMode[iomode],
        rounds=4,
        prefetcher_factory=factory,
        async_partition=async_partition,
    )
    return workload.run().report


#: Golden cells re-derived by validation: (golden key, cell kwargs).
GOLDEN_VALIDATION_CELLS: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("table1:64kb:prefetch=True", {"size_kb": 64, "prefetch": True}),
    ("table1:64kb:prefetch=False", {"size_kb": 64, "prefetch": False}),
    ("table1:256kb:prefetch=True", {"size_kb": 256, "prefetch": True}),
    (
        "figure2:64kb:M_UNIX",
        {"size_kb": 64, "prefetch": False, "iomode": "M_UNIX", "async_partition": False},
    ),
)


def validate_registry(golden: bool = True) -> Dict[str, object]:
    """Prove the registry is sound; raises :class:`AblationError` if not.

    Structural checks: the merged all-on override set resolves to the
    pure default :class:`MachineConfig` / :class:`PFSConfig` (a registry
    entry whose ``on`` state drifted from the defaults would silently
    re-baseline every delta), and every mechanism's on/off/context
    overrides resolve to real config fields.

    With ``golden=True`` (requires a repo checkout), the registry-built
    baseline additionally re-runs the bench3 golden cells and must match
    their committed fingerprints bit-for-bit.
    """
    machine_cfg, pfs_cfg, workload_kw = resolve_configs(baseline_overrides())
    if machine_cfg != MachineConfig() or pfs_cfg != PFSConfig():
        raise AblationError(
            "registry all-on overrides do not resolve to the default "
            "MachineConfig/PFSConfig -- a mechanism's 'on' state drifted"
        )
    if workload_kw != {"prefetch": True, "family": "collective"}:
        raise AblationError(
            "registry baseline must enable client prefetch on the "
            "collective family"
        )
    for mech in MECHANISMS:
        for overrides in (mech.off, mech.on, mech.context):
            resolve_configs({**mech.context, **overrides})
        if not mech.off:
            raise AblationError(f"mechanism {mech.name!r} has no off overrides")
    result: Dict[str, object] = {
        "all_on_noop": True,
        "mechanisms": len(MECHANISMS),
        "golden_cells_checked": 0,
    }
    if not golden:
        return result
    if not _GOLDEN_PATH.exists():
        result["golden_skipped"] = f"no golden file at {_GOLDEN_PATH}"
        return result
    from repro.analysis.sanitizers import report_fingerprint

    with open(_GOLDEN_PATH) as fh:
        cells = json.load(fh)["cells"]
    checked = 0
    for key, kwargs in GOLDEN_VALIDATION_CELLS:
        report = _golden_cell_report(**kwargs)
        actual = report_fingerprint(report)
        if actual != cells[key]:
            raise AblationError(
                f"registry baseline breaks golden cell {key}: "
                f"{actual} != {cells[key]} -- the all-on configuration "
                "is not a no-op"
            )
        checked += 1
    result["golden_cells_checked"] = checked
    return result


# -- importance computation -------------------------------------------------


def _cell_attribution_shift(on: Dict, off: Dict) -> Dict[str, float]:
    """How the bottleneck picture moved when the mechanism went away."""
    a_on, a_off = on["attribution"], off["attribution"]

    def hit_rate(a: Dict) -> float:
        reads = a["disk_reads"]
        return a["track_cache_hits"] / reads if reads else 0.0

    def cache_rate(a: Dict) -> float:
        total = a["cache_hits"] + a["cache_misses"]
        return a["cache_hits"] / total if total else 0.0

    return {
        "disk_util_shift": _round(a_off["disk_util_mean"] - a_on["disk_util_mean"]),
        "cpu_util_shift": _round(a_off["cpu_util_mean"] - a_on["cpu_util_mean"]),
        "track_cache_hit_rate_shift": _round(hit_rate(a_off) - hit_rate(a_on)),
        "cache_hit_rate_shift": _round(cache_rate(a_off) - cache_rate(a_on)),
    }


def compute_cells(
    runs: Sequence[RunSpec], records: Mapping[str, Dict[str, object]]
) -> List[Dict[str, object]]:
    """Per-(mode, size, mechanism) bandwidth deltas.

    ``importance`` is the relative bandwidth the mechanism buys in that
    cell: ``(bw_on - bw_off) / bw_on``.  Negative values are legitimate
    (a mechanism that hurts a mode shows up below zero, not clamped).
    """
    by_id = {spec.run_id: spec for spec in runs}
    cells: List[Dict[str, object]] = []
    for spec in runs:
        if spec.role != "off":
            continue
        prefix = f"ablation:{spec.mode}:{spec.request_kb}kb"
        mech = mechanism(spec.mechanism)
        on_id = (
            f"{prefix}:ctx={mech.name}:on" if mech.context else f"{prefix}:baseline"
        )
        if on_id not in by_id:
            raise AblationError(f"run set misses the on-side run {on_id!r}")
        on, off = records[on_id], records[spec.run_id]
        bw_on = on["bandwidth_mbps"]
        bw_off = off["bandwidth_mbps"]
        delta = bw_on - bw_off
        cells.append(
            {
                "mode": spec.mode,
                "request_kb": spec.request_kb,
                "mechanism": mech.name,
                "run_id_on": on_id,
                "run_id_off": spec.run_id,
                "bandwidth_on_mbps": _round(bw_on),
                "bandwidth_off_mbps": _round(bw_off),
                "delta_mbps": _round(delta),
                "importance": _round(delta / bw_on if bw_on else 0.0),
                "attribution_shift": _cell_attribution_shift(on, off),
            }
        )
    return cells


def rank_importance(cells: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Aggregate per-mechanism importance, ranked, plus per-mode tables."""

    def aggregate(subset: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
        by_mech: Dict[str, List[Dict[str, object]]] = {}
        for cell in subset:
            by_mech.setdefault(cell["mechanism"], []).append(cell)
        entries = []
        for name, group in by_mech.items():
            importances = [c["importance"] for c in group]
            entries.append(
                {
                    "mechanism": name,
                    "importance": _round(_mean(importances)),
                    "mean_delta_mbps": _round(_mean([c["delta_mbps"] for c in group])),
                    "min_importance": _round(min(importances)),
                    "max_importance": _round(max(importances)),
                    "cells": len(group),
                }
            )
        entries.sort(key=lambda e: (-e["importance"], e["mechanism"]))
        return entries

    modes = sorted({cell["mode"] for cell in cells})
    return {
        "aggregate": aggregate(cells),
        "by_mode": {
            mode: aggregate([c for c in cells if c["mode"] == mode]) for mode in modes
        },
    }


def run_sweep(
    modes: Sequence[str] = DEFAULT_MODES,
    sizes_kb: Sequence[int] = DEFAULT_SIZES_KB,
    rounds: int = DEFAULT_ROUNDS,
    compute_delay: float = DEFAULT_DELAY_S,
    tie_break: str = "fifo",
    golden: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Validate, execute, and rank the full ablation sweep.

    Returns the ``BENCH_ablation.json`` report dict.  Fully
    deterministic: same settings produce a byte-identical report.
    """
    validation = validate_registry(golden=golden)
    runs = generate_runs(modes=modes, sizes_kb=sizes_kb)
    records = execute_runs(
        runs,
        rounds=rounds,
        compute_delay=compute_delay,
        tie_break=tie_break,
        progress=progress,
    )
    cells = compute_cells(runs, records)
    return {
        "bench": "ablation-observatory",
        "schema": 1,
        "settings": {
            "modes": list(modes),
            "request_sizes_kb": list(sizes_kb),
            "rounds": rounds,
            "compute_delay_s": compute_delay,
            "tie_break": tie_break,
        },
        "validation": validation,
        "mechanisms": [
            {
                "name": m.name,
                "title": m.title,
                "description": m.description,
                "off": dict(m.off),
                "on": dict(m.on),
                "context": dict(m.context),
            }
            for m in MECHANISMS
        ],
        "runs": records,
        "cells": cells,
        "importance": rank_importance(cells),
    }


# -- renderers --------------------------------------------------------------


def _fmt_rows(header: List[str], rows: List[List[str]]) -> List[str]:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def _ranking_rows(report: Dict[str, object]) -> List[List[str]]:
    rows = []
    for rank, entry in enumerate(report["importance"]["aggregate"], start=1):
        rows.append(
            [
                str(rank),
                entry["mechanism"],
                f"{entry['importance'] * 100:+.1f}%",
                f"{entry['mean_delta_mbps']:+.2f}",
                f"{entry['min_importance'] * 100:+.1f}%",
                f"{entry['max_importance'] * 100:+.1f}%",
                str(entry["cells"]),
            ]
        )
    return rows


_RANK_HEADER = ["#", "mechanism", "importance", "Δ MB/s", "min", "max", "cells"]


def render_ascii(report: Dict[str, object]) -> str:
    """Fixed-width rendering of the ranked importance report."""
    settings = report["settings"]
    lines = [
        "Mechanism-importance ablation "
        f"(modes={','.join(settings['modes'])}; "
        f"sizes={','.join(str(s) for s in settings['request_sizes_kb'])}KB; "
        f"rounds={settings['rounds']}; delay={settings['compute_delay_s']}s)",
        "",
    ]
    lines.extend(_fmt_rows(_RANK_HEADER, _ranking_rows(report)))
    for mode, entries in report["importance"]["by_mode"].items():
        lines.append("")
        lines.append(f"{mode}:")
        rows = [
            [
                entry["mechanism"],
                f"{entry['importance'] * 100:+.1f}%",
                f"{entry['mean_delta_mbps']:+.2f}",
            ]
            for entry in entries
        ]
        lines.extend(_fmt_rows(["mechanism", "importance", "Δ MB/s"], rows))
    validation = report["validation"]
    lines.append("")
    lines.append(
        f"validation: all-on no-op={validation['all_on_noop']}, "
        f"golden cells checked={validation['golden_cells_checked']}"
    )
    return "\n".join(lines)


def render_markdown(report: Dict[str, object]) -> str:
    """Markdown rendering (ranked aggregate + per-mode tables)."""

    def table(header: List[str], rows: List[List[str]]) -> List[str]:
        out = ["| " + " | ".join(header) + " |"]
        out.append("|" + "|".join(" --- " for _ in header) + "|")
        for row in rows:
            out.append("| " + " | ".join(row) + " |")
        return out

    settings = report["settings"]
    lines = [
        "# Mechanism-importance ablation",
        "",
        f"Modes: {', '.join(settings['modes'])} · sizes: "
        f"{', '.join(str(s) for s in settings['request_sizes_kb'])} KB · "
        f"rounds: {settings['rounds']} · compute delay: "
        f"{settings['compute_delay_s']} s",
        "",
    ]
    lines.extend(table(_RANK_HEADER, _ranking_rows(report)))
    for mode, entries in report["importance"]["by_mode"].items():
        lines.append("")
        lines.append(f"## {mode}")
        lines.append("")
        rows = [
            [
                entry["mechanism"],
                f"{entry['importance'] * 100:+.1f}%",
                f"{entry['mean_delta_mbps']:+.2f}",
            ]
            for entry in entries
        ]
        lines.extend(table(["mechanism", "importance", "Δ MB/s"], rows))
    return "\n".join(lines) + "\n"


# -- regression tripwire ----------------------------------------------------


def check_importance(
    current: Dict[str, object],
    baseline: Dict[str, object],
    min_importance: float = MIN_IMPORTANCE,
    collapse_ratio: float = COLLAPSE_RATIO,
    abs_tol: float = ABS_TOL,
    check_settings: bool = True,
) -> List[str]:
    """Diff two importance vectors; returns violation descriptions.

    A mechanism trips the wire when it mattered in the baseline
    (importance >= *min_importance*) and its current importance fell
    below ``baseline * collapse_ratio`` with an absolute drop larger
    than *abs_tol* -- the signature of a refactor that disconnected the
    mechanism rather than ordinary noise (the simulator is
    deterministic, so any drift at identical settings is a real change).
    """
    violations: List[str] = []
    if check_settings and current.get("settings") != baseline.get("settings"):
        violations.append(
            "sweep settings differ from the baseline "
            f"(current={current.get('settings')!r}, "
            f"baseline={baseline.get('settings')!r}); importances are not "
            "comparable -- regenerate the baseline or pass matching settings"
        )
        return violations
    current_by_name = {
        e["mechanism"]: e for e in current["importance"]["aggregate"]
    }
    for entry in baseline["importance"]["aggregate"]:
        name = entry["mechanism"]
        base_imp = entry["importance"]
        if base_imp < min_importance:
            continue
        cur = current_by_name.get(name)
        if cur is None:
            violations.append(
                f"{name}: present in baseline (importance "
                f"{base_imp:.3f}) but missing from the current report"
            )
            continue
        cur_imp = cur["importance"]
        if cur_imp < base_imp * collapse_ratio and (base_imp - cur_imp) > abs_tol:
            violations.append(
                f"{name}: importance collapsed {base_imp:.3f} -> "
                f"{cur_imp:.3f} (< {collapse_ratio:.0%} of baseline, drop "
                f"> {abs_tol}); was this mechanism disconnected?"
            )
    return violations


# -- CLI --------------------------------------------------------------------

DEFAULT_OUTPUT = "BENCH_ablation.json"
DEFAULT_BASELINE = "benchmarks/baseline_ablation.json"


def _write_json(path: str, payload: Dict[str, object]) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.ablation",
        description=(
            "Mechanism-importance ablation sweep and regression tripwire."
        ),
    )
    parser.add_argument(
        "--output", default=DEFAULT_OUTPUT, help="report path (default %(default)s)"
    )
    parser.add_argument(
        "--markdown", default=None, help="also write a Markdown rendering here"
    )
    parser.add_argument(
        "--modes",
        default=",".join(DEFAULT_MODES),
        help="comma-separated workload modes (default %(default)s)",
    )
    parser.add_argument(
        "--sizes-kb",
        default=",".join(str(s) for s in DEFAULT_SIZES_KB),
        help="comma-separated request sizes in KB (default %(default)s)",
    )
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--delay", type=float, default=DEFAULT_DELAY_S)
    parser.add_argument("--tie-break", choices=("fifo", "lifo"), default="fifo")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one-mode, one-size smoke subset (M_RECORD, 64KB, 3 rounds)",
    )
    parser.add_argument(
        "--skip-golden",
        action="store_true",
        help="structural registry validation only (no golden cell runs)",
    )
    parser.add_argument("--list", action="store_true", help="print the registry")
    parser.add_argument(
        "--check",
        action="store_true",
        help="tripwire: diff importance against the committed baseline",
    )
    parser.add_argument(
        "--report",
        default=None,
        help="with --check: read this report instead of re-running the sweep",
    )
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument(
        "--advisory",
        action="store_true",
        help="with --check: report violations but exit 0 (CI smoke mode)",
    )
    parser.add_argument(
        "--min-importance", type=float, default=MIN_IMPORTANCE,
    )
    parser.add_argument(
        "--collapse-ratio", type=float, default=COLLAPSE_RATIO,
    )
    parser.add_argument("--abs-tol", type=float, default=ABS_TOL)
    parser.add_argument(
        "--allow-settings-mismatch",
        action="store_true",
        help="with --check: compare even when sweep settings differ",
    )
    args = parser.parse_args(argv)

    if args.list:
        for mech in MECHANISMS:
            print(f"{mech.name:16s} {mech.title}")
            print(f"{'':16s}   off: {dict(mech.off)}")
            if mech.context:
                print(f"{'':16s}   context: {dict(mech.context)} on: {dict(mech.on)}")
        return 0

    modes = tuple(m for m in args.modes.split(",") if m)
    sizes = tuple(int(s) for s in args.sizes_kb.split(",") if s)
    rounds = args.rounds
    delay = args.delay
    if args.quick:
        modes, sizes, rounds = ("M_RECORD",), (64,), 3

    if args.check and args.report is not None:
        with open(args.report) as fh:
            report = json.load(fh)
    else:
        try:
            report = run_sweep(
                modes=modes,
                sizes_kb=sizes,
                rounds=rounds,
                compute_delay=delay,
                tie_break=args.tie_break,
                golden=not args.skip_golden,
                progress=lambda run_id: print(f"  run {run_id}", file=sys.stderr),
            )
        except AblationError as exc:
            print(f"ablation: {exc}", file=sys.stderr)
            return 1
        _write_json(args.output, report)
        print(render_ascii(report))
        print(f"\nwrote {args.output}")
        if args.markdown:
            with open(args.markdown, "w") as fh:
                fh.write(render_markdown(report))
            print(f"wrote {args.markdown}")

    if not args.check:
        return 0

    try:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        print(
            f"ablation: no committed baseline at {args.baseline}; generate "
            "one with --output and commit it",
            file=sys.stderr,
        )
        return 2
    violations = check_importance(
        report,
        baseline,
        min_importance=args.min_importance,
        collapse_ratio=args.collapse_ratio,
        abs_tol=args.abs_tol,
        check_settings=not args.allow_settings_mismatch,
    )
    if violations:
        for violation in violations:
            print(f"TRIPWIRE: {violation}")
        if args.advisory:
            print("(advisory mode: exiting 0)")
            return 0
        return 1
    print(f"tripwire: importance vector consistent with {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
