"""Shared experiment plumbing.

Every experiment builds a fresh 8 compute / 8 I/O node machine (the
paper's testbed), creates its file(s), runs a workload, and reports the
paper's collective-read-bandwidth metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import MachineConfig, PFSConfig
from repro.core import Prefetcher
from repro.core.policies import PrefetchPolicy
from repro.machine import Machine
from repro.metrics import BandwidthReport
from repro.pfs import IOMode
from repro.workloads import (
    CollectiveReadWorkload,
    SeparateFilesWorkload,
    StridedReadWorkload,
)

KB = 1024
MB = 1024 * 1024

#: The paper's request sizes (OCR-resolved: 64, 128, 256, 512, 1024 KB).
DEFAULT_REQUEST_SIZES_KB = (64, 128, 256, 512, 1024)

#: The paper's balanced-workload computation delays: "from 0 second to
#: 0.2 second" between consecutive reads (OCR-resolved: 0.2 s is the
#: only upper bound consistent with the paper's panel-by-panel claims
#: given the Table-2 anchor -- 256KB reads take ~0.1s and gain, 512KB
#: take ~0.2s and are marginal, 1024KB take ~0.4s and do not gain).
DEFAULT_DELAYS_S = (0.0, 0.025, 0.05, 0.1, 0.2)


@dataclass
class ExperimentTable:
    """Structured result: named columns, list of rows, text rendering."""

    title: str
    columns: List[str]
    rows: List[List] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Pre-rendered extra sections (e.g. per-layer latency breakdowns)
    #: appended verbatim after the notes.
    sections: List[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"row has {len(values)} values for {len(self.columns)} columns")
        self.rows.append(list(values))

    def column(self, name: str) -> List:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        """Fixed-width text table in the paper's style."""

        def fmt(v) -> str:
            if isinstance(v, float):
                return f"{v:.2f}"
            return str(v)

        cells = [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells)) if cells else len(c)
            for i, c in enumerate(self.columns)
        ]
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(c.rjust(w) for c, w in zip(self.columns, widths)))
        for row in cells:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        for section in self.sections:
            lines.append("")
            lines.append(section)
        return "\n".join(lines)

    def attach_breakdown(
        self, breakdown: Dict[str, float], title: str = "Per-layer breakdown"
    ) -> None:
        """Attach a traced run's per-layer latency breakdown as an extra
        rendered section (see :func:`repro.obs.render_breakdown`)."""
        from repro.obs import render_breakdown

        self.sections.append(render_breakdown(breakdown, title=title))

    def to_jsonable(self) -> dict:
        """Machine-readable form: the shared shape every table/figure
        artifact (``results/*.json``, ``BENCH_*.json`` entries) uses."""
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }

    def to_json(self, indent: int = 2) -> str:
        import json

        return json.dumps(self.to_jsonable(), indent=indent) + "\n"

    def write_json(self, path) -> None:
        """Write the JSON artifact next to the text rendering."""
        with open(path, "w") as fh:
            fh.write(self.to_json())


def build_machine(
    n_compute: int = 8,
    n_io: int = 8,
    stripe_unit: int = 64 * KB,
    stripe_factor: int = 0,
    buffered: bool = False,
    cache_blocks: int = 128,
    hardware=None,
    trace: bool = False,
    tie_break: str = "fifo",
    faults=None,
    prefetch_policy: str = "one-ahead",
    prefetch_depth: int = 1,
    prefetch_stride_detect: bool = True,
):
    """Machine + mount with the paper's defaults (8C/8IO, 64KB blocks)."""
    config_kwargs = dict(
        n_compute=n_compute,
        n_io=n_io,
        cache_blocks=cache_blocks,
        trace=trace,
        tie_break=tie_break,
        faults=faults,
        prefetch_policy=prefetch_policy,
        prefetch_depth=prefetch_depth,
        prefetch_stride_detect=prefetch_stride_detect,
    )
    if hardware is not None:
        config_kwargs["hardware"] = hardware
    machine = Machine(MachineConfig(**config_kwargs))
    mount = machine.mount(
        "/pfs",
        PFSConfig(stripe_unit=stripe_unit, stripe_factor=stripe_factor, buffered=buffered),
    )
    return machine, mount


def prefetcher_factory(
    enabled: bool,
    policy_factory: Optional[Callable[[], PrefetchPolicy]] = None,
    machine: Optional[Machine] = None,
) -> Optional[Callable[[int], Prefetcher]]:
    """Per-rank prefetcher factory (None when disabled).

    An explicit *policy_factory* wins; otherwise, given a *machine*, the
    factory routes through :meth:`Machine.build_prefetcher` so the
    machine's ``prefetch_policy`` / ``prefetch_depth`` knobs
    apply (the default knobs build exactly the paper's prototype).
    """
    if not enabled:
        return None
    if policy_factory is not None:

        def make(rank: int) -> Prefetcher:
            return Prefetcher(policy_factory())

        return make
    if machine is not None:
        return machine.build_prefetcher

    def make_default(rank: int) -> Prefetcher:
        return Prefetcher()

    return make_default


def run_collective(
    request_size: int,
    file_size: int,
    compute_delay: float = 0.0,
    iomode: IOMode = IOMode.M_RECORD,
    prefetch: bool = False,
    stripe_unit: int = 64 * KB,
    stripe_factor: int = 0,
    n_compute: int = 8,
    n_io: int = 8,
    rounds: Optional[int] = None,
    policy_factory: Optional[Callable[[], PrefetchPolicy]] = None,
    buffered: bool = False,
    async_partition: bool = True,
    hardware=None,
    trace: bool = False,
    tie_break: str = "fifo",
    keep_machine: bool = False,
    faults=None,
    prefetch_policy: str = "one-ahead",
    prefetch_depth: int = 1,
    prefetch_stride_detect: bool = True,
) -> BandwidthReport:
    """One fresh-machine collective read run; returns the report.

    With ``trace=True`` the machine records request spans and the report
    comes back with its :attr:`~repro.metrics.BandwidthReport.breakdown`
    populated (per-layer critical-path seconds summed over all read
    calls).  Tracing schedules no simulation events, so the measured
    numbers are identical either way.

    ``keep_machine=True`` attaches the machine as ``report.machine`` so
    callers can export traces or read
    :meth:`~repro.machine.Machine.bottleneck_report` after the fact (the
    attribute is set dynamically and never participates in equality).
    """
    machine, mount = build_machine(
        n_compute=n_compute,
        n_io=n_io,
        stripe_unit=stripe_unit,
        stripe_factor=stripe_factor,
        buffered=buffered,
        hardware=hardware,
        trace=trace,
        tie_break=tie_break,
        faults=faults,
        prefetch_policy=prefetch_policy,
        prefetch_depth=prefetch_depth,
        prefetch_stride_detect=prefetch_stride_detect,
    )
    machine.create_file(mount, "data", file_size)
    workload = CollectiveReadWorkload(
        machine,
        mount,
        "data",
        request_size=request_size,
        compute_delay=compute_delay,
        iomode=iomode,
        rounds=rounds,
        prefetcher_factory=prefetcher_factory(prefetch, policy_factory, machine=machine),
        async_partition=async_partition,
    )
    report = workload.run().report
    if trace:
        report.breakdown = machine.obs.breakdown()
    if keep_machine:
        report.machine = machine
    return report


def run_separate_files(
    request_size: int,
    file_size_per_node: int,
    compute_delay: float = 0.0,
    n_compute: int = 8,
    n_io: int = 8,
    stripe_unit: int = 64 * KB,
    prefetch: bool = False,
    tie_break: str = "fifo",
    faults=None,
) -> BandwidthReport:
    """Figure 2's "Separate Files" case: one rotated file per node."""
    machine, mount = build_machine(
        n_compute=n_compute,
        n_io=n_io,
        stripe_unit=stripe_unit,
        tie_break=tie_break,
        faults=faults,
    )
    for rank in range(n_compute):
        machine.create_file(mount, f"data{rank}", file_size_per_node, rotate=True)
    workload = SeparateFilesWorkload(
        machine,
        mount,
        "data",
        request_size=request_size,
        compute_delay=compute_delay,
        prefetcher_factory=prefetcher_factory(prefetch, machine=machine),
    )
    return workload.run().report


def run_strided(
    request_size: int,
    file_size: int,
    stride: Optional[int] = None,
    compute_delay: float = 0.0,
    prefetch: bool = False,
    n_compute: int = 8,
    n_io: int = 8,
    stripe_unit: int = 64 * KB,
    rounds: Optional[int] = None,
    policy_factory: Optional[Callable[[], PrefetchPolicy]] = None,
    tie_break: str = "fifo",
    keep_machine: bool = False,
    faults=None,
    prefetch_policy: str = "one-ahead",
    prefetch_depth: int = 1,
    prefetch_stride_detect: bool = True,
) -> BandwidthReport:
    """Strided M_ASYNC read over one shared file (the non-unit-stride
    family where mode arithmetic mispredicts; see
    :class:`repro.workloads.StridedReadWorkload`)."""
    machine, mount = build_machine(
        n_compute=n_compute,
        n_io=n_io,
        stripe_unit=stripe_unit,
        tie_break=tie_break,
        faults=faults,
        prefetch_policy=prefetch_policy,
        prefetch_depth=prefetch_depth,
        prefetch_stride_detect=prefetch_stride_detect,
    )
    machine.create_file(mount, "data", file_size)
    workload = StridedReadWorkload(
        machine,
        mount,
        "data",
        request_size=request_size,
        stride=stride,
        compute_delay=compute_delay,
        rounds=rounds,
        prefetcher_factory=prefetcher_factory(prefetch, policy_factory, machine=machine),
    )
    report = workload.run().report
    if keep_machine:
        report.machine = machine
    return report


def scaled_file_size(request_size: int, n_compute: int = 8, rounds: int = 16) -> int:
    """File sized so every node performs *rounds* full requests."""
    return request_size * n_compute * rounds


def run_multipass(
    request_size: int,
    file_size: int,
    passes: int = 6,
    iomode: IOMode = IOMode.M_RECORD,
    prefetch: bool = True,
    rounds: Optional[int] = None,
    n_compute: int = 8,
    n_io: int = 8,
    tie_break: str = "fifo",
    faults=None,
    keep_machine: bool = False,
) -> BandwidthReport:
    """Read the same file *passes* times on one machine; aggregate report.

    The canonical copy-back-rebuild scenario: a rebuild's cost is paid
    once (the live region crosses the SCSI bus one time) while degraded
    reconstruction taxes every pass, so over enough passes the expected
    bandwidth ordering is fault-free > rebuild > degraded-forever.
    A single pass cannot show this -- the rebuild moves at least as many
    bytes as one pass reads from the failed array.

    The aggregate report divides total bytes by the summed per-pass
    slowest-rank read-call time (each pass re-opens fresh handles).
    """
    machine, mount = build_machine(
        n_compute=n_compute,
        n_io=n_io,
        tie_break=tie_break,
        faults=faults,
    )
    machine.create_file(mount, "data", file_size)
    total_bytes = 0
    read_call_time = 0.0
    elapsed = 0.0
    for _ in range(passes):
        workload = CollectiveReadWorkload(
            machine,
            mount,
            "data",
            request_size=request_size,
            iomode=iomode,
            rounds=rounds,
            prefetcher_factory=prefetcher_factory(prefetch),
        )
        result = workload.run()
        total_bytes += result.report.total_bytes
        read_call_time += result.report.read_time_s
        elapsed += result.report.elapsed_s
    report = BandwidthReport(
        total_bytes=total_bytes,
        elapsed_s=elapsed,
        read_call_time_by_rank={0: read_call_time},
        bytes_by_rank={0: total_bytes},
        calls_by_rank={},
    )
    if keep_machine:
        report.machine = machine
    return report


def speedup(with_value: float, without_value: float) -> float:
    return with_value / without_value if without_value > 0 else float("inf")


def sizes_kb(sizes: Sequence[int]) -> List[int]:
    return [s * KB for s in sizes]
