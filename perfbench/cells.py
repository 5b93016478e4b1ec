"""The benchmark's three workloads, as lists of cells.

A cell builds one fresh simulated Paragon, runs one workload on it and
returns the workload reports.  Cells use only public entry points: the
``repro.experiments.common`` helpers, ``Machine`` / ``MachineConfig`` /
``PFSConfig``, the workload classes, the ``FaultPlan`` builders and the
prefetch policy names ``one-ahead`` and ``depth-k``.

Why these workloads:

- ``paper-read`` is what a user runs to reproduce the paper: the Table 1
  and Figure 2 cells, balanced compute-delay prefetch cells, and
  ``depth-k`` strided and deep-sequential cells.  Fault-free, tracer and
  telemetry off, so every fast path is engaged; the kernel, hardware and
  prefetcher do the work.
- ``write-mix`` writes through ``repro.ufs`` under Fast Path,
  write-through and write-back caching, then reads the file back with
  prefetching off.  Content materialisation dominates; the prefetcher
  is idle.
- ``fault-recovery`` runs reads and writes under crash-restart windows,
  a seeded scattered fault mix, degraded mode and the canonical
  copy-back rebuild.  A fault plan turns off every fast path, so this is
  the control on which a fast-path change should move nothing.

``repro.scale`` is left out because scale-out is not an aim of this
round of work, and ``repro.analysis`` because it is a static lint that
no run path calls (the benchmark only borrows its report fingerprint to
check cells).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.config import MachineConfig, PFSConfig
from repro.experiments.common import (
    DEFAULT_REQUEST_SIZES_KB,
    KB,
    build_machine,
    prefetcher_factory,
    scaled_file_size,
)
from repro.faults import FaultPlan, FaultSpec
from repro.machine import Machine
from repro.metrics import BandwidthReport
from repro.pfs import IOMode
from repro.pfs.mount import PFSMount
from repro.workloads import (
    CollectiveReadWorkload,
    CollectiveWriteWorkload,
    SeparateFilesWorkload,
    StridedReadWorkload,
)

FIGURE2_MODES = (IOMode.M_UNIX, IOMode.M_LOG, IOMode.M_SYNC, IOMode.M_RECORD, IOMode.M_ASYNC)

#: Compute node 0 crashes twice; the same windows as the fault-recovery
#: test suite's crash-restart scenario.
CRASH_PLAN = FaultPlan.crash_restart(node="node0", windows=((0.03, 0.08), (0.2, 0.25)))

#: The canonical copy-back rebuild (``tests/golden/rebuild_fingerprint.json``).
REBUILD_PLAN = FaultPlan(
    specs=(
        FaultSpec(kind="disk_failure", target="raid0", at_s=0.0, disk_index=0),
        FaultSpec(kind="disk_repair", target="raid0", at_s=0.01, disk_index=0, rebuild_rate=0.5),
    ),
)


@dataclass
class Prepared:
    """A built cell: its machine, and the call that runs its workload.

    ``stored_files`` names files whose stored content joins the
    fingerprint (the files a write cell produced).
    """

    machine: Machine
    run: Callable[[], List[BandwidthReport]]
    mount: Optional[PFSMount] = None
    stored_files: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Cell:
    """One benchmark cell.  ``fixed`` cells have a committed fingerprint;
    cells with a seeded fault plan are checked by ``Machine.verify()``."""

    key: str
    build: Callable[[str], Prepared]
    fixed: bool = True


def read_cell(
    key: str,
    size_kb: int,
    rounds: int = 16,
    iomode: IOMode = IOMode.M_RECORD,
    prefetch: bool = False,
    delay_s: float = 0.0,
    async_partition: bool = True,
    faults: Optional[FaultPlan] = None,
    policy: str = "one-ahead",
    depth: int = 1,
    fixed: bool = True,
) -> Cell:
    """Collective read of one shared file, as ``run_collective`` runs it."""

    def build(tie_break: str) -> Prepared:
        request = size_kb * KB
        machine, mount = build_machine(
            tie_break=tie_break, faults=faults, prefetch_policy=policy, prefetch_depth=depth
        )
        machine.create_file(mount, "data", scaled_file_size(request, rounds=rounds))
        workload = CollectiveReadWorkload(
            machine,
            mount,
            "data",
            request_size=request,
            compute_delay=delay_s,
            iomode=iomode,
            rounds=rounds,
            prefetcher_factory=prefetcher_factory(prefetch, machine=machine),
            async_partition=async_partition,
        )
        return Prepared(machine, lambda: [workload.run().report], mount)

    return Cell(key, build, fixed)


def separate_files_cell(key: str, size_kb: int, rounds: int = 16) -> Cell:
    """Figure 2's Separate Files case, as ``run_separate_files`` runs it."""

    def build(tie_break: str) -> Prepared:
        request = size_kb * KB
        machine, mount = build_machine(tie_break=tie_break)
        for rank in range(machine.config.n_compute):
            machine.create_file(mount, f"data{rank}", request * rounds, rotate=True)
        workload = SeparateFilesWorkload(
            machine,
            mount,
            "data",
            request_size=request,
            prefetcher_factory=prefetcher_factory(False, machine=machine),
        )
        return Prepared(machine, lambda: [workload.run().report], mount)

    return Cell(key, build)


def strided_cell(key: str, size_kb: int, delay_s: float, rounds: int = 16) -> Cell:
    """Strided M_ASYNC readers under a depth-4 pipeline with stride detection."""

    def build(tie_break: str) -> Prepared:
        request = size_kb * KB
        stride = 3 * request
        machine, mount = build_machine(
            tie_break=tie_break, prefetch_policy="depth-k", prefetch_depth=4
        )
        machine.create_file(mount, "data", stride * machine.config.n_compute * rounds)
        workload = StridedReadWorkload(
            machine,
            mount,
            "data",
            request_size=request,
            stride=stride,
            compute_delay=delay_s,
            rounds=rounds,
            prefetcher_factory=prefetcher_factory(True, machine=machine),
        )
        return Prepared(machine, lambda: [workload.run().report], mount)

    return Cell(key, build)


def write_cell(
    key: str,
    size_kb: int,
    iomode: IOMode,
    buffered: bool,
    write_back: bool,
    rounds: int = 8,
    faults: Optional[FaultPlan] = None,
    fixed: bool = True,
) -> Cell:
    """Collective write of one shared file, then an M_RECORD read-back
    with prefetching off."""

    def build(tie_break: str) -> Prepared:
        request = size_kb * KB
        machine = Machine(MachineConfig(write_back=write_back, faults=faults, tie_break=tie_break))
        mount = machine.mount("/pfs", PFSConfig(buffered=buffered))
        machine.create_file(mount, "out", 0)
        writer = CollectiveWriteWorkload(
            machine, mount, "out", request_size=request, rounds=rounds, iomode=iomode
        )
        reader = CollectiveReadWorkload(
            machine, mount, "out", request_size=request, iomode=IOMode.M_RECORD
        )
        return Prepared(
            machine, lambda: [writer.run().report, reader.run().report], mount, ("out",)
        )

    return Cell(key, build, fixed)


def multipass_cell(key: str, faults: FaultPlan, passes: int = 6, rounds: int = 4) -> Cell:
    """The canonical six-pass M_RECORD re-read, as ``run_multipass`` runs
    it, with the machine built in set-up rather than inside the run."""

    def build(tie_break: str) -> Prepared:
        request = 64 * KB
        machine, mount = build_machine(tie_break=tie_break, faults=faults)
        machine.create_file(mount, "data", scaled_file_size(request, rounds=rounds))

        def run() -> List[BandwidthReport]:
            total_bytes = 0
            read_call_time = 0.0
            elapsed = 0.0
            for _ in range(passes):
                workload = CollectiveReadWorkload(
                    machine,
                    mount,
                    "data",
                    request_size=request,
                    iomode=IOMode.M_RECORD,
                    rounds=rounds,
                    prefetcher_factory=prefetcher_factory(True, machine=machine),
                )
                report = workload.run().report
                total_bytes += report.total_bytes
                read_call_time += report.read_time_s
                elapsed += report.elapsed_s
            return [
                BandwidthReport(
                    total_bytes=total_bytes,
                    elapsed_s=elapsed,
                    read_call_time_by_rank={0: read_call_time},
                    bytes_by_rank={0: total_bytes},
                    calls_by_rank={},
                )
            ]

        return Prepared(machine, run, mount)

    return Cell(key, build)


# Each workload has a number of cells that ends in 5, so that in whole
# passes the median and the p90 of the cell times fall in the middle of
# one cell's samples rather than on the edge between two cells, where
# they would jump between the two cells' times from run to run.


def paper_read(seed: int) -> List[Cell]:
    cells = []
    for size in DEFAULT_REQUEST_SIZES_KB:
        for prefetch in (False, True):
            cells.append(
                read_cell(f"table1:{size}kb:prefetch={prefetch}", size, prefetch=prefetch)
            )
        for mode in FIGURE2_MODES:
            cells.append(
                read_cell(f"figure2:{size}kb:{mode.name}", size, iomode=mode, async_partition=False)
            )
        cells.append(separate_files_cell(f"figure2:{size}kb:SEPARATE_FILES", size))
    for size, delay in ((64, 0.05), (256, 0.05), (256, 0.1)):
        cells.append(
            read_cell(f"balanced:{size}kb:delay={delay}", size, prefetch=True, delay_s=delay)
        )
    cells.append(strided_cell("strided:64kb:depth-k", 64, 0.0))
    cells.append(
        read_cell(
            "deep-seq:64kb:depth-k",
            64,
            iomode=IOMode.M_ASYNC,
            prefetch=True,
            policy="depth-k",
            depth=4,
        )
    )
    return cells


def write_mix(seed: int) -> List[Cell]:
    caching = (
        ("fastpath", False, False),
        ("write-through", True, False),
        ("write-back", True, True),
    )
    shapes = (
        (64, IOMode.M_RECORD),
        (64, IOMode.M_UNIX),
        (128, IOMode.M_RECORD),
        (256, IOMode.M_RECORD),
        (256, IOMode.M_UNIX),
    )
    cells = []
    for size, mode in shapes:
        for name, buffered, write_back in caching:
            cells.append(
                write_cell(f"write:{size}kb:{mode.name}:{name}", size, mode, buffered, write_back)
            )
    return cells


def fault_recovery(seed: int) -> List[Cell]:
    # Transient faults only: with ``transient_only=False`` the builder can
    # put a media error on the array it also fails, which RAID-3 cannot
    # recover, so a run with a few seeds in a hundred would fail.
    # Degraded mode and rebuild are covered by the fixed cells.
    rng = random.Random(seed)

    def scattered() -> FaultPlan:
        return FaultPlan.scattered(seed=rng.randrange(1 << 30), horizon_s=1.0, n_faults=5)

    degraded = FaultPlan.single_disk_failure(array="raid0", at_s=0.0)
    record, unix = IOMode.M_RECORD, IOMode.M_UNIX
    return [
        read_cell("crash:read:64kb", 64, rounds=4, prefetch=True, faults=CRASH_PLAN),
        read_cell("crash:read:128kb", 128, rounds=4, prefetch=True, faults=CRASH_PLAN),
        read_cell("crash:read:256kb", 256, rounds=4, prefetch=True, faults=CRASH_PLAN),
        write_cell("crash:write:64kb:M_RECORD", 64, record, False, False, 4, CRASH_PLAN),
        write_cell("crash:write:64kb:M_UNIX", 64, unix, False, False, 4, CRASH_PLAN),
        write_cell("crash:write:128kb:M_RECORD", 128, record, False, False, 4, CRASH_PLAN),
        read_cell("degraded:read:64kb", 64, rounds=8, prefetch=True, faults=degraded),
        read_cell("degraded:read:256kb", 256, rounds=8, prefetch=True, faults=degraded),
        write_cell("degraded:write:64kb:M_RECORD", 64, record, False, False, 4, degraded),
        multipass_cell("rebuild:canonical", REBUILD_PLAN),
        read_cell("scattered:read:64kb", 64, 8, prefetch=True, faults=scattered(), fixed=False),
        read_cell("scattered:read:128kb", 128, 4, prefetch=True, faults=scattered(), fixed=False),
        read_cell("scattered:read:256kb", 256, 4, prefetch=True, faults=scattered(), fixed=False),
        write_cell(
            "scattered:write:64kb:M_RECORD", 64, record, False, False, 4, scattered(), fixed=False
        ),
        write_cell(
            "scattered:write:64kb:M_UNIX", 64, unix, False, False, 4, scattered(), fixed=False
        ),
    ]


WORKLOADS = {
    "paper-read": paper_read,
    "write-mix": write_mix,
    "fault-recovery": fault_recovery,
}


def golden_bench3_cells() -> List[Cell]:
    """The cells of ``tests/golden/bench3_fingerprints.json`` (rounds=4),
    built through this module to cross-check its cell construction."""
    cells = []
    for size, prefetch in ((64, False), (64, True), (256, False), (256, True)):
        cells.append(
            read_cell(f"table1:{size}kb:prefetch={prefetch}", size, rounds=4, prefetch=prefetch)
        )
    cells.append(
        read_cell("figure2:64kb:M_UNIX", 64, rounds=4, iomode=IOMode.M_UNIX, async_partition=False)
    )
    cells.append(separate_files_cell("figure2:64kb:SEPARATE_FILES", 64, rounds=4))
    return cells
