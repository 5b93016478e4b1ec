"""The paper's synthetic workloads.

Section 4: "The workload programs opened files in the M_RECORD mode.
Delays were introduced between I/O accesses in this synthetic workload
to simulate the computation phases of a program.  To measure the
performance of our prefetching prototype, the workload performed
extensive I/O on large files."

- :class:`CollectiveReadWorkload` with ``compute_delay=0`` is the
  I/O-bound workload of section 4.1; with a positive delay it is the
  "balanced" workload of section 4.2.
- :class:`SeparateFilesWorkload` is Figure 2's "Separate Files" case:
  "each compute node accesses a unique file rather than opening a
  shared file."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.prefetcher import Prefetcher
from repro.faults.plan import NodeCrashed
from repro.machine import Machine
from repro.metrics import BandwidthReport, report_from_handles
from repro.pfs.client import PFSFileHandle
from repro.pfs.modes import IOMode
from repro.pfs.mount import PFSMount

#: Factory called per rank to build that handle's prefetcher (or None).
PrefetcherFactory = Callable[[int], Optional[Prefetcher]]


@dataclass
class WorkloadResult:
    """Outcome of one workload run."""

    report: BandwidthReport
    handles: List[PFSFileHandle] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def elapsed_s(self) -> float:
        return self.finished_at - self.started_at


class CollectiveReadWorkload:
    """All compute nodes read one shared file in a given I/O mode.

    Parameters
    ----------
    machine, mount, filename:
        Where to read.
    request_size:
        Bytes per read call ("Request size per node").
    compute_delay:
        Seconds of simulated computation between consecutive reads
        (0 = I/O bound; > 0 = balanced).
    iomode:
        PFS I/O mode (the paper's prototype runs in M_RECORD).
    rounds:
        Number of read calls per node; None reads until EOF.
    nprocs:
        How many compute nodes participate (default: all).
    prefetcher_factory:
        Called with each rank to build its prefetcher; None disables
        prefetching.
    async_partition:
        For M_ASYNC: seek each rank to its own 1/nprocs slice of the
        file first (a fair throughput comparison); otherwise every rank
        starts at offset 0.
    """

    def __init__(
        self,
        machine: Machine,
        mount: PFSMount,
        filename: str,
        request_size: int,
        compute_delay: float = 0.0,
        iomode: IOMode = IOMode.M_RECORD,
        rounds: Optional[int] = None,
        nprocs: Optional[int] = None,
        prefetcher_factory: Optional[PrefetcherFactory] = None,
        async_partition: bool = True,
    ) -> None:
        if request_size <= 0:
            raise ValueError("request size must be positive")
        if compute_delay < 0:
            raise ValueError("compute delay must be non-negative")
        self.machine = machine
        self.mount = mount
        self.filename = filename
        self.request_size = request_size
        self.compute_delay = compute_delay
        self.iomode = iomode
        self.rounds = rounds
        self.nprocs = nprocs or len(machine.clients)
        if self.nprocs > len(machine.clients):
            raise ValueError(
                f"{self.nprocs} processes but only " f"{len(machine.clients)} compute nodes"
            )
        self.prefetcher_factory = prefetcher_factory
        self.async_partition = async_partition

    # -- execution ----------------------------------------------------------

    def run(self) -> WorkloadResult:
        """Open, read to completion on every node, close; returns metrics."""
        machine = self.machine
        handles: List[Optional[PFSFileHandle]] = [None] * self.nprocs
        result = WorkloadResult(report=None)  # type: ignore[arg-type]

        # Open from every node (simulated time: open overheads).
        def opener(rank: int):
            prefetcher = self.prefetcher_factory(rank) if self.prefetcher_factory else None
            if prefetcher is not None and prefetcher.monitor is None:
                # Factory-built prefetchers inherit the machine's handle so
                # their counters register.
                prefetcher.monitor = machine.monitor
            handle = yield from machine.clients[rank].open(
                self.mount,
                self.filename,
                self.iomode,
                rank=rank,
                nprocs=self.nprocs,
                prefetcher=prefetcher,
            )
            handles[rank] = handle

        for rank in range(self.nprocs):
            machine.spawn(opener(rank), name=f"open-{rank}")
        machine.run()
        ready: List[PFSFileHandle] = [h for h in handles if h is not None]
        assert len(ready) == self.nprocs

        rounds = self.rounds
        if rounds is None:
            pfs_file = self.mount.lookup(self.filename)
            per_round = self.request_size * self.nprocs
            rounds = max(1, pfs_file.size_bytes // per_round)

        result.started_at = machine.env.now

        def reader(handle: PFSFileHandle):
            if (self.iomode is IOMode.M_ASYNC and self.async_partition and self.nprocs > 1):
                slice_bytes = handle.file.size_bytes // self.nprocs
                yield from handle.lseek(handle.rank * slice_bytes)
            first = True
            for _ in range(rounds):
                if not first and self.compute_delay > 0:
                    yield from handle.node.compute(self.compute_delay)
                first = False
                while True:
                    try:
                        yield from handle.read(self.request_size)
                        break
                    except NodeCrashed:
                        # The node died mid-call (node_crash fault): wait
                        # out the crash window, then re-issue the same
                        # read; the client's restart replay guarantees
                        # exactly-once delivery of each record.
                        yield from handle.client.wait_restarted()

        for handle in ready:
            machine.spawn(reader(handle), name=f"reader-{handle.rank}")
        machine.run()
        result.finished_at = machine.env.now

        def closer(handle: PFSFileHandle):
            yield from handle.close()

        for handle in ready:
            machine.spawn(closer(handle), name=f"close-{handle.rank}")
        machine.run()

        result.handles = ready
        result.report = report_from_handles(ready, result.elapsed_s)
        return result


class CollectiveWriteWorkload:
    """All compute nodes write records to one shared file.

    Each node writes *rounds* records of *request_size* bytes under the
    given I/O mode (M_RECORD by default: rank-slotted records with no
    coordination).  Record content is deterministic
    (``SyntheticData(rank * 1_000_000 + round)``) so tests can verify
    placement byte-for-byte.
    """

    def __init__(
        self,
        machine: Machine,
        mount: PFSMount,
        filename: str,
        request_size: int,
        rounds: int,
        compute_delay: float = 0.0,
        iomode: IOMode = IOMode.M_RECORD,
        nprocs: Optional[int] = None,
    ) -> None:
        if request_size <= 0:
            raise ValueError("request size must be positive")
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        if compute_delay < 0:
            raise ValueError("compute delay must be non-negative")
        self.machine = machine
        self.mount = mount
        self.filename = filename
        self.request_size = request_size
        self.rounds = rounds
        self.compute_delay = compute_delay
        self.iomode = iomode
        self.nprocs = nprocs or len(machine.clients)
        if self.nprocs > len(machine.clients):
            raise ValueError("more processes than compute nodes")

    @staticmethod
    def record_content(rank: int, round_index: int, nbytes: int):
        from repro.ufs.data import SyntheticData

        return SyntheticData(rank * 1_000_000 + round_index, 0, nbytes)

    def run(self) -> WorkloadResult:
        machine = self.machine
        handles: List[Optional[PFSFileHandle]] = [None] * self.nprocs
        result = WorkloadResult(report=None)  # type: ignore[arg-type]

        def opener(rank: int):
            handles[rank] = yield from machine.clients[rank].open(
                self.mount,
                self.filename,
                self.iomode,
                rank=rank,
                nprocs=self.nprocs,
            )

        for rank in range(self.nprocs):
            machine.spawn(opener(rank))
        machine.run()
        ready: List[PFSFileHandle] = [h for h in handles if h is not None]

        result.started_at = machine.env.now
        done = machine.env.event()
        finished = {"n": 0}

        def writer(handle: PFSFileHandle):
            first = True
            for k in range(self.rounds):
                if not first and self.compute_delay > 0:
                    yield from handle.node.compute(self.compute_delay)
                first = False
                payload = self.record_content(handle.rank, k, self.request_size)
                while True:
                    try:
                        yield from handle.write(payload)
                        break
                    except NodeCrashed:
                        # The node died mid-call (node_crash fault): wait
                        # out the crash window, then re-present the same
                        # record; the client's slot reservation / replay
                        # bookkeeping guarantees each record lands
                        # exactly once at exactly one offset.
                        yield from handle.client.wait_restarted()
            finished["n"] += 1
            if finished["n"] == self.nprocs:
                done.succeed()

        for handle in ready:
            machine.spawn(writer(handle), name=f"writer-{handle.rank}")
        # Run until the writes complete (not until the queue drains --
        # a write-back sync daemon may still be pending).
        machine.run(until=done)
        result.finished_at = machine.env.now

        closers = [machine.spawn(handle.close()) for handle in ready]
        machine.run(until=machine.env.all_of(closers))
        result.handles = ready

        report = BandwidthReport(
            total_bytes=sum(h.stats.bytes_written for h in ready),
            elapsed_s=result.elapsed_s,
        )
        for h in ready:
            report.read_call_time_by_rank[h.rank] = h.stats.write_call_time
            report.bytes_by_rank[h.rank] = h.stats.bytes_written
            report.calls_by_rank[h.rank] = h.stats.write_calls
        result.report = report
        return result


class StridedReadWorkload:
    """Non-unit-stride M_ASYNC readers over one shared file.

    Each rank walks its own 1/nprocs slice of the file with a fixed gap
    between consecutive requests: seek to ``pos``, read ``request_size``
    bytes, advance ``pos`` by ``stride`` (``stride > request_size``
    leaves unread holes).  The M_ASYNC mode arithmetic predicts the next
    read at the current private offset, so the paper's one-request-ahead
    policy prefetches hole bytes that are never read; a stride detector
    (:class:`repro.core.policies.StrideDetector`) recovers the real
    pattern from the observed offsets.  This is the workload family
    where stride-detecting prefetching must beat the static
    prototype (see :mod:`repro.experiments.policy_bench`).
    """

    def __init__(
        self,
        machine: Machine,
        mount: PFSMount,
        filename: str,
        request_size: int,
        stride: Optional[int] = None,
        compute_delay: float = 0.0,
        rounds: Optional[int] = None,
        nprocs: Optional[int] = None,
        prefetcher_factory: Optional[PrefetcherFactory] = None,
    ) -> None:
        if request_size <= 0:
            raise ValueError("request size must be positive")
        if compute_delay < 0:
            raise ValueError("compute delay must be non-negative")
        self.stride = stride if stride is not None else 2 * request_size
        if self.stride < request_size:
            raise ValueError("stride must be at least the request size")
        self.machine = machine
        self.mount = mount
        self.filename = filename
        self.request_size = request_size
        self.compute_delay = compute_delay
        self.rounds = rounds
        self.nprocs = nprocs or len(machine.clients)
        if self.nprocs > len(machine.clients):
            raise ValueError("more processes than compute nodes")
        self.prefetcher_factory = prefetcher_factory

    def run(self) -> WorkloadResult:
        machine = self.machine
        handles: List[Optional[PFSFileHandle]] = [None] * self.nprocs
        result = WorkloadResult(report=None)  # type: ignore[arg-type]

        def opener(rank: int):
            prefetcher = self.prefetcher_factory(rank) if self.prefetcher_factory else None
            if prefetcher is not None and prefetcher.monitor is None:
                prefetcher.monitor = machine.monitor
            handle = yield from machine.clients[rank].open(
                self.mount,
                self.filename,
                IOMode.M_ASYNC,
                rank=rank,
                nprocs=self.nprocs,
                prefetcher=prefetcher,
            )
            handles[rank] = handle

        for rank in range(self.nprocs):
            machine.spawn(opener(rank), name=f"open-{rank}")
        machine.run()
        ready: List[PFSFileHandle] = [h for h in handles if h is not None]
        assert len(ready) == self.nprocs

        pfs_file = self.mount.lookup(self.filename)
        slice_bytes = pfs_file.size_bytes // self.nprocs
        rounds = self.rounds
        if rounds is None:
            # With stride >= request_size this keeps every read inside
            # the rank's own slice (last read ends exactly at the slice
            # boundary in the stride == request_size case).
            rounds = max(1, slice_bytes // self.stride)

        result.started_at = machine.env.now

        def reader(handle: PFSFileHandle):
            pos = handle.rank * slice_bytes
            first = True
            for _ in range(rounds):
                if not first and self.compute_delay > 0:
                    yield from handle.node.compute(self.compute_delay)
                first = False
                while True:
                    try:
                        yield from handle.lseek(pos)
                        yield from handle.read(self.request_size)
                        break
                    except NodeCrashed:
                        # Re-seek and re-read after the crash window; the
                        # seek is idempotent so the retry is exactly-once.
                        yield from handle.client.wait_restarted()
                pos += self.stride

        for handle in ready:
            machine.spawn(reader(handle), name=f"reader-{handle.rank}")
        machine.run()
        result.finished_at = machine.env.now

        for handle in ready:
            machine.spawn(handle.close(), name=f"close-{handle.rank}")
        machine.run()

        result.handles = ready
        result.report = report_from_handles(ready, result.elapsed_s)
        return result


class SeparateFilesWorkload:
    """Each compute node reads its own PFS file (Figure 2's top curve).

    Files must already exist and be named ``f"{prefix}{rank}"``.
    """

    def __init__(
        self,
        machine: Machine,
        mount: PFSMount,
        prefix: str,
        request_size: int,
        compute_delay: float = 0.0,
        rounds: Optional[int] = None,
        nprocs: Optional[int] = None,
        prefetcher_factory: Optional[PrefetcherFactory] = None,
    ) -> None:
        if request_size <= 0:
            raise ValueError("request size must be positive")
        self.machine = machine
        self.mount = mount
        self.prefix = prefix
        self.request_size = request_size
        self.compute_delay = compute_delay
        self.rounds = rounds
        self.nprocs = nprocs or len(machine.clients)
        self.prefetcher_factory = prefetcher_factory

    def run(self) -> WorkloadResult:
        machine = self.machine
        handles: List[Optional[PFSFileHandle]] = [None] * self.nprocs
        result = WorkloadResult(report=None)  # type: ignore[arg-type]

        def opener(rank: int):
            prefetcher = self.prefetcher_factory(rank) if self.prefetcher_factory else None
            if prefetcher is not None and prefetcher.monitor is None:
                prefetcher.monitor = machine.monitor
            handle = yield from machine.clients[rank].open(
                self.mount,
                f"{self.prefix}{rank}",
                IOMode.M_ASYNC,
                rank=0,
                nprocs=1,
                prefetcher=prefetcher,
            )
            handles[rank] = handle

        for rank in range(self.nprocs):
            machine.spawn(opener(rank), name=f"open-{rank}")
        machine.run()
        ready: List[PFSFileHandle] = [h for h in handles if h is not None]

        result.started_at = machine.env.now

        def reader(index: int, handle: PFSFileHandle):
            rounds = self.rounds
            if rounds is None:
                rounds = max(1, handle.file.size_bytes // self.request_size)
            first = True
            for _ in range(rounds):
                if not first and self.compute_delay > 0:
                    yield from handle.node.compute(self.compute_delay)
                first = False
                while True:
                    try:
                        yield from handle.read(self.request_size)
                        break
                    except NodeCrashed:
                        yield from handle.client.wait_restarted()

        for index, handle in enumerate(ready):
            machine.spawn(reader(index, handle), name=f"reader-{index}")
        machine.run()
        result.finished_at = machine.env.now

        for handle in ready:
            machine.spawn(handle.close())
        machine.run()

        # Ranks here are all 0 (independent opens); report per index.
        report = BandwidthReport(
            total_bytes=sum(h.stats.bytes_read for h in ready),
            elapsed_s=result.elapsed_s,
        )
        prefetch_stats = None
        for index, h in enumerate(ready):
            report.read_call_time_by_rank[index] = h.stats.read_call_time
            report.bytes_by_rank[index] = h.stats.bytes_read
            report.calls_by_rank[index] = h.stats.read_calls
            if h.prefetcher is not None:
                prefetch_stats = (
                    h.prefetcher.stats
                    if prefetch_stats is None
                    else prefetch_stats.merge(h.prefetcher.stats)
                )
        report.prefetch = prefetch_stats
        result.handles = ready
        result.report = report
        return result


def merged_prefetch_stats(handles: List[PFSFileHandle]):
    """Aggregate prefetch stats across handles (None if no prefetchers)."""
    stats = None
    for h in handles:
        if h.prefetcher is not None:
            stats = h.prefetcher.stats if stats is None else stats.merge(h.prefetcher.stats)
    return stats
