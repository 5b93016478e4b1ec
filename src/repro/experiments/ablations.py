"""Ablations: design-choice studies beyond the paper's tables.

These exercise the paper's "future work" directions and the design
choices DESIGN.md calls out:

- prefetch depth (1 = the prototype, deeper pipelines);
- prefetch policy on non-sequential patterns (strided detection stays
  silent on random access);
- prefetching in other I/O modes (M_RECORD vs M_ASYNC);
- buffered (I/O-node cache) vs Fast Path transfers;
- machine scaling (compute node count).

The studies that toggle a registered mechanism (buffering, prefetch
location) resolve their configurations through the registry rather than
hand-rolling ``MachineConfig`` edits, so what "Fast Path off" means is
defined in exactly one place.  The ranked importance of every
registered mechanism is the observatory's own report:
``python -m repro.obs.ablation``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import MachineConfig, PFSConfig
from repro.core import DepthKAhead, NoPrefetch, Prefetcher, StridedPolicy
from repro.experiments.common import (
    KB,
    MB,
    ExperimentTable,
    run_collective,
    scaled_file_size,
)
from repro.machine import Machine
from repro.pfs import IOMode
from repro.workloads import CollectiveReadWorkload
from repro.workloads.patterns import RandomPattern, StridedPattern


def run_depth_ablation(
    depths: Sequence[int] = (1, 2, 4, 8),
    request_kb: int = 64,
    compute_delay: float = 0.025,
    rounds: int = 24,
) -> ExperimentTable:
    """Deeper prefetch pipelines on a balanced workload.

    Depth 1 (the prototype) cannot hide more than one request of
    latency; with a compute delay shorter than the read time, deeper
    pipelines keep the disks busy across several compute phases.
    """
    table = ExperimentTable(
        title=(
            f"Ablation: prefetch depth ({request_kb}KB requests, "
            f"{compute_delay}s compute delay)"
        ),
        columns=["depth", "bw_mbps", "hit_rate", "coverage"],
    )
    request = request_kb * KB
    file_size = scaled_file_size(request, 8, rounds)
    baseline = run_collective(
        request_size=request,
        file_size=file_size,
        compute_delay=compute_delay,
        prefetch=False,
        rounds=rounds,
    )
    table.add_row(0, baseline.collective_bandwidth_mbps, 0.0, 0.0)
    for depth in depths:
        report = run_collective(
            request_size=request,
            file_size=file_size,
            compute_delay=compute_delay,
            prefetch=True,
            rounds=rounds,
            policy_factory=lambda depth=depth: DepthKAhead(depth=depth),
        )
        assert report.prefetch is not None
        table.add_row(
            depth,
            report.collective_bandwidth_mbps,
            report.prefetch.hit_rate,
            report.prefetch.coverage,
        )
    return table


def run_mode_ablation(
    request_kb: int = 64,
    compute_delay: float = 0.05,
    rounds: int = 24,
) -> ExperimentTable:
    """Prefetching under other I/O modes (the paper's future work).

    The deterministic-offset modes (M_RECORD, M_ASYNC) prefetch well;
    the shared-pointer modes cannot anticipate their next offset, so the
    one-request-ahead policy never fires and they are unchanged.
    """
    table = ExperimentTable(
        title=f"Ablation: prefetching per I/O mode ({request_kb}KB, " f"{compute_delay}s delay)",
        columns=["mode", "bw_no_prefetch", "bw_prefetch", "speedup", "issued"],
    )
    request = request_kb * KB
    file_size = scaled_file_size(request, 8, rounds)
    for mode in (IOMode.M_RECORD, IOMode.M_ASYNC, IOMode.M_UNIX, IOMode.M_SYNC):
        without = run_collective(
            request_size=request,
            file_size=file_size,
            compute_delay=compute_delay,
            iomode=mode,
            prefetch=False,
            rounds=rounds,
        )
        with_pf = run_collective(
            request_size=request,
            file_size=file_size,
            compute_delay=compute_delay,
            iomode=mode,
            prefetch=True,
            rounds=rounds,
        )
        assert with_pf.prefetch is not None
        table.add_row(
            mode.name,
            without.collective_bandwidth_mbps,
            with_pf.collective_bandwidth_mbps,
            with_pf.collective_bandwidth_mbps / without.collective_bandwidth_mbps,
            with_pf.prefetch.issued,
        )
    return table


def _pattern_run(
    pattern_name: str,
    policy_name: str,
    request_kb: int = 64,
    compute_delay: float = 0.05,
    count: int = 24,
) -> tuple:
    """One M_ASYNC run over a synthetic access pattern; returns
    (bandwidth, prefetch stats or None)."""
    request = request_kb * KB
    file_size = 64 * MB
    machine = Machine(MachineConfig())
    mount = machine.mount("/pfs", PFSConfig())
    machine.create_file(mount, "data", file_size)

    policies = {
        "none": lambda: NoPrefetch(),
        "one-ahead": lambda: DepthKAhead(),
        "strided": lambda: StridedPolicy(),
    }
    prefetchers = [Prefetcher(policies[policy_name]()) for _ in range(8)]

    patterns = {
        "sequential": lambda rank: StridedPattern(
            request, request, start=rank * 8 * MB, count=count
        ),
        # Stride = 3 requests: an odd unit step walks all 8 I/O nodes
        # instead of beating on two of them.
        "strided": lambda rank: StridedPattern(
            request, 3 * request, start=rank * 8 * MB, count=count
        ),
        "random": lambda rank: RandomPattern(
            request, 8 * MB, count=count, seed=rank + 1
        ),
    }

    handles = [None] * 8

    def opener(rank):
        handles[rank] = yield from machine.clients[rank].open(
            mount,
            "data",
            IOMode.M_ASYNC,
            rank=0,
            nprocs=1,
            prefetcher=prefetchers[rank] if policy_name != "none" else None,
        )

    for rank in range(8):
        machine.spawn(opener(rank))
    machine.run()

    def reader(rank, handle):
        base = rank * 8 * MB
        first = True
        for offset, nbytes in patterns[pattern_name](rank).offsets():
            if not first:
                yield from handle.node.compute(compute_delay)
            first = False
            if pattern_name == "random":
                yield from handle.lseek(base + offset)
            else:
                yield from handle.lseek(offset)
            yield from handle.read(nbytes)

    for rank, handle in enumerate(handles):
        machine.spawn(reader(rank, handle))
    machine.run()

    total = sum(h.stats.bytes_read for h in handles)
    read_time = max(h.stats.read_call_time for h in handles)
    bw = total / read_time / MB if read_time else 0.0
    stats = None
    if policy_name != "none":
        stats = prefetchers[0].stats
        for pf in prefetchers[1:]:
            stats = stats.merge(pf.stats)
    return bw, stats


def run_policy_ablation(compute_delay: float = 0.05) -> ExperimentTable:
    """Policies vs access patterns.

    - one-ahead wins on sequential, wastes work on strided/random;
    - strided detection recovers the strided pattern, and stays silent
      on random access instead of thrashing.
    """
    table = ExperimentTable(
        title="Ablation: prefetch policy vs access pattern (M_ASYNC, 64KB)",
        columns=["pattern", "policy", "bw_mbps", "coverage", "wasted"],
    )
    for pattern in ("sequential", "strided", "random"):
        for policy in ("none", "one-ahead", "strided"):
            bw, stats = _pattern_run(pattern, policy, compute_delay=compute_delay)
            table.add_row(
                pattern,
                policy,
                bw,
                stats.coverage if stats else 0.0,
                stats.discarded if stats else 0,
            )
    return table


def run_buffering_ablation(request_kb: int = 64, rounds: int = 24) -> ExperimentTable:
    """Fast Path vs buffered transfers, cold and re-read.

    Fast Path wins cold sequential reads (no cache copies); the buffer
    cache wins re-reads that fit in I/O-node memory.
    """
    table = ExperimentTable(
        title=f"Ablation: Fast Path vs I/O-node buffer cache ({request_kb}KB)",
        columns=["config", "bw_cold_mbps", "bw_reread_mbps"],
    )
    from repro.obs.ablation import mechanism, resolve_configs

    request = request_kb * KB
    file_size = scaled_file_size(request, 8, rounds)
    for buffered in (False, True):
        # "Buffered" is the registry's fastpath-off state; sizing the
        # cache to hold the whole file is this study's local twist.
        overrides = dict(mechanism("fastpath").off) if buffered else {}
        overrides["machine.cache_blocks"] = file_size // (64 * KB) + 16
        machine_cfg, pfs_cfg, _ = resolve_configs(overrides)
        machine = Machine(machine_cfg)
        mount = machine.mount("/pfs", pfs_cfg)
        machine.create_file(mount, "data", file_size)
        cold = CollectiveReadWorkload(
            machine, mount, "data", request_size=request, rounds=rounds
        ).run()
        reread = CollectiveReadWorkload(
            machine, mount, "data", request_size=request, rounds=rounds
        ).run()
        table.add_row(
            "buffered" if buffered else "fastpath",
            cold.report.collective_bandwidth_mbps,
            reread.report.collective_bandwidth_mbps,
        )
    return table


def run_prefetch_location_ablation(
    request_kb: int = 64,
    compute_delay: float = 0.1,
    rounds: int = 24,
) -> ExperimentTable:
    """Client-side prefetching (the paper) vs server-side readahead.

    Server-side readahead (classic UFS-style, into the I/O-node buffer
    cache) hides the *disk* but still pays the full client-observed
    request path on every read; the paper's client-side prefetch hides
    the whole path.  Both combined change little over client-side alone.
    """
    table = ExperimentTable(
        title=(
            f"Ablation: client prefetch vs server readahead "
            f"({request_kb}KB, {compute_delay}s delay, buffered mount)"
        ),
        columns=["config", "bw_mbps", "mean_access_ms"],
    )
    from repro.obs.ablation import mechanism, resolve_configs

    request = request_kb * KB
    readahead_mech = mechanism("server_readahead")
    configs = [
        ("none", False, False),
        ("server-readahead", False, True),
        ("client-prefetch", True, False),
        ("both", True, True),
    ]
    for name, client_prefetch, readahead in configs:
        # The readahead mechanism carries its own context (a buffered
        # mount -- it is inert on Fast Path) and on/off knob settings.
        overrides = dict(readahead_mech.context)
        overrides.update(readahead_mech.on if readahead else readahead_mech.off)
        overrides["machine.cache_blocks"] = 256
        machine_cfg, pfs_cfg, _ = resolve_configs(overrides)
        machine = Machine(machine_cfg)
        mount = machine.mount("/pfs", pfs_cfg)
        machine.create_file(mount, "data", scaled_file_size(request, 8, rounds))
        workload = CollectiveReadWorkload(
            machine,
            mount,
            "data",
            request_size=request,
            compute_delay=compute_delay,
            rounds=rounds,
            prefetcher_factory=(
                (lambda rank: Prefetcher()) if client_prefetch else None
            ),
        )
        report = workload.run().report
        table.add_row(
            name,
            report.collective_bandwidth_mbps,
            report.mean_read_access_time_s * 1000,
        )
    return table


def run_scaling_ablation(
    node_counts: Sequence[int] = (2, 4, 8, 16, 32),
    request_kb: int = 64,
    compute_delay: float = 0.05,
    rounds: int = 16,
) -> ExperimentTable:
    """Compute-node scaling with a fixed 8-node I/O system.

    "the file system performance is scalable.  The access bandwidth seen
    by the user when using prefetching is also scalable" -- until the 8
    I/O nodes saturate.
    """
    table = ExperimentTable(
        title=(
            f"Ablation: compute-node scaling (8 I/O nodes, {request_kb}KB, "
            f"{compute_delay}s delay)"
        ),
        columns=["n_compute", "bw_no_prefetch", "bw_prefetch", "speedup"],
    )
    request = request_kb * KB
    for n_compute in node_counts:
        file_size = scaled_file_size(request, n_compute, rounds)
        without = run_collective(
            request_size=request,
            file_size=file_size,
            compute_delay=compute_delay,
            prefetch=False,
            n_compute=n_compute,
            rounds=rounds,
        )
        with_pf = run_collective(
            request_size=request,
            file_size=file_size,
            compute_delay=compute_delay,
            prefetch=True,
            n_compute=n_compute,
            rounds=rounds,
        )
        table.add_row(
            n_compute,
            without.collective_bandwidth_mbps,
            with_pf.collective_bandwidth_mbps,
            with_pf.collective_bandwidth_mbps / without.collective_bandwidth_mbps,
        )
    return table


def run_write_strategy_ablation(
    request_kb: int = 64,
    rounds: int = 16,
) -> ExperimentTable:
    """Write strategies: Fast Path vs write-through vs write-back.

    Fast Path streams straight to disk (no cache copies) and
    write-through pays both the copy and the disk; write-back returns
    once the cache holds the data, deferring disk writes to the sync
    daemon -- the classic burst-absorbing trade-off.
    """
    table = ExperimentTable(
        title=f"Ablation: write strategies ({request_kb}KB records, M_RECORD)",
        columns=["strategy", "write_bw_mbps", "mean_write_ms", "disk_writes_during"],
    )
    request = request_kb * KB

    from repro.workloads import CollectiveWriteWorkload

    for name, buffered, write_back in (
        ("fastpath", False, False),
        ("write-through", True, False),
        ("write-back", True, True),
    ):
        machine = Machine(
            MachineConfig(write_back=write_back, cache_blocks=512, sync_interval_s=30.0)
        )
        mount = machine.mount("/pfs", PFSConfig(buffered=buffered))
        machine.create_file(mount, "out", 0)
        result = CollectiveWriteWorkload(
            machine, mount, "out", request_size=request, rounds=rounds
        ).run()
        report = result.report
        disk_writes = sum(machine.monitor.counter_value(f"raid{i}.writes") for i in range(8))
        table.add_row(
            name,
            report.collective_bandwidth_mbps,
            report.mean_read_access_time_s * 1000,  # write-call time here
            int(disk_writes),
        )
    return table


def run_multiprogramming_ablation(
    request_kb: int = 64,
    compute_delay: float = 0.06,
    rounds: int = 16,
) -> ExperimentTable:
    """Two applications sharing the machine.

    Application A (4 nodes, balanced, prefetching) runs alone, then
    alongside application B (4 nodes, I/O-bound scan of another file).
    Contention stretches A's prefetch completion times -- partial hits
    replace full hits -- but prefetching still wins over not prefetching
    under the same interference.
    """
    table = ExperimentTable(
        title=(
            f"Ablation: multiprogramming interference ({request_kb}KB, "
            f"{compute_delay}s delay for app A)"
        ),
        columns=["scenario", "bw_A_mbps", "hitsA", "partialA"],
    )
    request = request_kb * KB
    file_size = scaled_file_size(request, 4, rounds)

    def run(with_interference: bool, a_prefetch: bool):
        machine = Machine(MachineConfig())
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "fileA", file_size)
        machine.create_file(mount, "fileB", file_size)
        prefetchers = [Prefetcher() for _ in range(4)]

        handles_a = [None] * 4

        def open_a(rank):
            handles_a[rank] = yield from machine.clients[rank].open(
                mount,
                "fileA",
                IOMode.M_RECORD,
                rank=rank,
                nprocs=4,
                prefetcher=prefetchers[rank] if a_prefetch else None,
            )

        handles_b = [None] * 4

        def open_b(rank):
            handles_b[rank] = yield from machine.clients[4 + rank].open(
                mount, "fileB", IOMode.M_RECORD, rank=rank, nprocs=4
            )

        for rank in range(4):
            machine.spawn(open_a(rank))
            if with_interference:
                machine.spawn(open_b(rank))
        machine.run()

        def reader_a(h):
            for _ in range(rounds):
                yield from h.node.compute(compute_delay)
                yield from h.read(request)

        def reader_b(h):
            while True:
                data = yield from h.read(request)
                if len(data) == 0:
                    return

        for h in handles_a:
            machine.spawn(reader_a(h))
        if with_interference:
            for h in handles_b:
                machine.spawn(reader_b(h))
        machine.run()

        total = sum(h.stats.bytes_read for h in handles_a)
        read_time = max(h.stats.read_call_time for h in handles_a)
        bw = total / read_time / MB
        if a_prefetch:
            stats = prefetchers[0].stats
            for pf in prefetchers[1:]:
                stats = stats.merge(pf.stats)
            return bw, stats.hits, stats.partial_hits
        return bw, 0, 0

    for name, interference, prefetch in (
        ("A alone, no prefetch", False, False),
        ("A alone, prefetch", False, True),
        ("A + B, no prefetch", True, False),
        ("A + B, prefetch", True, True),
    ):
        bw, hits, partial = run(interference, prefetch)
        table.add_row(name, bw, hits, partial)
    return table


def check_ablation_shapes(
    depth: Optional[ExperimentTable] = None,
    modes: Optional[ExperimentTable] = None,
    policies: Optional[ExperimentTable] = None,
) -> Optional[str]:
    """Sanity constraints on the ablation results."""
    if depth is not None:
        bw = depth.column("bw_mbps")
        if bw[1] <= bw[0]:
            return "depth-1 prefetching did not beat no-prefetching"
        if max(bw[2:]) < bw[1]:
            return "deeper pipelines never beat depth 1 despite short delays"
    if modes is not None:
        issued = dict(zip(modes.column("mode"), modes.column("issued")))
        if issued.get("M_UNIX", 0) != 0:
            return "one-ahead issued prefetches under M_UNIX (unpredictable)"
        if issued.get("M_RECORD", 0) == 0:
            return "no prefetches issued under M_RECORD"
    if policies is not None:
        rows = {(r[0], r[1]): r[2] for r in policies.rows}
        if rows[("sequential", "one-ahead")] <= rows[("sequential", "none")]:
            return "one-ahead did not help sequential access"
        if rows[("strided", "strided")] <= rows[("strided", "one-ahead")]:
            return "stride detection did not beat one-ahead on strided access"
    return None


def main() -> None:  # pragma: no cover
    depth = run_depth_ablation()
    print(depth.render(), "\n")
    modes = run_mode_ablation()
    print(modes.render(), "\n")
    policies = run_policy_ablation()
    print(policies.render(), "\n")
    buffering = run_buffering_ablation()
    print(buffering.render(), "\n")
    location = run_prefetch_location_ablation()
    print(location.render(), "\n")
    scaling = run_scaling_ablation()
    print(scaling.render(), "\n")
    problem = check_ablation_shapes(depth, modes, policies)
    print(f"shape check: {'OK' if problem is None else problem}")


if __name__ == "__main__":  # pragma: no cover
    main()
