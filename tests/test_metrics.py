"""Unit tests for the bandwidth metrics (the paper's section-4
definitions), the bottleneck report and the prefetch-stats merge."""

import json

import pytest

from repro.experiments.common import KB, run_collective, scaled_file_size
from repro.metrics import MB, BandwidthReport, report_from_handles
from repro.obs.stats import PrefetchStats


def make_report(**kwargs):
    defaults = dict(total_bytes=8 * MB, elapsed_s=2.0)
    defaults.update(kwargs)
    return BandwidthReport(**defaults)


class TestBandwidthReport:
    def test_collective_bandwidth_uses_slowest_node(self):
        report = make_report()
        report.read_call_time_by_rank = {0: 1.0, 1: 2.0, 2: 0.5}
        # 8MB / 2.0s (slowest node's in-call time) = 4 MB/s.
        assert report.read_time_s == 2.0
        assert report.collective_bandwidth_mbps == pytest.approx(4.0)

    def test_elapsed_bandwidth(self):
        report = make_report()
        assert report.elapsed_bandwidth_mbps == pytest.approx(4.0)

    def test_empty_report_is_safe(self):
        report = make_report(total_bytes=0, elapsed_s=0.0)
        assert report.collective_bandwidth_mbps == 0.0
        assert report.elapsed_bandwidth_mbps == 0.0
        assert report.read_time_s == 0.0
        assert report.mean_read_access_time_s == 0.0
        assert report.balanced == 1.0

    def test_per_node_bandwidth(self):
        report = make_report()
        report.read_call_time_by_rank = {0: 1.0, 1: 2.0}
        report.bytes_by_rank = {0: 4 * MB, 1: 4 * MB}
        per_node = report.per_node_bandwidth_mbps
        assert per_node[0] == pytest.approx(4.0)
        assert per_node[1] == pytest.approx(2.0)

    def test_balanced_metric(self):
        report = make_report()
        report.read_call_time_by_rank = {0: 1.0, 1: 1.0}
        report.bytes_by_rank = {0: 4 * MB, 1: 2 * MB}
        # min/max per-node bandwidth = 2/4.
        assert report.balanced == pytest.approx(0.5)

    def test_mean_access_time(self):
        report = make_report()
        report.read_call_time_by_rank = {0: 1.0, 1: 3.0}
        report.calls_by_rank = {0: 10, 1: 10}
        assert report.mean_read_access_time_s == pytest.approx(0.2)


class TestReportFromHandles:
    def test_aggregates_real_handles(self):
        from repro.config import MachineConfig, PFSConfig
        from repro.machine import Machine
        from repro.pfs import IOMode

        machine = Machine(MachineConfig(n_compute=2, n_io=2))
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", 1024 * 1024)
        handles = []

        def runner(rank):
            handle = yield from machine.clients[rank].open(
                mount, "data", IOMode.M_RECORD, rank=rank, nprocs=2
            )
            handles.append(handle)
            yield from handle.read(64 * 1024)
            yield from handle.read(64 * 1024)

        for rank in range(2):
            machine.spawn(runner(rank))
        machine.run()

        report = report_from_handles(handles, elapsed_s=machine.env.now)
        assert report.total_bytes == 4 * 64 * 1024
        assert set(report.read_call_time_by_rank) == {0, 1}
        times = report.read_call_time_by_rank
        assert all(times[r] > 0 for r in sorted(times))
        assert report.calls_by_rank == {0: 2, 1: 2}
        assert report.prefetch is None
        assert 0 < report.collective_bandwidth_mbps < 1000

    def test_merges_prefetch_stats(self):
        from repro.config import MachineConfig, PFSConfig
        from repro.core import DepthKAhead, Prefetcher
        from repro.machine import Machine
        from repro.pfs import IOMode

        machine = Machine(MachineConfig(n_compute=2, n_io=2))
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", 4 * 1024 * 1024)
        handles = []

        def runner(rank):
            handle = yield from machine.clients[rank].open(
                mount,
                "data",
                IOMode.M_RECORD,
                rank=rank,
                nprocs=2,
                prefetcher=Prefetcher(DepthKAhead()),
            )
            handles.append(handle)
            for _ in range(3):
                yield from handle.read(64 * 1024)

        for rank in range(2):
            machine.spawn(runner(rank))
        machine.run()

        report = report_from_handles(handles, elapsed_s=machine.env.now)
        assert report.prefetch is not None
        # Both ranks' stats merged: 3 demand reads each.
        assert report.prefetch.demand_reads == 6


# -- which resource saturated: Machine.bottleneck_report ---------------------


def small_run(prefetch=False, **kwargs):
    """A fast 4C/4IO collective read (16 read calls total)."""
    request = 128 * KB
    return run_collective(
        request_size=request,
        file_size=scaled_file_size(request, n_compute=4, rounds=4),
        prefetch=prefetch,
        rounds=4,
        n_compute=4,
        n_io=4,
        keep_machine=True,
        **kwargs,
    )


class TestBottleneckReport:
    def test_bottleneck_report_is_independent_of_tracing(self, prefetch_enabled):
        # Tracing turns the RAID, mesh and RPC fast paths off; the
        # busy-seconds they leave behind must not depend on it.
        fast = small_run(prefetch=prefetch_enabled).machine.bottleneck_report()
        stepped = small_run(prefetch=prefetch_enabled, trace=True).machine.bottleneck_report()
        assert fast is not None
        assert fast.to_jsonable() == stepped.to_jsonable()

    def test_bottleneck_names_the_disks_for_io_bound_reads(self):
        bottleneck = small_run(prefetch=True).machine.bottleneck_report()
        assert bottleneck is not None
        # An I/O-bound collective read saturates the raid devices, not
        # the mesh or the CPUs (the paper's section 4.1 story).
        assert bottleneck.resource.startswith("disk ")
        assert bottleneck.utilization > 0.5
        assert "disk" in bottleneck.by_family
        described = bottleneck.describe()
        assert "bottleneck: disk" in described
        jsonable = bottleneck.to_jsonable()
        assert json.loads(json.dumps(jsonable)) == jsonable


# -- PrefetchStats.merge algebra --------------------------------------------


def stats(hits, fractions):
    out = PrefetchStats(hits=hits, issued=hits)
    out.overlap_fractions = list(fractions)
    return out


class TestMergeAlgebra:
    """``PrefetchStats.merge`` is commutative and associative, so
    machine-wide aggregation cannot depend on rank iteration order."""

    def test_merge_is_commutative(self):
        a = stats(2, [0.9, 0.1])
        b = stats(3, [0.5])
        assert a.merge(b) == b.merge(a)

    def test_merge_is_associative(self):
        a = stats(1, [0.7, 0.2])
        b = stats(4, [1.0])
        c = stats(2, [0.0, 0.4])
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_merge_sums_and_preserves_mean(self):
        a = stats(2, [0.8, 0.4])
        b = stats(1, [0.6])
        merged = a.merge(b)
        assert merged.hits == 3
        assert merged.overlap_fractions == [0.4, 0.6, 0.8]
        assert merged.mean_overlap_fraction == pytest.approx(0.6)
