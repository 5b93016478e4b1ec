"""Unit tests for the bandwidth metrics (the paper's section-4 definitions)."""

import pytest

from repro.metrics import MB, BandwidthReport, report_from_handles


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
