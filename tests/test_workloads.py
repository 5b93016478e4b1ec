"""Unit and integration tests for workloads: patterns, drivers, traces."""

import pytest

from repro.config import MachineConfig, PFSConfig
from repro.core import DepthKAhead, Prefetcher
from repro.machine import Machine
from repro.pfs import IOMode
from repro.workloads import (
    CollectiveReadWorkload,
    RandomPattern,
    SeparateFilesWorkload,
    SequentialPattern,
    StridedPattern,
)
from repro.workloads.traces import (
    TraceEvent,
    TraceRecorder,
    TraceReplayer,
    load_trace,
)

KB = 1024
MB = 1024 * 1024


class TestPatterns:
    def test_sequential_basic(self):
        pat = SequentialPattern(100, count=3)
        assert list(pat.offsets()) == [(0, 100), (100, 100), (200, 100)]

    def test_sequential_limit_truncates(self):
        pat = SequentialPattern(100, limit=250)
        assert list(pat.offsets()) == [(0, 100), (100, 100), (200, 50)]

    def test_sequential_start_offset(self):
        pat = SequentialPattern(10, start=50, count=2)
        assert list(pat.offsets()) == [(50, 10), (60, 10)]

    def test_sequential_validation(self):
        with pytest.raises(ValueError):
            SequentialPattern(0)

    def test_strided_basic(self):
        pat = StridedPattern(10, stride=100, count=3)
        assert list(pat.offsets()) == [(0, 10), (100, 10), (200, 10)]

    def test_strided_limit(self):
        pat = StridedPattern(10, stride=100, limit=150)
        assert list(pat.offsets()) == [(0, 10), (100, 10)]

    def test_strided_validation(self):
        with pytest.raises(ValueError):
            StridedPattern(10, stride=0)

    def test_random_reproducible(self):
        a = list(RandomPattern(64, 4096, count=10, seed=7).offsets())
        b = list(RandomPattern(64, 4096, count=10, seed=7).offsets())
        assert a == b

    def test_random_seed_changes_sequence(self):
        a = list(RandomPattern(64, 4096, count=10, seed=7).offsets())
        b = list(RandomPattern(64, 4096, count=10, seed=8).offsets())
        assert a != b

    def test_random_within_bounds_and_aligned(self):
        for offset, nbytes in RandomPattern(64, 4096, count=50, seed=3).offsets():
            assert 0 <= offset <= 4096 - 64
            assert offset % 64 == 0
            assert nbytes == 64

    def test_random_validation(self):
        with pytest.raises(ValueError):
            RandomPattern(64, 32, count=1)
        with pytest.raises(ValueError):
            RandomPattern(64, 4096, count=0)


class TestCollectiveReadWorkload:
    def make(self, **kwargs):
        machine = Machine(MachineConfig(n_compute=4, n_io=4))
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", kwargs.pop("file_size", 4 * MB))
        defaults = dict(request_size=64 * KB, iomode=IOMode.M_RECORD)
        defaults.update(kwargs)
        return machine, CollectiveReadWorkload(machine, mount, "data", **defaults)

    def test_reads_whole_file_by_default(self):
        machine, workload = self.make(file_size=4 * MB)
        result = workload.run()
        # 4MB / (4 nodes x 64KB) = 16 rounds, everyone reads everything.
        assert result.report.total_bytes == 4 * MB
        assert all(h.stats.read_calls == 16 for h in result.handles)

    def test_explicit_rounds(self):
        machine, workload = self.make(rounds=3)
        result = workload.run()
        assert all(h.stats.read_calls == 3 for h in result.handles)

    def test_handles_closed_after_run(self):
        machine, workload = self.make(rounds=2)
        result = workload.run()
        assert all(h.closed for h in result.handles)

    def test_compute_delay_extends_elapsed_not_read_time(self):
        _, fast = self.make(rounds=4, compute_delay=0.0)
        r_fast = fast.run()
        _, slow = self.make(rounds=4, compute_delay=0.2)
        r_slow = slow.run()
        assert r_slow.elapsed_s > r_fast.elapsed_s + 0.5
        # Read-call time itself must not include the compute delays.
        assert r_slow.report.read_time_s < r_slow.elapsed_s / 2

    def test_prefetcher_factory_called_per_rank(self):
        ranks = []

        def factory(rank):
            ranks.append(rank)
            return Prefetcher(DepthKAhead())

        _, workload = self.make(rounds=2, prefetcher_factory=factory)
        result = workload.run()
        assert sorted(ranks) == [0, 1, 2, 3]
        assert result.report.prefetch is not None

    def test_nprocs_subset(self):
        machine, workload = self.make(rounds=2, nprocs=2)
        result = workload.run()
        assert len(result.handles) == 2

    def test_async_partition_seeks_ranks_apart(self):
        machine, workload = self.make(
            file_size=4 * MB, rounds=2, iomode=IOMode.M_ASYNC, async_partition=True
        )
        result = workload.run()
        # Rank r started at r * (file/4): private pointer ends 2 reads later.
        for h in result.handles:
            expected = h.rank * MB + 2 * 64 * KB
            assert h.private_offset == expected

    def test_validation(self):
        machine = Machine(MachineConfig(n_compute=2, n_io=2))
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", MB)
        with pytest.raises(ValueError):
            CollectiveReadWorkload(machine, mount, "data", request_size=0)
        with pytest.raises(ValueError):
            CollectiveReadWorkload(machine, mount, "data", request_size=64, compute_delay=-1)
        with pytest.raises(ValueError):
            CollectiveReadWorkload(machine, mount, "data", request_size=64, nprocs=5)


class TestCollectiveWriteWorkload:
    def make(self, **kwargs):
        from repro.workloads import CollectiveWriteWorkload

        machine = Machine(MachineConfig(n_compute=4, n_io=4, **kwargs.pop("mc", {})))
        mount = machine.mount("/pfs", PFSConfig(**kwargs.pop("pfs", {})))
        pfs_file = machine.create_file(mount, "out", 0)
        defaults = dict(request_size=64 * KB, rounds=4)
        defaults.update(kwargs)
        return (
            machine,
            pfs_file,
            CollectiveWriteWorkload(machine, mount, "out", **defaults),
        )

    def test_records_land_in_rank_slots(self):
        from repro.workloads import CollectiveWriteWorkload

        machine, pfs_file, workload = self.make()
        result = workload.run()
        assert result.report.total_bytes == 4 * 4 * 64 * KB
        assert pfs_file.size_bytes == 4 * 4 * 64 * KB
        # Verify record (rank=2, round=3) against ground truth.
        from repro.pfs.stripe import decluster
        from repro.ufs.data import concat_data

        offset = (3 * 4 + 2) * 64 * KB
        got = concat_data(
            [
                machine.ufses[p.io_node].content(
                    pfs_file.file_id, p.ufs_offset, p.length
                )
                for p in decluster(pfs_file.attrs, offset, 64 * KB)
            ]
        )
        assert got == CollectiveWriteWorkload.record_content(2, 3, 64 * KB)
        assert machine.verify() == []

    def test_write_back_machine_completes(self):
        machine, pfs_file, workload = self.make(mc=dict(write_back=True), pfs=dict(buffered=True))
        result = workload.run()
        assert result.report.total_bytes == 4 * 4 * 64 * KB
        assert machine.verify() == []

    def test_report_uses_write_metrics(self):
        machine, _f, workload = self.make()
        result = workload.run()
        assert result.report.collective_bandwidth_mbps > 0
        assert all(h.stats.write_calls == 4 for h in result.handles)
        assert all(h.closed for h in result.handles)

    def test_validation(self):
        from repro.workloads import CollectiveWriteWorkload

        machine = Machine(MachineConfig(n_compute=2, n_io=2))
        mount = machine.mount("/pfs")
        machine.create_file(mount, "out", 0)
        with pytest.raises(ValueError):
            CollectiveWriteWorkload(machine, mount, "out", request_size=0, rounds=1)
        with pytest.raises(ValueError):
            CollectiveWriteWorkload(machine, mount, "out", request_size=64, rounds=0)


class TestSeparateFilesWorkload:
    def test_each_node_reads_its_own_file(self):
        machine = Machine(MachineConfig(n_compute=4, n_io=4))
        mount = machine.mount("/pfs", PFSConfig())
        for rank in range(4):
            machine.create_file(mount, f"f{rank}", 512 * KB, rotate=True)
        workload = SeparateFilesWorkload(machine, mount, "f", request_size=64 * KB)
        result = workload.run()
        assert result.report.total_bytes == 4 * 512 * KB
        names = sorted(h.file.name for h in result.handles)
        assert names == ["f0", "f1", "f2", "f3"]

    def test_prefetching_supported(self):
        machine = Machine(MachineConfig(n_compute=2, n_io=2))
        mount = machine.mount("/pfs", PFSConfig())
        for rank in range(2):
            machine.create_file(mount, f"f{rank}", 512 * KB)
        workload = SeparateFilesWorkload(
            machine,
            mount,
            "f",
            request_size=64 * KB,
            compute_delay=0.1,
            prefetcher_factory=lambda rank: Prefetcher(DepthKAhead()),
        )
        result = workload.run()
        assert result.report.prefetch is not None
        assert result.report.prefetch.coverage > 0.5


class TestTraces:
    def test_event_json_roundtrip(self):
        event = TraceEvent(rank=3, op="read", offset=128, nbytes=64, issued_at=1.5, duration=0.25)
        assert TraceEvent.from_json(event.to_json()) == event

    def test_load_trace_skips_blank_lines(self):
        event = TraceEvent(rank=0, op="read", offset=0, nbytes=1, issued_at=0.0)
        events = load_trace([event.to_json(), "", "  "])
        assert events == [event]

    def make_machine(self):
        machine = Machine(MachineConfig(n_compute=2, n_io=2))
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", 2 * MB)
        return machine, mount

    def record(self, machine, mount, nreads=4):
        recorders = []

        def runner(rank):
            handle = yield from machine.clients[rank].open(
                mount, "data", IOMode.M_RECORD, rank=rank, nprocs=2
            )
            recorder = TraceRecorder(handle)
            recorders.append(recorder)
            for _ in range(nreads):
                yield from handle.node.compute(0.05)
                yield from recorder.read(64 * KB)

        for rank in range(2):
            machine.spawn(runner(rank))
        machine.run()
        return [line for r in recorders for line in r.dump()]

    def test_recorder_captures_offsets_and_durations(self):
        machine, mount = self.make_machine()
        lines = self.record(machine, mount)
        events = load_trace(lines)
        assert len(events) == 8
        reads = [e for e in events if e.op == "read"]
        assert all(e.nbytes == 64 * KB for e in reads)
        assert all(e.duration > 0 for e in reads)
        rank0 = sorted(e.offset for e in reads if e.rank == 0)
        # Rank 0's M_RECORD offsets: 0, 2*64K, 4*64K, 6*64K.
        assert rank0 == [0, 128 * KB, 256 * KB, 384 * KB]

    def test_replay_reissues_same_reads(self):
        machine, mount = self.make_machine()
        lines = self.record(machine, mount)

        machine2, mount2 = self.make_machine()
        events = load_trace(lines)
        handles = []

        def runner(rank):
            handle = yield from machine2.clients[rank].open(
                mount2, "data", IOMode.M_RECORD, rank=rank, nprocs=2
            )
            handles.append(handle)
            replayer = TraceReplayer(handle, events)
            count = yield from replayer.replay()
            return count

        procs = [machine2.spawn(runner(rank)) for rank in range(2)]
        machine2.run()
        assert all(p.value == 4 for p in procs)
        assert all(h.stats.read_calls == 4 for h in handles)

    def test_replay_honour_gaps_takes_longer(self):
        machine, mount = self.make_machine()
        lines = self.record(machine, mount)
        events = load_trace(lines)

        def run_replay(honour):
            m2, mt2 = self.make_machine()

            def runner(rank):
                handle = yield from m2.clients[rank].open(
                    mt2, "data", IOMode.M_RECORD, rank=rank, nprocs=2
                )
                replayer = TraceReplayer(handle, events, honour_gaps=honour)
                yield from replayer.replay()

            for rank in range(2):
                m2.spawn(runner(rank))
            m2.run()
            return m2.env.now

        assert run_replay(True) > run_replay(False) + 0.1

    def test_replay_unknown_op_rejected(self):
        machine, mount = self.make_machine()
        bad = TraceEvent(rank=0, op="fsync", offset=0, nbytes=0, issued_at=0.0)

        def runner():
            handle = yield from machine.clients[0].open(
                mount, "data", IOMode.M_RECORD, rank=0, nprocs=1
            )
            replayer = TraceReplayer(handle, [bad])
            yield from replayer.replay()

        machine.spawn(runner())
        with pytest.raises(ValueError):
            machine.run()
