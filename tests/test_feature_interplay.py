"""Interplay tests: features combined in ways no single-feature test hits."""


from repro.config import MachineConfig, PFSConfig
from repro.core import DepthKAhead, Prefetcher
from repro.machine import Machine
from repro.pfs import IOMode
from repro.ufs.data import LiteralData

KB = 1024
MB = 1024 * 1024


class TestClientPrefetchOnBufferedMount:
    def test_prefetch_with_server_readahead_and_cache(self):
        """Client prefetching over a buffered mount with server-side
        readahead: three caching layers stacked; data stays exact."""
        machine = Machine(
            MachineConfig(n_compute=2, n_io=2, server_readahead_blocks=2, cache_blocks=128)
        )
        mount = machine.mount("/pfs", PFSConfig(buffered=True))
        pfs_file = machine.create_file(mount, "data", 4 * MB)
        pf = Prefetcher(DepthKAhead())

        chunks = []

        def app():
            handle = yield from machine.clients[0].open(
                mount, "data", IOMode.M_ASYNC, rank=0, nprocs=1, prefetcher=pf
            )
            for _ in range(8):
                yield from handle.node.compute(0.05)
                data = yield from handle.read(64 * KB)
                chunks.append(data.to_bytes())
            yield from handle.close()

        machine.spawn(app())
        machine.run()
        # Ground truth via stripe reassembly:
        from repro.pfs.stripe import decluster
        from repro.ufs.data import concat_data

        for k, chunk in enumerate(chunks):
            truth = concat_data(
                [
                    machine.ufses[p.io_node].content(
                        pfs_file.file_id, p.ufs_offset, p.length
                    )
                    for p in decluster(pfs_file.attrs, k * 64 * KB, 64 * KB)
                ]
            ).to_bytes()
            assert chunk == truth
        assert pf.stats.coverage > 0.5
        assert machine.verify() == []

    def test_write_back_then_prefetched_reread(self):
        """Write with write-back, then re-read through the prefetcher
        before any flush: data must come from the dirty cache blocks."""
        machine = Machine(
            MachineConfig(n_compute=2, n_io=2, write_back=True, sync_interval_s=1000.0)
        )
        mount = machine.mount("/pfs", PFSConfig(buffered=True))
        machine.create_file(mount, "data", 0)
        payload = bytes(range(256)) * 1024  # 256KB
        pf = Prefetcher(DepthKAhead())

        def app():
            writer = yield from machine.clients[0].open(
                mount, "data", IOMode.M_ASYNC, rank=0, nprocs=1
            )
            yield from writer.write(LiteralData(payload))
            reader = yield from machine.clients[1].open(
                mount, "data", IOMode.M_ASYNC, rank=0, nprocs=1, prefetcher=pf
            )
            out = []
            for _ in range(4):
                yield from reader.node.compute(0.05)
                data = yield from reader.read(64 * KB)
                out.append(data.to_bytes())
            return b"".join(out)

        p = machine.spawn(app())
        machine.run(until=p)
        assert p.value == payload
        # Nothing was flushed yet: the disks never saw a write.
        assert machine.monitor.counter_value("raid0.writes") == 0
        assert machine.monitor.counter_value("raid1.writes") == 0


class TestPrefetchWithTruncate:
    def test_stale_prefetch_not_served_after_truncate(self):
        """A prefetched-then-truncated region must not serve stale data:
        reads past the new EOF return empty regardless of buffers."""
        machine = Machine(MachineConfig(n_compute=2, n_io=2))
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", 1 * MB)
        pf = Prefetcher(DepthKAhead())

        def app():
            handle = yield from machine.clients[0].open(
                mount, "data", IOMode.M_ASYNC, rank=0, nprocs=1, prefetcher=pf
            )
            yield from handle.read(64 * KB)  # prefetches block 1
            yield machine.env.timeout(1.0)  # it lands
            yield from machine.clients[1].truncate(mount, "data", 64 * KB)
            data = yield from handle.read(64 * KB)  # now past EOF
            return len(data)

        p = machine.spawn(app())
        machine.run()
        assert p.value == 0


class TestARTSharedBetweenIreadAndPrefetch:
    def test_iread_and_prefetch_share_the_art_pool(self):
        machine = Machine(MachineConfig(n_compute=1, n_io=2, art_threads=2))
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", 4 * MB)
        pf = Prefetcher(DepthKAhead(depth=2))

        def app():
            handle = yield from machine.clients[0].open(
                mount, "data", IOMode.M_ASYNC, rank=0, nprocs=1, prefetcher=pf
            )
            yield from handle.read(64 * KB)  # queues 2 prefetches
            request = yield from handle.iread(64 * KB)  # queues behind them
            data = yield request.event
            return len(data)

        p = machine.spawn(app())
        machine.run()
        assert p.value == 64 * KB
        completed = machine.monitor.counter_value("art.completed.prefetch")
        assert completed >= 2


class TestSeparateFilesWithRotationAndPrefetch:
    def test_rotated_files_prefetch_independently(self):
        from repro.workloads import SeparateFilesWorkload

        machine = Machine(MachineConfig(n_compute=4, n_io=4))
        mount = machine.mount("/pfs", PFSConfig())
        for rank in range(4):
            machine.create_file(mount, f"f{rank}", 1 * MB, rotate=True)
        result = SeparateFilesWorkload(
            machine,
            mount,
            "f",
            request_size=64 * KB,
            compute_delay=0.06,
            prefetcher_factory=lambda rank: Prefetcher(DepthKAhead()),
        ).run()
        assert result.report.prefetch.coverage > 0.7
        assert result.report.balanced > 0.7
        assert machine.verify() == []
