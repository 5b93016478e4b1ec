"""Dense full-machine integration scenarios.

Each test drives the entire stack -- multiple mounts, mixed readers and
writers, prefetching, buffered and Fast Path traffic concurrently --
and finishes with byte-level content checks plus `Machine.verify()`.
"""


from repro.config import MachineConfig, PFSConfig
from repro.core import DepthKAhead, Prefetcher, StrideDetector
from repro.machine import Machine
from repro.pfs import IOMode
from repro.ufs.data import SyntheticData

KB = 1024
MB = 1024 * 1024


def pfs_content(machine, pfs_file, offset, nbytes):
    from repro.pfs.stripe import decluster
    from repro.ufs.data import concat_data

    return concat_data(
        [
            machine.ufses[p.io_node].content(pfs_file.file_id, p.ufs_offset, p.length)
            for p in decluster(pfs_file.attrs, offset, nbytes)
        ]
    )


class TestMixedWorkloads:
    def test_two_mounts_concurrent_reader_and_writer_apps(self):
        """App A reads /input with prefetching while app B writes /output;
        both finish, data is exact, machine invariants hold."""
        machine = Machine(MachineConfig(n_compute=8, n_io=8))
        input_mount = machine.mount("/input", PFSConfig(stripe_unit=64 * KB))
        output_mount = machine.mount("/output", PFSConfig(stripe_unit=256 * KB))
        machine.create_file(input_mount, "in", 8 * MB)
        out_file = machine.create_file(output_mount, "out", 0)

        read_bytes = {"n": 0}

        def reader_app(rank):
            handle = yield from machine.clients[rank].open(
                input_mount,
                "in",
                IOMode.M_RECORD,
                rank=rank,
                nprocs=4,
                prefetcher=Prefetcher(DepthKAhead()),
            )
            for _ in range(8):
                yield from handle.node.compute(0.03)
                data = yield from handle.read(64 * KB)
                read_bytes["n"] += len(data)
            yield from handle.close()

        def writer_app(rank):
            handle = yield from machine.clients[4 + rank].open(
                output_mount, "out", IOMode.M_RECORD, rank=rank, nprocs=4
            )
            for step in range(4):
                payload = SyntheticData(7000 + rank * 10 + step, 0, 128 * KB)
                yield from handle.write(payload)
            yield from handle.close()

        for rank in range(4):
            machine.spawn(reader_app(rank))
            machine.spawn(writer_app(rank))
        machine.run()

        assert read_bytes["n"] == 4 * 8 * 64 * KB
        assert out_file.size_bytes == 4 * 4 * 128 * KB
        # Spot-check writer content: rank 2, step 1 record.
        offset = (1 * 4 + 2) * 128 * KB
        assert pfs_content(machine, out_file, offset, 128 * KB) == SyntheticData(7021, 0, 128 * KB)
        assert machine.verify() == []

    def test_same_file_reader_behind_writer(self):
        """A producer appends records; a consumer polls size and reads
        what exists -- classic pipeline through the file system."""
        machine = Machine(MachineConfig(n_compute=2, n_io=4))
        mount = machine.mount("/pfs")
        pfs_file = machine.create_file(mount, "stream", 0)
        consumed = []

        def producer():
            handle = yield from machine.clients[0].open(
                mount, "stream", IOMode.M_ASYNC, rank=0, nprocs=1
            )
            for step in range(6):
                yield from handle.node.compute(0.05)
                yield from handle.write(SyntheticData(9000 + step, 0, 64 * KB))
            yield from handle.close()

        def consumer():
            handle = yield from machine.clients[1].open(
                mount, "stream", IOMode.M_ASYNC, rank=0, nprocs=1
            )
            read = 0
            idle = 0
            while read < 6 * 64 * KB and idle < 100:
                if pfs_file.size_bytes > read:
                    data = yield from handle.read(64 * KB)
                    expected = SyntheticData(9000 + read // (64 * KB), 0, 64 * KB)
                    assert data == expected
                    consumed.append(len(data))
                    read += len(data)
                    idle = 0
                else:
                    idle += 1
                    yield from handle.node.compute(0.02)
            yield from handle.close()

        machine.spawn(producer())
        machine.spawn(consumer())
        machine.run()
        assert sum(consumed) == 6 * 64 * KB
        assert machine.verify() == []

    def test_stride_prefetcher_in_mixed_pattern_app(self):
        """One app alternates sequential scans with random probes; the
        stride-detecting depth-k pipeline keeps working and data stays
        correct."""
        machine = Machine(MachineConfig(n_compute=1, n_io=4))
        mount = machine.mount("/pfs")
        pfs_file = machine.create_file(mount, "data", 8 * MB)
        pf = Prefetcher(DepthKAhead(depth=3, detector=StrideDetector()))

        def app():
            handle = yield from machine.clients[0].open(
                mount, "data", IOMode.M_ASYNC, rank=0, nprocs=1, prefetcher=pf
            )
            # Sequential scan.
            for _ in range(8):
                yield from handle.node.compute(0.05)
                data = yield from handle.read(64 * KB)
                assert len(data) == 64 * KB
            # Random probes.
            for k in (97, 3, 55, 20, 88, 41):
                yield from handle.lseek(k * 64 * KB)
                data = yield from handle.read(64 * KB)
                assert data == pfs_content(machine, pfs_file, k * 64 * KB, 64 * KB)
            # Back to sequential from the current position.
            for _ in range(4):
                yield from handle.node.compute(0.05)
                yield from handle.read(64 * KB)
            yield from handle.close()

        machine.spawn(app())
        machine.run()
        assert pf.stats.demand_reads == 18
        assert machine.verify() == []

    def test_sixtyfour_node_machine_smoke(self):
        """A 64-compute-node, 16-I/O-node machine runs a collective read
        without errors and stays balanced."""
        from repro.workloads import CollectiveReadWorkload

        machine = Machine(MachineConfig(n_compute=64, n_io=16))
        mount = machine.mount("/pfs")
        machine.create_file(mount, "data", 64 * 4 * 64 * KB)
        result = CollectiveReadWorkload(
            machine, mount, "data", request_size=64 * KB, rounds=4
        ).run()
        assert result.report.total_bytes == 64 * 4 * 64 * KB
        assert result.report.balanced > 0.5
        assert machine.verify() == []

    def test_prefetch_across_mode_switch(self):
        """setiomode mid-stream: the prefetcher keeps serving correctly
        after the file switches from M_UNIX to M_RECORD."""
        machine = Machine(MachineConfig(n_compute=1, n_io=2))
        mount = machine.mount("/pfs")
        pfs_file = machine.create_file(mount, "data", 2 * MB)
        pf = Prefetcher(DepthKAhead())

        def app():
            handle = yield from machine.clients[0].open(
                mount, "data", IOMode.M_UNIX, rank=0, nprocs=1, prefetcher=pf
            )
            first = yield from handle.read(64 * KB)  # M_UNIX: no prefetch
            yield from handle.setiomode(IOMode.M_RECORD)
            second = yield from handle.read(64 * KB)
            yield from handle.node.compute(0.2)
            third = yield from handle.read(64 * KB)
            return first, second, third

        p = machine.spawn(app())
        machine.run()
        first, second, third = p.value
        assert first == pfs_content(machine, pfs_file, 0, 64 * KB)
        assert second == pfs_content(machine, pfs_file, 64 * KB, 64 * KB)
        assert third == pfs_content(machine, pfs_file, 128 * KB, 64 * KB)
        assert pf.stats.hits >= 1  # the post-switch prefetch landed
        assert machine.verify() == []
