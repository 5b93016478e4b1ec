"""Integration tests for the PFS write path across I/O modes."""

import pytest

from repro.config import MachineConfig, PFSConfig
from repro.machine import Machine
from repro.pfs import IOMode
from repro.ufs.data import LiteralData

KB = 1024
MB = 1024 * 1024

# The ``machine`` fixture (4 compute / 4 I/O) comes from tests/conftest.py.


def open_all(machine, mount, name, mode, nprocs=4):
    handles = [None] * nprocs

    def opener(rank):
        handles[rank] = yield from machine.clients[rank].open(
            mount, name, mode, rank=rank, nprocs=nprocs
        )

    for rank in range(nprocs):
        machine.spawn(opener(rank))
    machine.run()
    return handles


def content(machine, pfs_file, offset, nbytes):
    from repro.pfs.stripe import decluster
    from repro.ufs.data import concat_data

    return concat_data(
        [
            machine.ufses[p.io_node].content(pfs_file.file_id, p.ufs_offset, p.length)
            for p in decluster(pfs_file.attrs, offset, nbytes)
        ]
    )


class TestMUnixWrites:
    def test_appends_serialise_without_overlap(self, machine):
        mount = machine.mount("/pfs")
        pfs_file = machine.create_file(mount, "log", 0)
        handles = open_all(machine, mount, "log", IOMode.M_UNIX)

        def writer(h):
            payload = bytes([h.rank + 1]) * (64 * KB)
            yield from h.write(LiteralData(payload))

        for h in handles:
            machine.spawn(writer(h))
        machine.run()
        assert pfs_file.size_bytes == 4 * 64 * KB
        assert pfs_file.shared_offset == 4 * 64 * KB
        # Every 64KB extent is one writer's payload, each exactly once.
        raw = content(machine, pfs_file, 0, 4 * 64 * KB).to_bytes()
        seen = set()
        for k in range(4):
            chunk = raw[k * 64 * KB : (k + 1) * 64 * KB]
            assert len(set(chunk)) == 1
            seen.add(chunk[0])
        assert seen == {1, 2, 3, 4}


class TestMSyncWrites:
    def test_rank_ordered_layout(self, machine):
        mount = machine.mount("/pfs")
        pfs_file = machine.create_file(mount, "data", 0)
        handles = open_all(machine, mount, "data", IOMode.M_SYNC)

        def writer(h):
            payload = bytes([h.rank + 10]) * (32 * KB)
            yield from h.write(LiteralData(payload))

        for h in handles:
            machine.spawn(writer(h))
        machine.run()
        raw = content(machine, pfs_file, 0, 4 * 32 * KB).to_bytes()
        for rank in range(4):
            chunk = raw[rank * 32 * KB : (rank + 1) * 32 * KB]
            assert chunk == bytes([rank + 10]) * (32 * KB)


class TestMGlobalWrites:
    def test_single_physical_write(self, machine):
        mount = machine.mount("/pfs")
        pfs_file = machine.create_file(mount, "data", 64 * KB)
        handles = open_all(machine, mount, "data", IOMode.M_GLOBAL)
        before = sum(machine.monitor.counter_value(f"raid{i}.writes") for i in range(4))

        def writer(h):
            yield from h.write(LiteralData(b"G" * (64 * KB)))

        for h in handles:
            machine.spawn(writer(h))
        machine.run()
        after = sum(machine.monitor.counter_value(f"raid{i}.writes") for i in range(4))
        assert after - before == 1  # only the leader wrote
        assert content(machine, pfs_file, 0, 64 * KB).to_bytes() == b"G" * (64 * KB)
        assert pfs_file.shared_offset == 64 * KB


class TestMLogWrites:
    def test_arrival_order_without_holes(self, machine):
        mount = machine.mount("/pfs")
        pfs_file = machine.create_file(mount, "log", 0)
        handles = open_all(machine, mount, "log", IOMode.M_LOG)

        def writer(h, n):
            for k in range(n):
                payload = bytes([h.rank * 16 + k + 1]) * (16 * KB)
                yield from h.write(LiteralData(payload))

        for h in handles:
            machine.spawn(writer(h, 2))
        machine.run()
        assert pfs_file.size_bytes == 8 * 16 * KB
        raw = content(machine, pfs_file, 0, 8 * 16 * KB).to_bytes()
        # Each 16KB record is homogeneous: no interleaving of payloads.
        markers = []
        for k in range(8):
            chunk = raw[k * 16 * KB : (k + 1) * 16 * KB]
            assert len(set(chunk)) == 1
            markers.append(chunk[0])
        assert len(set(markers)) == 8  # all eight records landed once


class TestWriteReadConsistency:
    def test_buffered_write_then_fastpath_style_read(self):
        machine = Machine(MachineConfig(n_compute=2, n_io=2))
        mount = machine.mount("/pfs", PFSConfig(buffered=True, stripe_factor=2))
        machine.create_file(mount, "data", 0)
        handles = open_all(machine, mount, "data", IOMode.M_ASYNC, nprocs=2)
        payload = bytes(range(256)) * 512  # 128KB

        def writer():
            yield from handles[0].write(LiteralData(payload))

        machine.spawn(writer())
        machine.run()

        def reader():
            return (yield from handles[1].read(len(payload)))

        p = machine.spawn(reader())
        machine.run()
        assert p.value.to_bytes() == payload

    def test_unaligned_concurrent_region_writes(self, machine):
        # Each writer updates a disjoint unaligned region; all must land.
        mount = machine.mount("/pfs")
        pfs_file = machine.create_file(mount, "data", 1 * MB)
        handles = open_all(machine, mount, "data", IOMode.M_ASYNC)
        before = content(machine, pfs_file, 0, 1 * MB).to_bytes()

        regions = {0: (100, 5000), 1: (200_000, 333), 2: (650_001, 4097), 3: (999_000, 1000)}

        def writer(h):
            start, length = regions[h.rank]
            yield from h.lseek(start)
            yield from h.write(LiteralData(bytes([h.rank + 65]) * length))

        for h in handles:
            machine.spawn(writer(h))
        machine.run()
        after = bytearray(before)
        for rank, (start, length) in regions.items():
            after[start : start + length] = bytes([rank + 65]) * length
        assert content(machine, pfs_file, 0, 1 * MB).to_bytes() == bytes(after)

    def test_write_grows_shared_size_for_readers(self, machine):
        mount = machine.mount("/pfs")
        pfs_file = machine.create_file(mount, "data", 0)
        handles = open_all(machine, mount, "data", IOMode.M_ASYNC, nprocs=2)

        def sequence():
            yield from handles[0].write(LiteralData(b"x" * (64 * KB)))
            data = yield from handles[1].read(64 * KB)
            return len(data)

        p = machine.spawn(sequence())
        machine.run()
        assert p.value == 64 * KB
        assert pfs_file.size_bytes == 64 * KB


class TestLazyWritePath:
    @pytest.mark.parametrize("buffered, write_back", [(False, False), (True, False), (True, True)])
    def test_collective_write_materialises_no_synthetic_bytes(
        self, synthetic_calls, buffered, write_back
    ):
        from repro.workloads import CollectiveWriteWorkload

        machine = Machine(MachineConfig(n_compute=4, n_io=4, write_back=write_back))
        mount = machine.mount("/pfs", PFSConfig(buffered=buffered))
        pfs_file = machine.create_file(mount, "out", 0)
        # 40 KB records leave most blocks partly covered by each write.
        CollectiveWriteWorkload(machine, mount, "out", request_size=40 * KB, rounds=3).run()
        for cache in machine.caches:
            machine.spawn(cache.flush())
        machine.run()
        assert synthetic_calls == []
        offset = (2 * 4 + 1) * 40 * KB
        got = content(machine, pfs_file, offset, 40 * KB)
        assert got == CollectiveWriteWorkload.record_content(1, 2, 40 * KB)
        assert machine.verify() == []
