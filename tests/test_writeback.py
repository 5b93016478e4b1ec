"""Tests for write-back caching and the sync daemon."""

import pytest

from repro.config import MachineConfig, PFSConfig
from repro.machine import Machine
from repro.paragonos import SyncDaemon
from repro.pfs import IOMode
from repro.sim import Environment
from repro.ufs.data import LiteralData

KB = 1024
MB = 1024 * 1024


def make_machine(write_back=True, sync_interval=30.0, cache_blocks=64):
    return Machine(
        MachineConfig(
            n_compute=2,
            n_io=2,
            write_back=write_back,
            sync_interval_s=sync_interval,
            cache_blocks=cache_blocks,
        )
    )


def open_handle(machine, mount, name="data"):
    box = {}

    def opener():
        box["h"] = yield from machine.clients[0].open(mount, name, IOMode.M_ASYNC, rank=0, nprocs=1)

    machine.spawn(opener())
    machine.run()
    return box["h"]


class TestWriteBack:
    def test_write_back_returns_faster_than_write_through(self):
        def timed_write(write_back):
            machine = make_machine(write_back=write_back)
            mount = machine.mount("/pfs", PFSConfig(buffered=True, stripe_factor=1))
            machine.create_file(mount, "data", 0)
            handle = open_handle(machine, mount)

            def proc():
                t0 = machine.env.now
                yield from handle.write(LiteralData(b"w" * (256 * KB)))
                return machine.env.now - t0

            p = machine.spawn(proc())
            machine.run(until=p)
            return p.value

        assert timed_write(True) < 0.5 * timed_write(False)

    def test_dirty_blocks_marked_and_no_disk_writes_yet(self):
        machine = make_machine(sync_interval=1000.0)
        mount = machine.mount("/pfs", PFSConfig(buffered=True, stripe_factor=1))
        machine.create_file(mount, "data", 0)
        handle = open_handle(machine, mount)

        def proc():
            yield from handle.write(LiteralData(b"w" * (128 * KB)))

        p = machine.spawn(proc())
        machine.run(until=p)
        assert machine.caches[0].dirty_count == 2
        assert machine.monitor.counter_value("raid0.writes") == 0

    def test_read_sees_unflushed_write(self):
        machine = make_machine(sync_interval=1000.0)
        mount = machine.mount("/pfs", PFSConfig(buffered=True, stripe_factor=1))
        machine.create_file(mount, "data", 0)
        handle = open_handle(machine, mount)
        payload = bytes(range(256)) * 512  # 128KB

        def proc():
            yield from handle.write(LiteralData(payload))
            yield from handle.lseek(0)
            return (yield from handle.read(len(payload)))

        p = machine.spawn(proc())
        machine.run(until=p)
        assert p.value.to_bytes() == payload

    def test_unaligned_write_back_merges_correctly(self):
        machine = make_machine(sync_interval=1000.0)
        mount = machine.mount("/pfs", PFSConfig(buffered=True, stripe_factor=1))
        machine.create_file(mount, "data", 128 * KB)
        handle = open_handle(machine, mount)

        def proc():
            before = yield from handle.read(128 * KB)
            yield from handle.lseek(1000)
            yield from handle.write(LiteralData(b"XYZ"))
            yield from handle.lseek(0)
            after = yield from handle.read(128 * KB)
            return before.to_bytes(), after.to_bytes()

        p = machine.spawn(proc())
        machine.run(until=p)
        before, after = p.value
        assert after == before[:1000] + b"XYZ" + before[1003:]

    def test_write_past_dirty_partial_block(self):
        machine = make_machine(sync_interval=1000.0)
        mount = machine.mount("/pfs", PFSConfig(buffered=True, stripe_factor=1))
        pfs_file = machine.create_file(mount, "data", 0)
        handle = open_handle(machine, mount)
        first, second = b"a" * (40 * KB), b"b" * (40 * KB)

        def proc():
            yield from handle.write(LiteralData(first))
            yield from handle.write(LiteralData(second))
            yield from handle.lseek(0)
            unflushed = yield from handle.read(80 * KB)
            yield from machine.clients[0].flush(mount, "data")
            return unflushed.to_bytes()

        p = machine.spawn(proc())
        machine.run(until=p)
        assert p.value == first + second
        assert machine.ufses[0].content(pfs_file.file_id, 0, 80 * KB).to_bytes() == first + second

    def test_explicit_flush_persists_to_disk(self):
        machine = make_machine(sync_interval=1000.0)
        mount = machine.mount("/pfs", PFSConfig(buffered=True, stripe_factor=1))
        pfs_file = machine.create_file(mount, "data", 0)
        handle = open_handle(machine, mount)
        payload = b"p" * (64 * KB)

        def proc():
            yield from handle.write(LiteralData(payload))
            yield from machine.clients[0].flush(mount, "data")

        p = machine.spawn(proc())
        machine.run(until=p)
        assert machine.caches[0].dirty_count == 0
        assert machine.monitor.counter_value("raid0.writes") >= 1
        # The UFS itself now holds the content.
        assert machine.ufses[0].content(pfs_file.file_id, 0, 64 * KB).to_bytes() == payload

    def test_sync_daemon_flushes_on_interval(self):
        machine = make_machine(sync_interval=5.0)
        mount = machine.mount("/pfs", PFSConfig(buffered=True, stripe_factor=1))
        machine.create_file(mount, "data", 0)
        handle = open_handle(machine, mount)

        def proc():
            yield from handle.write(LiteralData(b"d" * (64 * KB)))

        machine.spawn(proc())
        machine.run(until=6.0)
        assert machine.caches[0].dirty_count == 0
        assert machine.sync_daemons[0].flushes >= 1

    def test_dirty_overflow_then_flush_restores_capacity(self):
        machine = make_machine(sync_interval=1000.0, cache_blocks=2)
        mount = machine.mount("/pfs", PFSConfig(buffered=True, stripe_factor=1))
        machine.create_file(mount, "data", 0)
        handle = open_handle(machine, mount)

        def proc():
            # 4 dirty blocks in a 2-block cache: overflow.
            yield from handle.write(LiteralData(b"o" * (256 * KB)))

        p = machine.spawn(proc())
        machine.run(until=p)
        cache = machine.caches[0]
        assert cache.overflow_blocks == 2
        assert machine.verify() == []  # dirty overflow is legal

        def flusher():
            yield from machine.clients[0].flush(mount, "data")

        p2 = machine.spawn(flusher())
        machine.run(until=p2)
        assert cache.overflow_blocks == 0
        assert len(cache) <= 2

    def test_write_back_requires_cache(self):
        from repro.hardware import Mesh, Node, NodeKind, RAID3Array, SCSIBus
        from repro.paragonos.rpc import RPCEndpoint
        from repro.pfs.server import PFSServer
        from repro.ufs import UFS, BlockDevice

        env = Environment()
        node = Node(env, 0, NodeKind.IO, (0, 0))
        ufs = UFS(BlockDevice(RAID3Array(env, SCSIBus(env)), 64 * KB))
        with pytest.raises(ValueError):
            PFSServer(
                env,
                node,
                RPCEndpoint(env, node, Mesh(env, 1, 1)),
                ufs,
                cache=None,
                write_back=True,
            )


class TestSyncDaemonUnit:
    def test_interval_validation(self):
        from repro.paragonos.buffercache import BufferCache

        env = Environment()
        cache = BufferCache(env, capacity_blocks=4, block_size=64)
        with pytest.raises(ValueError):
            SyncDaemon(env, cache, interval_s=0)

    def test_no_flush_when_clean(self):
        from repro.paragonos.buffercache import BufferCache

        env = Environment()
        cache = BufferCache(env, capacity_blocks=4, block_size=64)
        daemon = SyncDaemon(env, cache, interval_s=1.0)
        env.run(until=5.5)
        assert daemon.flushes == 0
