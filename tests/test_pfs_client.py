"""Integration tests: PFS client + server + coordinator on a full machine."""

import pytest

from repro.config import MachineConfig, PFSConfig
from repro.machine import Machine
from repro.paragonos.rpc import RPCError
from repro.pfs import IOMode
from repro.ufs.data import LiteralData

KB = 1024
MB = 1024 * 1024

# The ``machine`` fixture (4 compute / 4 I/O) comes from tests/conftest.py.


def setup_file(machine, size=4 * MB, name="data", pfs=None):
    mount = machine.mount("/pfs", pfs or PFSConfig())
    pfs_file = machine.create_file(mount, name, size)
    return mount, pfs_file


def open_all(machine, mount, name, mode, nprocs=None, prefetchers=None):
    """Open the file from the first *nprocs* compute nodes; returns handles."""
    nprocs = nprocs or len(machine.clients)
    handles = [None] * nprocs

    def opener(rank):
        pf = prefetchers[rank] if prefetchers else None
        handle = yield from machine.clients[rank].open(
            mount, name, mode, rank=rank, nprocs=nprocs, prefetcher=pf
        )
        handles[rank] = handle

    for rank in range(nprocs):
        machine.spawn(opener(rank))
    machine.run()
    return handles


class TestOpenClose:
    def test_open_sets_mode_and_counts(self, machine):
        mount, pfs_file = setup_file(machine)
        handles = open_all(machine, mount, "data", IOMode.M_RECORD)
        assert pfs_file.iomode is IOMode.M_RECORD
        assert pfs_file.nprocs == 4
        assert pfs_file.open_handles == 4
        assert all(h is not None for h in handles)

    def test_bad_rank_rejected(self, machine):
        mount, _ = setup_file(machine)

        def proc():
            yield from machine.clients[0].open(mount, "data", IOMode.M_UNIX, rank=5, nprocs=4)

        machine.spawn(proc())
        from repro.pfs.client import PFSClientError

        with pytest.raises(PFSClientError):
            machine.run()

    def test_close_decrements_and_blocks_io(self, machine):
        mount, pfs_file = setup_file(machine)
        handles = open_all(machine, mount, "data", IOMode.M_RECORD)

        def closer():
            yield from handles[0].close()
            assert handles[0].closed
            try:
                yield from handles[0].read(64 * KB)
            except Exception as exc:
                return type(exc).__name__

        p = machine.spawn(closer())
        machine.run()
        assert p.value == "PFSClientError"
        assert pfs_file.open_handles == 3

    def test_double_close_is_noop(self, machine):
        mount, pfs_file = setup_file(machine)
        handles = open_all(machine, mount, "data", IOMode.M_RECORD)

        def closer():
            yield from handles[0].close()
            yield from handles[0].close()

        machine.spawn(closer())
        machine.run()
        assert pfs_file.open_handles == 3


class TestMRecord:
    def test_node_ordered_offsets(self, machine):
        mount, pfs_file = setup_file(machine)
        handles = open_all(machine, mount, "data", IOMode.M_RECORD)
        results = {}

        def reader(h):
            data = yield from h.read(64 * KB)
            results[h.rank] = data

        for h in handles:
            machine.spawn(reader(h))
        machine.run()
        # Rank r read [r*64K, (r+1)*64K) -- check against ground truth.
        for rank, data in results.items():
            expected = machine.clients[0].env  # placeholder to satisfy lints
            del expected
            ufs_view = pfs_content(machine, pfs_file, rank * 64 * KB, 64 * KB)
            assert data == ufs_view

    def test_successive_rounds_advance(self, machine):
        mount, pfs_file = setup_file(machine)
        handles = open_all(machine, mount, "data", IOMode.M_RECORD)
        h = handles[1]  # rank 1 of 4

        def reader():
            d1 = yield from h.read(64 * KB)
            d2 = yield from h.read(64 * KB)
            return d1, d2

        p = machine.spawn(reader())
        machine.run()
        d1, d2 = p.value
        assert d1 == pfs_content(machine, pfs_file, 1 * 64 * KB, 64 * KB)
        assert d2 == pfs_content(machine, pfs_file, (4 + 1) * 64 * KB, 64 * KB)

    def test_no_coordinator_messages(self, machine):
        mount, _ = setup_file(machine)
        handles = open_all(machine, mount, "data", IOMode.M_RECORD)
        before = machine.monitor.counter_value("rpc.served")

        def reader(h):
            yield from h.read(64 * KB)

        for h in handles:
            machine.spawn(reader(h))
        machine.run()
        served = machine.monitor.counter_value("rpc.served") - before
        # Only I/O-node reads: one piece per node, no coordination RPCs.
        assert served == 4

    def test_eof_returns_short_then_empty(self, machine):
        mount, _ = setup_file(machine, size=96 * KB)  # 1.5 blocks
        handles = open_all(machine, mount, "data", IOMode.M_RECORD, nprocs=2)

        def reader(h):
            first = yield from h.read(64 * KB)
            second = yield from h.read(64 * KB)
            return len(first), len(second)

        procs = [machine.spawn(reader(h)) for h in handles]
        machine.run()
        # Round 0: rank0 gets [0,64K) full, rank1 gets [64K,96K) short.
        assert procs[0].value == (64 * KB, 0)
        assert procs[1].value == (32 * KB, 0)


class TestMUnix:
    def test_arrival_order_partitions_file(self, machine):
        mount, pfs_file = setup_file(machine, size=4 * 64 * KB)
        handles = open_all(machine, mount, "data", IOMode.M_UNIX)
        chunks = []

        def reader(h):
            data = yield from h.read(64 * KB)
            chunks.append(data)

        for h in handles:
            machine.spawn(reader(h))
        machine.run()
        # Shared pointer: the four reads cover the file exactly once.
        assert pfs_file.shared_offset == 4 * 64 * KB
        got = sorted(c.to_bytes() for c in chunks)
        expected = sorted(
            pfs_content(machine, pfs_file, k * 64 * KB, 64 * KB).to_bytes() for k in range(4)
        )
        assert got == expected

    def test_atomic_reads_serialise(self, machine):
        # M_UNIX holds the token across the transfer, so concurrent reads
        # take ~N times one read; M_RECORD reads overlap.
        t_unix = read_all_elapsed(machine, IOMode.M_UNIX, req=64 * KB, rounds=12)
        machine2 = Machine(MachineConfig(n_compute=4, n_io=4))
        t_record = read_all_elapsed(machine2, IOMode.M_RECORD, req=64 * KB, rounds=12)
        assert t_unix > 2.0 * t_record


class TestMLog:
    def test_pointer_updates_atomic_but_transfers_overlap(self, machine):
        mount, pfs_file = setup_file(machine, size=4 * 64 * KB)
        handles = open_all(machine, mount, "data", IOMode.M_LOG)

        def reader(h):
            yield from h.read(64 * KB)

        for h in handles:
            machine.spawn(reader(h))
        machine.run()
        assert pfs_file.shared_offset == 4 * 64 * KB

    def test_faster_than_m_unix(self):
        m1 = Machine(MachineConfig(n_compute=4, n_io=4))
        t_unix = read_all_elapsed(m1, IOMode.M_UNIX, req=256 * KB)
        m2 = Machine(MachineConfig(n_compute=4, n_io=4))
        t_log = read_all_elapsed(m2, IOMode.M_LOG, req=256 * KB)
        assert t_log < t_unix


class TestMSync:
    def test_rank_ordered_offsets(self, machine):
        mount, pfs_file = setup_file(machine)
        handles = open_all(machine, mount, "data", IOMode.M_SYNC)
        results = {}

        def reader(h, size):
            data = yield from h.read(size)
            results[h.rank] = data

        # Different sizes per rank: offsets must follow rank order.
        sizes = {0: 64 * KB, 1: 32 * KB, 2: 128 * KB, 3: 16 * KB}
        for h in handles:
            machine.spawn(reader(h, sizes[h.rank]))
        machine.run()
        base = 0
        for rank in range(4):
            expected = pfs_content(machine, pfs_file, base, sizes[rank])
            assert results[rank] == expected
            base += sizes[rank]
        assert pfs_file.shared_offset == base

    def test_barrier_blocks_until_all_arrive(self, machine):
        mount, _ = setup_file(machine)
        handles = open_all(machine, mount, "data", IOMode.M_SYNC)
        finish_times = {}

        def reader(h, delay):
            yield machine.env.timeout(delay)
            yield from h.read(64 * KB)
            finish_times[h.rank] = machine.env.now

        delays = {0: 0.0, 1: 0.0, 2: 0.0, 3: 1.0}  # rank 3 is late
        for h in handles:
            machine.spawn(reader(h, delays[h.rank]))
        machine.run()
        # Nobody can finish before the last arrival at t=1.0.
        assert min(finish_times.values()) > 1.0


class TestMGlobal:
    def test_all_ranks_see_same_data(self, machine):
        mount, pfs_file = setup_file(machine)
        handles = open_all(machine, mount, "data", IOMode.M_GLOBAL)
        results = {}

        def reader(h):
            data = yield from h.read(64 * KB)
            results[h.rank] = data

        for h in handles:
            machine.spawn(reader(h))
        machine.run()
        expected = pfs_content(machine, pfs_file, 0, 64 * KB)
        assert all(d == expected for d in results.values())
        # Pointer advanced once, not four times.
        assert pfs_file.shared_offset == 64 * KB

    def test_single_disk_read_for_collective(self, machine):
        mount, _ = setup_file(machine)
        handles = open_all(machine, mount, "data", IOMode.M_GLOBAL)
        before = machine.monitor.counter_value("raid0.reads")

        def reader(h):
            yield from h.read(64 * KB)

        for h in handles:
            machine.spawn(reader(h))
        machine.run()
        after = machine.monitor.counter_value("raid0.reads")
        assert after - before == 1  # one leader read, not four


class TestMAsync:
    def test_private_pointers_independent(self, machine):
        mount, pfs_file = setup_file(machine)
        handles = open_all(machine, mount, "data", IOMode.M_ASYNC)
        results = {}

        def reader(h):
            d1 = yield from h.read(64 * KB)
            d2 = yield from h.read(64 * KB)
            results[h.rank] = (d1, d2)

        for h in handles:
            machine.spawn(reader(h))
        machine.run()
        # Every rank starts at 0 and reads the same first two blocks.
        b0 = pfs_content(machine, pfs_file, 0, 64 * KB)
        b1 = pfs_content(machine, pfs_file, 64 * KB, 64 * KB)
        for d1, d2 in results.values():
            assert d1 == b0 and d2 == b1

    def test_lseek_repositions(self, machine):
        mount, pfs_file = setup_file(machine)
        handles = open_all(machine, mount, "data", IOMode.M_ASYNC, nprocs=1)
        h = handles[0]

        def proc():
            yield from h.lseek(128 * KB)
            return (yield from h.read(64 * KB))

        p = machine.spawn(proc())
        machine.run()
        assert p.value == pfs_content(machine, pfs_file, 128 * KB, 64 * KB)


class TestWrites:
    def test_write_read_roundtrip_m_async(self, machine):
        mount, pfs_file = setup_file(machine, size=0)
        handles = open_all(machine, mount, "data", IOMode.M_ASYNC, nprocs=1)
        h = handles[0]
        payload = bytes(range(256)) * 512  # 128 KB crosses stripe units

        def proc():
            yield from h.write(LiteralData(payload))
            yield from h.lseek(0)
            return (yield from h.read(len(payload)))

        p = machine.spawn(proc())
        machine.run()
        assert p.value.to_bytes() == payload
        assert pfs_file.size_bytes == len(payload)

    def test_m_record_writes_land_in_rank_slots(self, machine):
        mount, pfs_file = setup_file(machine, size=4 * 64 * KB)
        handles = open_all(machine, mount, "data", IOMode.M_RECORD)

        def writer(h):
            payload = bytes([h.rank]) * (64 * KB)
            yield from h.write(LiteralData(payload))

        for h in handles:
            machine.spawn(writer(h))
        machine.run()
        for rank in range(4):
            got = pfs_content(machine, pfs_file, rank * 64 * KB, 64 * KB)
            assert got.to_bytes() == bytes([rank]) * (64 * KB)


class TestHandlerErrors:
    """A server handler error fails a declustered transfer the same way
    whether its stripe pieces run as callback calls (the default) or as
    one process each (forced by tracing)."""

    @staticmethod
    def _ghost_transfer(machine_factory, op, traced, tie_break):
        machine = machine_factory(trace=traced, tie_break=tie_break)
        mount = machine.mount("/pfs", PFSConfig())
        # Metadata only: no I/O node has a stripe file for it.
        ghost = mount.create_file("ghost", size_bytes=4 * 64 * KB)
        client = machine.clients[0]
        seen = []

        def proc():
            try:
                if op == "read":
                    yield from client.transfer_read(ghost, 0, 4 * 64 * KB, "demand")
                else:
                    yield from client.transfer_write(ghost, 0, LiteralData(b"w" * (4 * 64 * KB)))
            except RPCError as exc:
                seen.append((machine.env.now, str(exc)))

        machine.spawn(proc())
        # Only the first piece's error reaches the caller; the next one
        # finds nobody waiting and stops the run.
        with pytest.raises(RPCError) as stopped:
            machine.run()
        return seen, (machine.env.now, str(stopped.value))

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    @pytest.mark.parametrize("op", ["read", "write"])
    def test_multi_piece_error_matches_process_path(self, machine_factory, op, tie_break):
        fast = self._ghost_transfer(machine_factory, op, False, tie_break)
        stepped = self._ghost_transfer(machine_factory, op, True, tie_break)
        seen, stopped = fast
        assert len(seen) == 1
        assert "no such file" in seen[0][1]
        assert "no such file" in stopped[1]
        assert fast == stepped


class TestIread:
    def test_async_read_overlaps_with_compute(self, machine):
        mount, pfs_file = setup_file(machine)
        handles = open_all(machine, mount, "data", IOMode.M_RECORD, nprocs=1)
        h = handles[0]

        def proc():
            request = yield from h.iread(64 * KB)
            # Computation happens while the ART reads.
            yield machine.env.timeout(0.5)
            data = yield request.event
            return data, machine.env.now

        p = machine.spawn(proc())
        machine.run()
        data, t = p.value
        assert data == pfs_content(machine, pfs_file, 0, 64 * KB)
        # The read overlapped the 0.5s compute (total well under serial sum).
        assert t < 0.6


class TestBufferedPath:
    def test_buffered_rereads_hit_cache(self):
        machine = Machine(MachineConfig(n_compute=1, n_io=2))
        mount = machine.mount("/pfs", PFSConfig(buffered=True, stripe_factor=2))
        pfs_file = machine.create_file(mount, "data", 1 * MB)
        handle = open_all(machine, mount, "data", IOMode.M_ASYNC, nprocs=1)[0]

        def proc():
            yield from handle.read(128 * KB)
            t0 = machine.env.now
            yield from handle.lseek(0)
            yield from handle.read(128 * KB)
            return machine.env.now - t0

        before = machine.monitor.counter_value("raid0.reads")
        p = machine.spawn(proc())
        machine.run()
        after = machine.monitor.counter_value("raid0.reads")
        # Second read served from the I/O-node cache: no extra disk reads
        # beyond the first pass.
        assert machine.monitor.counter_value("bcache0.hits") >= 1
        assert p.value < 0.05
        del pfs_file, before, after

    def test_fastpath_always_hits_disk(self):
        machine = Machine(MachineConfig(n_compute=1, n_io=1))
        mount = machine.mount("/pfs", PFSConfig(buffered=False, stripe_factor=1))
        machine.create_file(mount, "data", 1 * MB)
        handle = open_all(machine, mount, "data", IOMode.M_ASYNC, nprocs=1)[0]

        def proc():
            yield from handle.read(64 * KB)
            yield from handle.lseek(0)
            yield from handle.read(64 * KB)

        machine.spawn(proc())
        machine.run()
        assert machine.monitor.counter_value("raid0.reads") == 2
        assert machine.monitor.counter_value("bcache0.hits") == 0


class TestSetIOMode:
    def test_mode_change_midstream(self, machine):
        mount, pfs_file = setup_file(machine)
        handles = open_all(machine, mount, "data", IOMode.M_UNIX, nprocs=1)
        h = handles[0]

        def proc():
            yield from h.read(64 * KB)
            yield from h.setiomode(IOMode.M_RECORD)
            data = yield from h.read(64 * KB)
            return data

        p = machine.spawn(proc())
        machine.run()
        # After the switch, record base starts at the shared offset (64K).
        assert p.value == pfs_content(machine, pfs_file, 64 * KB, 64 * KB)


# -- helpers ------------------------------------------------------------------


def pfs_content(machine, pfs_file, offset, nbytes):
    """Ground-truth PFS content assembled from the UFS stripe files."""
    from repro.pfs.stripe import decluster
    from repro.ufs.data import concat_data

    parts = []
    for piece in decluster(pfs_file.attrs, offset, nbytes):
        ufs = machine.ufses[piece.io_node]
        parts.append(ufs.content(pfs_file.file_id, piece.ufs_offset, piece.length))
    return concat_data(parts)


def read_all_elapsed(machine, mode, req=64 * KB, rounds=2):
    """Elapsed time for all compute nodes to read *rounds* requests."""
    mount = machine.mount("/pfs", PFSConfig())
    machine.create_file(mount, "data", 16 * MB)
    handles = open_all(machine, mount, "data", mode)

    def reader(h):
        for _ in range(rounds):
            yield from h.read(req)

    for h in handles:
        machine.spawn(reader(h))
    machine.run()
    return machine.env.now
