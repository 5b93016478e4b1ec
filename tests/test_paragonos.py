"""Unit tests for the Paragon OS layer: RPC, ARTs, buffer cache."""

import pytest

from repro.hardware import Mesh, Node, NodeKind, NodeParams
from repro.paragonos import (
    AsyncRequestManager,
    BufferCache,
    ReadReply,
    ReadRequest,
    RPCEndpoint,
    RPCError,
)
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def mesh(env):
    return Mesh(env, 4, 4)


def make_node(env, node_id, x=0, y=0, kind=NodeKind.COMPUTE, **params):
    return Node(env, node_id, kind, (x, y), params=NodeParams(**params))


class TestRPC:
    def test_round_trip(self, env, mesh):
        client_node = make_node(env, 0, 0, 0)
        server_node = make_node(env, 1, 3, 0, kind=NodeKind.IO)
        client = RPCEndpoint(env, client_node, mesh)
        server = RPCEndpoint(env, server_node, mesh)

        def handler(request):
            yield env.timeout(0.01)  # pretend disk work
            return ReadReply(
                file_id=request.file_id,
                ufs_offset=request.ufs_offset,
                data=b"x" * request.nbytes,
            )

        server.register(ReadRequest, handler)

        def proc(env):
            reply = yield from client.call(server, ReadRequest(file_id=7, ufs_offset=0, nbytes=100))
            return reply

        p = env.process(proc(env))
        env.run()
        assert isinstance(p.value, ReadReply)
        assert p.value.file_id == 7
        assert len(p.value.data) == 100
        assert env.now > 0.01  # handler time + 2 mesh crossings

    def test_missing_handler_fails_call(self, env, mesh):
        client = RPCEndpoint(env, make_node(env, 0), mesh)
        server = RPCEndpoint(env, make_node(env, 1, 1, 0), mesh)

        def proc(env):
            try:
                yield from client.call(server, ReadRequest(file_id=1, ufs_offset=0, nbytes=1))
            except RPCError:
                return "rpc error"

        p = env.process(proc(env))
        env.run()
        assert p.value == "rpc error"

    def test_handler_exception_propagates(self, env, mesh):
        client = RPCEndpoint(env, make_node(env, 0), mesh)
        server = RPCEndpoint(env, make_node(env, 1, 1, 0), mesh)

        def bad_handler(request):
            yield env.timeout(0.001)
            raise ValueError("disk on fire")

        server.register(ReadRequest, bad_handler)

        def proc(env):
            try:
                yield from client.call(server, ReadRequest(file_id=1, ufs_offset=0, nbytes=1))
            except RPCError as exc:
                return str(exc)

        p = env.process(proc(env))
        env.run()
        assert "disk on fire" in p.value

    def test_concurrent_requests_served_concurrently(self, env, mesh):
        client = RPCEndpoint(env, make_node(env, 0), mesh)
        server = RPCEndpoint(env, make_node(env, 1, 1, 0), mesh)

        def handler(request):
            yield env.timeout(1.0)
            return ReadReply(file_id=request.file_id, ufs_offset=0, data=b"")

        server.register(ReadRequest, handler)
        done = []

        def proc(env, fid):
            yield from client.call(server, ReadRequest(file_id=fid, ufs_offset=0, nbytes=0))
            done.append(env.now)

        for fid in range(4):
            env.process(proc(env, fid))
        env.run()
        # All four 1-second handlers overlap: total << 4 seconds.
        assert max(done) < 1.5

    def test_reply_carries_data_size_on_wire(self, env, mesh):
        # A 1 MB reply takes visibly longer on the mesh than an empty one.
        client = RPCEndpoint(env, make_node(env, 0), mesh)
        server = RPCEndpoint(env, make_node(env, 1, 1, 0), mesh)

        def handler(request):
            return ReadReply(file_id=request.file_id, ufs_offset=0, data=b"z" * request.nbytes)
            yield  # pragma: no cover - makes this a generator

        server.register(ReadRequest, handler)

        def timed(env, cli, srv, nbytes):
            t0 = env.now
            yield from cli.call(srv, ReadRequest(file_id=1, ufs_offset=0, nbytes=nbytes))
            return env.now - t0

        p_small = env.process(timed(env, client, server, 0))
        env.run()
        env2 = Environment()
        mesh2 = Mesh(env2, 4, 4)
        client2 = RPCEndpoint(env2, Node(env2, 0, NodeKind.COMPUTE, (0, 0)), mesh2)
        server2 = RPCEndpoint(env2, Node(env2, 1, NodeKind.IO, (1, 0)), mesh2)
        server2.register(ReadRequest, handler)
        p_big = env2.process(timed(env2, client2, server2, 1024 * 1024))
        env2.run()
        assert p_big.value > p_small.value

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_same_time_requests_served_one_per_round_in_key_order(self, tie_break):
        env = Environment(tie_break=tie_break)
        mesh = Mesh(env, 3, 3)
        server = RPCEndpoint(env, make_node(env, 0, 1, 1, kind=NodeKind.IO), mesh)
        # One hop each over four distinct links: the requests arrive at
        # the same instant without contending on the way.
        positions = [(0, 1), (2, 1), (1, 0), (1, 2)]
        clients = [
            RPCEndpoint(env, make_node(env, i + 1, x, y), mesh)
            for i, (x, y) in enumerate(positions)
        ]
        served = []

        def handler(request):
            proc = env.active_process
            served.append((env.now, request.file_id, proc.order_key, len(server._inbox.items)))
            return ReadReply(file_id=request.file_id, ufs_offset=0, data=b"")
            yield  # pragma: no cover - makes this a generator

        server.register(ReadRequest, handler)

        def caller(client, fid):
            yield from client.call(server, ReadRequest(file_id=fid, ufs_offset=0, nbytes=0))

        # Spawned in reverse position order: canonical (caller key) order
        # is spawn order, whatever order the arrivals pop in.
        order = [3, 1, 0, 2]
        for fid in order:
            env.process(caller(clients[fid], fid))
        env.run()
        n = len(order)
        assert len({t for t, *_ in served}) == 1
        assert [fid for _t, fid, _key, _left in served] == order
        assert [key for _t, _fid, key, _left in served] == [
            server.dispatch_key + (i,) for i in range(1, n + 1)
        ]
        # One serve per settle round: each starts while the rest still wait.
        assert [left for *_, left in served] == list(range(n - 1, -1, -1))


class TestART:
    def test_submit_runs_operation(self, env):
        node = make_node(env, 0)
        mgr = AsyncRequestManager(env, node, max_threads=2)

        def operation():
            yield env.timeout(0.5)
            return "data"

        def proc(env):
            request = yield from mgr.submit(operation, tag="read")
            result = yield request.event
            return (result, request.done)

        p = env.process(proc(env))
        env.run()
        assert p.value == ("data", True)

    def test_setup_overhead_charged(self, env):
        node = make_node(env, 0, async_setup_overhead_s=0.25)
        mgr = AsyncRequestManager(env, node)

        def operation():
            return "x"
            yield  # pragma: no cover

        def proc(env):
            yield from mgr.submit(operation)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(0.25)

    def test_fifo_processing_order(self, env):
        node = make_node(env, 0, async_setup_overhead_s=0.0)
        mgr = AsyncRequestManager(env, node, max_threads=1)
        order = []

        def operation(tag):
            def gen():
                yield env.timeout(0.1)
                order.append(tag)

            return gen

        def proc(env):
            for tag in ("a", "b", "c"):
                yield from mgr.submit(operation(tag))

        env.process(proc(env))
        env.run()
        assert order == ["a", "b", "c"]

    def test_threads_limit_concurrency(self, env):
        node = make_node(env, 0, async_setup_overhead_s=0.0)
        mgr = AsyncRequestManager(env, node, max_threads=2)
        finished = []

        def operation():
            yield env.timeout(1.0)
            finished.append(env.now)

        def proc(env):
            for _ in range(4):
                yield from mgr.submit(operation)

        env.process(proc(env))
        env.run()
        # 4 one-second jobs on 2 ARTs: pairs finish at ~1s and ~2s.
        assert finished[:2] == [pytest.approx(1.0), pytest.approx(1.0)]
        assert finished[2:] == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_outstanding_tracking(self, env):
        node = make_node(env, 0, async_setup_overhead_s=0.0)
        mgr = AsyncRequestManager(env, node)

        def operation():
            yield env.timeout(1.0)

        def proc(env):
            yield from mgr.submit(operation)
            assert len(mgr.outstanding) == 1
            yield env.timeout(2.0)
            assert len(mgr.outstanding) == 0
            return True

        p = env.process(proc(env))
        env.run()
        assert p.value is True

    def test_cancel_pending(self, env):
        node = make_node(env, 0, async_setup_overhead_s=0.0)
        mgr = AsyncRequestManager(env, node, max_threads=1)
        ran = []

        def operation(tag):
            def gen():
                yield env.timeout(1.0)
                ran.append(tag)

            return gen

        def proc(env):
            yield from mgr.submit(operation("keep"))
            r2 = yield from mgr.submit(operation("drop"), tag="prefetch")
            n = mgr.cancel_pending(lambda r: r.tag == "prefetch")
            assert n == 1
            result = yield r2.event
            assert result is None
            return True

        p = env.process(proc(env))
        env.run()
        assert p.value is True
        assert ran == ["keep"]

    def test_operation_failure_fails_event(self, env):
        node = make_node(env, 0, async_setup_overhead_s=0.0)
        mgr = AsyncRequestManager(env, node)

        def operation():
            yield env.timeout(0.1)
            raise IOError("bad sector")

        def proc(env):
            request = yield from mgr.submit(operation)
            try:
                yield request.event
            except IOError:
                return "failed as expected"

        p = env.process(proc(env))
        env.run()
        assert p.value == "failed as expected"

    def test_zero_threads_rejected(self, env):
        with pytest.raises(ValueError):
            AsyncRequestManager(env, make_node(env, 0), max_threads=0)


class TestBufferCache:
    def make_cache(self, env, capacity=4):
        return BufferCache(env, capacity_blocks=capacity, block_size=64)

    def test_miss_then_hit(self, env):
        cache = self.make_cache(env)
        fetches = []

        def fetch():
            fetches.append(env.now)
            yield env.timeout(0.1)
            return b"blockdata"

        def proc(env):
            d1 = yield from cache.read_block((1, 0), fetch)
            d2 = yield from cache.read_block((1, 0), fetch)
            return (d1, d2)

        p = env.process(proc(env))
        env.run()
        assert p.value == (b"blockdata", b"blockdata")
        assert len(fetches) == 1  # second read was a hit

    def test_lru_eviction(self, env):
        cache = self.make_cache(env, capacity=2)
        fetch_count = {"n": 0}

        def fetch():
            fetch_count["n"] += 1
            yield env.timeout(0.01)
            return b"d"

        def proc(env):
            yield from cache.read_block((1, 0), fetch)
            yield from cache.read_block((1, 1), fetch)
            yield from cache.read_block((1, 0), fetch)  # hit; refreshes LRU
            yield from cache.read_block((1, 2), fetch)  # evicts (1,1)
            assert (1, 1) not in cache
            assert (1, 0) in cache
            yield from cache.read_block((1, 1), fetch)  # miss again
            return fetch_count["n"]

        p = env.process(proc(env))
        env.run()
        assert p.value == 4

    def test_concurrent_misses_collapse(self, env):
        cache = self.make_cache(env)
        fetches = []

        def fetch():
            fetches.append(env.now)
            yield env.timeout(1.0)
            return b"once"

        results = []

        def proc(env):
            d = yield from cache.read_block((2, 5), fetch)
            results.append((d, env.now))

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        assert len(fetches) == 1
        assert [r[0] for r in results] == [b"once", b"once"]
        # Both complete when the single fetch does.
        assert all(t == pytest.approx(1.0) for _, t in results)

    def test_write_block_marks_dirty(self, env):
        cache = self.make_cache(env)
        cache.write_block((1, 0), b"dirtydata")
        assert (1, 0) in cache
        assert cache.dirty_keys == [(1, 0)]
        assert cache.peek((1, 0)) == b"dirtydata"

    def test_flush_writes_back(self, env):
        cache = self.make_cache(env)
        written = []

        def writeback(key, data):
            written.append((key, data))
            yield env.timeout(0.01)

        cache.writeback = writeback
        cache.write_block((1, 0), b"a")
        cache.write_block((1, 1), b"b")

        def proc(env):
            yield from cache.flush()

        env.process(proc(env))
        env.run()
        assert sorted(written) == [((1, 0), b"a"), ((1, 1), b"b")]
        assert cache.dirty_keys == []

    def test_invalidate_file(self, env):
        cache = self.make_cache(env)
        cache.write_block((1, 0), b"x")
        cache.write_block((2, 0), b"y")
        cache.invalidate_file(1)
        assert (1, 0) not in cache
        assert (2, 0) in cache

    def test_failed_fetch_propagates_and_clears_inflight(self, env):
        cache = self.make_cache(env)

        def bad_fetch():
            yield env.timeout(0.1)
            raise IOError("read error")

        def good_fetch():
            yield env.timeout(0.1)
            return b"recovered"

        def proc(env):
            try:
                yield from cache.read_block((3, 0), bad_fetch)
            except IOError:
                pass
            data = yield from cache.read_block((3, 0), good_fetch)
            return data

        p = env.process(proc(env))
        env.run()
        assert p.value == b"recovered"

    def test_bad_construction(self, env):
        with pytest.raises(ValueError):
            BufferCache(env, capacity_blocks=0, block_size=64)
        with pytest.raises(ValueError):
            BufferCache(env, capacity_blocks=4, block_size=0)
