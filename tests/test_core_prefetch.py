"""Unit and integration tests for the prefetching prototype (repro.core)."""

import pytest

from repro.config import MachineConfig, PFSConfig
from repro.core import (
    POLICY_NAMES,
    BufferState,
    DepthKAhead,
    NoPrefetch,
    Prefetcher,
    PrefetchBufferList,
    PrefetchStats,
    StrideDetector,
    StridedPolicy,
    make_policy,
)
from repro.hardware.memory import MemoryRegion, OutOfMemoryError
from repro.machine import Machine
from repro.pfs import IOMode
from repro.sim import Environment

KB = 1024
MB = 1024 * 1024


@pytest.fixture
def env():
    return Environment()


class TestPrefetchBufferList:
    def make(self, env, capacity=1 * MB, retain=False):
        return PrefetchBufferList(env, MemoryRegion(capacity), retain_consumed=retain)

    def test_issue_allocates_memory(self, env):
        blist = self.make(env)
        buffer = blist.issue(0, 64 * KB)
        assert buffer.state is BufferState.IN_FLIGHT
        assert blist.memory.used_by("prefetch") == 64 * KB

    def test_oom_propagates(self, env):
        blist = self.make(env, capacity=100 * KB)
        blist.issue(0, 64 * KB)
        with pytest.raises(OutOfMemoryError):
            blist.issue(64 * KB, 64 * KB)

    def test_find_covering_exact_and_contained(self, env):
        from repro.ufs.data import LiteralData

        blist = self.make(env)
        buffer = blist.issue(100, 50)
        buffer.mark_ready(env, LiteralData(b"x" * 50))
        assert blist.find_covering(100, 50) is buffer
        assert blist.find_covering(110, 20) is buffer
        assert blist.find_covering(90, 10) is None
        assert blist.find_covering(140, 20) is None

    def test_consume_frees_memory_by_default(self, env):
        from repro.ufs.data import LiteralData

        blist = self.make(env)
        buffer = blist.issue(0, 64 * KB)
        buffer.mark_ready(env, LiteralData(b"y" * 64 * KB))
        blist.consume(buffer)
        assert buffer.state is BufferState.CONSUMED
        assert blist.memory.used_by("prefetch") == 0

    def test_retain_consumed_keeps_memory_until_close(self, env):
        from repro.ufs.data import LiteralData

        blist = self.make(env, retain=True)
        buffer = blist.issue(0, 64 * KB)
        buffer.mark_ready(env, LiteralData(b"y" * 64 * KB))
        blist.consume(buffer)
        assert blist.memory.used_by("prefetch") == 64 * KB
        blist.free_all()
        assert blist.memory.used_by("prefetch") == 0

    def test_consume_requires_ready(self, env):
        blist = self.make(env)
        buffer = blist.issue(0, 1 * KB)
        with pytest.raises(RuntimeError):
            blist.consume(buffer)

    def test_discard_before_frees_stale(self, env):
        from repro.ufs.data import LiteralData

        blist = self.make(env)
        old = blist.issue(0, 1 * KB)
        old.mark_ready(env, LiteralData(b"a" * KB))
        ahead = blist.issue(10 * KB, 1 * KB)
        ahead.mark_ready(env, LiteralData(b"b" * KB))
        n = blist.discard_before(5 * KB)
        assert n == 1
        assert old.state is BufferState.DISCARDED
        assert ahead.state is BufferState.READY
        assert blist.memory.used_by("prefetch") == 1 * KB

    def test_free_all_marks_inflight_discarded(self, env):
        blist = self.make(env)
        buffer = blist.issue(0, 1 * KB)
        n = blist.free_all()
        assert n == 1
        assert buffer.state is BufferState.DISCARDED
        assert blist.memory.used_by("prefetch") == 0
        assert len(blist) == 0

    def test_overlaps_range(self, env):
        blist = self.make(env)
        blist.issue(100, 50)
        assert blist.overlaps_range(140, 20)
        assert blist.overlaps_range(90, 20)
        assert not blist.overlaps_range(150, 10)
        assert not blist.overlaps_range(0, 100)


class _FakeHandle:
    """Just enough handle surface for policy unit tests."""

    def __init__(self, mode, rank, nprocs, size, next_offset):
        from repro.pfs.modes import IOMode as _IOMode

        self._mode = mode
        self.rank = rank
        self.nprocs = nprocs
        self._next = next_offset

        class _File:
            size_bytes = size

        self.file = _File()
        self.iomode = mode
        del _IOMode

    def next_read_offset(self, nbytes):
        return self._next


class TestPolicies:
    def test_no_prefetch_plans_nothing(self):
        policy = NoPrefetch()
        handle = _FakeHandle(IOMode.M_RECORD, 0, 8, 1 * MB, 64 * KB)
        assert policy.plan(handle, 0, 64 * KB, None) == []

    def test_one_ahead_targets_next_record(self):
        policy = make_policy("one-ahead")
        handle = _FakeHandle(IOMode.M_RECORD, 2, 8, 100 * MB, 8 * 64 * KB + 2 * 64 * KB)
        plans = policy.plan(handle, 2 * 64 * KB, 64 * KB, None)
        assert plans == [(8 * 64 * KB + 2 * 64 * KB, 64 * KB)]

    def test_one_ahead_clamps_at_eof(self):
        policy = make_policy("one-ahead")
        handle = _FakeHandle(IOMode.M_RECORD, 0, 1, 96 * KB, 64 * KB)
        plans = policy.plan(handle, 0, 64 * KB, None)
        assert plans == [(64 * KB, 32 * KB)]

    def test_one_ahead_empty_past_eof(self):
        policy = make_policy("one-ahead")
        handle = _FakeHandle(IOMode.M_RECORD, 0, 1, 64 * KB, 64 * KB)
        assert policy.plan(handle, 0, 64 * KB, None) == []

    def test_one_ahead_none_when_unpredictable(self):
        policy = make_policy("one-ahead")
        handle = _FakeHandle(IOMode.M_UNIX, 0, 8, 1 * MB, None)
        assert policy.plan(handle, 0, 64 * KB, None) == []

    def test_depth_plans_consecutive_records(self):
        policy = DepthKAhead(depth=3)
        handle = _FakeHandle(IOMode.M_RECORD, 0, 4, 100 * MB, 4 * 64 * KB)
        plans = policy.plan(handle, 0, 64 * KB, None)
        stride = 4 * 64 * KB
        assert plans == [
            (stride, 64 * KB),
            (stride + stride, 64 * KB),
            (stride + 2 * stride, 64 * KB),
        ]

    def test_depth_validation(self):
        # "one-ahead" always prefetches at least one request ahead.
        assert make_policy("one-ahead", depth=0).depth == 1
        with pytest.raises(ValueError):
            DepthKAhead(depth=-1)

    def test_strided_needs_confirmations(self):
        policy = StridedPolicy(min_confirmations=2)
        handle = _FakeHandle(IOMode.M_ASYNC, 0, 1, 100 * MB, None)
        assert policy.plan(handle, 0, 4 * KB, None) == []
        assert policy.plan(handle, 10 * KB, 4 * KB, None) == []  # stride seen once
        plans = policy.plan(handle, 20 * KB, 4 * KB, None)  # stride seen twice
        assert plans == [(30 * KB, 4 * KB)]

    def test_strided_resets_on_pattern_change(self):
        policy = StridedPolicy(min_confirmations=2)
        handle = _FakeHandle(IOMode.M_ASYNC, 0, 1, 100 * MB, None)
        for off in [0, 10 * KB, 20 * KB, 30 * KB]:
            policy.plan(handle, off, 4 * KB, None)
        assert policy.plan(handle, 100 * KB, 4 * KB, None) == []  # stride broke

    def test_depth_k_at_depth_one_matches_one_ahead(self):
        handle = _FakeHandle(IOMode.M_RECORD, 2, 8, 100 * MB, 8 * 64 * KB + 2 * 64 * KB)
        static = make_policy("one-ahead").plan(handle, 2 * 64 * KB, 64 * KB, None)
        depth_k = DepthKAhead(depth=1).plan(handle, 2 * 64 * KB, 64 * KB, None)
        assert depth_k == static == [(8 * 64 * KB + 2 * 64 * KB, 64 * KB)]

    def test_depth_k_zero_depth_plans_nothing(self):
        policy = DepthKAhead(depth=0)
        handle = _FakeHandle(IOMode.M_ASYNC, 0, 1, 100 * MB, 64 * KB)
        assert policy.plan(handle, 0, 64 * KB, None) == []

    def test_depth_k_detector_overrides_arithmetic(self):
        policy = DepthKAhead(depth=2, detector=StrideDetector())
        # M_ASYNC private offset says "sequential", but the demand stream
        # is strided by 10KB; the confident detector must win.
        handle = _FakeHandle(IOMode.M_ASYNC, 0, 1, 100 * MB, 4 * KB)
        assert policy.plan(handle, 0, 4 * KB, None) == [(4 * KB, 4 * KB), (8 * KB, 4 * KB)]
        policy.plan(handle, 10 * KB, 4 * KB, None)
        plans = policy.plan(handle, 20 * KB, 4 * KB, None)
        assert plans == [(30 * KB, 4 * KB), (40 * KB, 4 * KB)]

    def test_depth_k_validation(self):
        with pytest.raises(ValueError):
            DepthKAhead(depth=-1)

    def test_stride_detector_confidence_lifecycle(self):
        det = StrideDetector(min_confirmations=2)
        det.observe(0)
        det.observe(10 * KB)
        assert det.stride == 10 * KB and not det.confident
        det.observe(20 * KB)
        assert det.confident
        assert det.predict(20 * KB, 2) == 40 * KB
        det.observe(100 * KB)  # pattern broke
        assert not det.confident
        det.reset()
        assert det.stride is None and det.predict(0) is None

    def test_make_policy_registry(self):
        assert isinstance(make_policy("none"), NoPrefetch)
        deep = make_policy("depth-k", depth=3, stride_detect=False)
        assert isinstance(deep, DepthKAhead) and deep.detector is None
        strided = make_policy("depth-k", depth=2)
        assert strided.depth == 2 and isinstance(strided.detector, StrideDetector)
        assert isinstance(make_policy("strided"), StridedPolicy)
        with pytest.raises(ValueError):
            make_policy("bogus")

    def test_one_ahead_is_the_depth_one_pipeline(self):
        """The paper's prototype is DepthKAhead(1) with no detector, and
        it is what an unconfigured Prefetcher runs."""
        one = make_policy("one-ahead")
        assert type(one) is DepthKAhead
        assert one.depth == 1 and one.detector is None
        default = Prefetcher().policy
        assert type(default) is DepthKAhead
        assert default.depth == 1 and default.detector is None
        assert POLICY_NAMES == ("none", "one-ahead", "depth-k", "strided")
        with pytest.raises(ValueError):
            make_policy("adaptive")


class TestPrefetchStats:
    def test_ratios(self):
        stats = PrefetchStats(hits=6, partial_hits=2, misses=2, issued=10, discarded=3)
        assert stats.demand_reads == 10
        assert stats.hit_rate == pytest.approx(0.6)
        assert stats.coverage == pytest.approx(0.8)
        assert stats.waste_ratio == pytest.approx(0.3)

    def test_empty_ratios(self):
        stats = PrefetchStats()
        assert stats.hit_rate == 0.0
        assert stats.coverage == 0.0
        assert stats.waste_ratio == 0.0

    def test_rate_accessors(self):
        stats = PrefetchStats(hits=6, partial_hits=2, misses=2)
        assert stats.hit_rate == pytest.approx(0.6)
        assert stats.partial_hit_rate == pytest.approx(0.2)
        assert stats.miss_rate == pytest.approx(0.2)

    def test_rate_accessors_zero_read_guard(self):
        stats = PrefetchStats()
        assert stats.hit_rate == 0.0
        assert stats.partial_hit_rate == 0.0
        assert stats.miss_rate == 0.0

    def test_rates_with_failed_fallbacks_do_not_sum_to_one(self):
        stats = PrefetchStats(hits=2, misses=1, failed_fallbacks=1)
        assert stats.demand_reads == 4
        total = stats.hit_rate + stats.partial_hit_rate + stats.miss_rate
        assert total == pytest.approx(0.75)

    def test_merge(self):
        a = PrefetchStats(hits=1, misses=2, issued=3, bytes_prefetched=100)
        b = PrefetchStats(hits=4, misses=5, issued=6, bytes_prefetched=200)
        m = a.merge(b)
        assert m.hits == 5 and m.misses == 7 and m.issued == 9
        assert m.bytes_prefetched == 300

    def test_summary_mentions_key_numbers(self):
        stats = PrefetchStats(hits=3, misses=1)
        text = stats.summary()
        assert "hits=3" in text and "misses=1" in text


def make_machine(nc=4, nio=4):
    return Machine(MachineConfig(n_compute=nc, n_io=nio))


def open_one(machine, mount, name, mode, prefetcher=None, nprocs=1, rank=0, client=None):
    box = {}
    client_index = client if client is not None else rank

    def opener():
        box["h"] = yield from machine.clients[client_index].open(
            mount, name, mode, rank=rank, nprocs=nprocs, prefetcher=prefetcher
        )

    machine.spawn(opener())
    machine.run()
    return box["h"]


class TestPrefetcherIntegration:
    def test_prefetched_data_identical_to_direct(self):
        # Same machine, same file: one handle reads through the
        # prefetcher, a second reads directly; bytes must agree.
        machine = make_machine()
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", 4 * MB)

        pf = Prefetcher(DepthKAhead())
        h1 = open_one(machine, mount, "data", IOMode.M_ASYNC, prefetcher=pf)
        chunks_pf = []

        def reader_pf():
            for _ in range(8):
                yield machine.env.timeout(0.1)  # let the prefetch land
                data = yield from h1.read(64 * KB)
                chunks_pf.append(data.to_bytes())

        machine.spawn(reader_pf())
        machine.run()
        assert pf.stats.hits >= 6  # later reads all hit

        h2 = open_one(machine, mount, "data", IOMode.M_ASYNC, client=1)
        chunks_direct = []

        def reader_direct():
            for _ in range(8):
                data = yield from h2.read(64 * KB)
                chunks_direct.append(data.to_bytes())

        machine.spawn(reader_direct())
        machine.run()
        assert chunks_pf == chunks_direct

    def test_hit_miss_partial_classification(self):
        machine = make_machine()
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", 8 * MB)
        pf = Prefetcher(DepthKAhead())
        h = open_one(machine, mount, "data", IOMode.M_ASYNC, prefetcher=pf)

        def reader():
            # First read: nothing prefetched -> miss.
            yield from h.read(64 * KB)
            # Immediately read again: prefetch in flight -> partial hit.
            yield from h.read(64 * KB)
            # Wait for the next prefetch to complete -> full hit.
            yield machine.env.timeout(0.5)
            yield from h.read(64 * KB)

        machine.spawn(reader())
        machine.run()
        assert pf.stats.misses == 1
        assert pf.stats.partial_hits == 1
        assert pf.stats.hits == 1

    def test_file_pointer_not_moved_by_prefetch(self):
        machine = make_machine()
        mount = machine.mount("/pfs", PFSConfig())
        pfs_file = machine.create_file(mount, "data", 4 * MB)
        pf = Prefetcher(DepthKAhead())
        h = open_one(machine, mount, "data", IOMode.M_ASYNC, prefetcher=pf)

        def reader():
            yield from h.read(64 * KB)
            yield machine.env.timeout(0.5)  # prefetch of block 1 lands

        machine.spawn(reader())
        machine.run()
        # Private pointer advanced only by the demand read.
        assert h.private_offset == 64 * KB
        assert pfs_file.shared_offset == 0

    def test_close_frees_buffers_and_memory(self):
        machine = make_machine()
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", 4 * MB)
        pf = Prefetcher(DepthKAhead())
        h = open_one(machine, mount, "data", IOMode.M_ASYNC, prefetcher=pf)

        def run():
            yield from h.read(64 * KB)
            yield machine.env.timeout(0.5)
            yield from h.close()

        machine.spawn(run())
        machine.run()
        assert h.node.memory.used_by("prefetch") == 0
        assert len(pf.buffer_list.live_buffers) == 0

    def test_close_with_inflight_prefetch_is_safe(self):
        machine = make_machine()
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", 4 * MB)
        pf = Prefetcher(DepthKAhead())
        h = open_one(machine, mount, "data", IOMode.M_ASYNC, prefetcher=pf)

        def run():
            yield from h.read(64 * KB)
            # Close immediately: the prefetch is still in flight.
            yield from h.close()

        machine.spawn(run())
        machine.run()  # the in-flight operation must finish without error
        assert h.node.memory.used_by("prefetch") == 0

    def test_prefetch_requests_tagged_at_server(self):
        machine = make_machine()
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", 4 * MB)
        pf = Prefetcher(DepthKAhead(), monitor=machine.monitor)
        h = open_one(machine, mount, "data", IOMode.M_ASYNC, prefetcher=pf)

        def run():
            yield from h.read(64 * KB)
            yield machine.env.timeout(0.5)

        machine.spawn(run())
        machine.run()
        mon = machine.monitor
        prefetch_reads = sum(
            mon.counter_value(f"pfs_server.{n.node_id}.reads.prefetch") for n in machine.io_nodes
        )
        assert prefetch_reads == 1
        assert mon.counter_value("prefetch.issued") == 1

    def test_oom_skips_prefetch_gracefully(self):
        from repro.hardware.params import HardwareParams, NodeParams

        # Tiny node memory: one 64KB buffer fits, the second doesn't.
        hw = HardwareParams(node=NodeParams(memory_bytes=100 * KB))
        machine = Machine(MachineConfig(n_compute=1, n_io=1, hardware=hw))
        mount = machine.mount("/pfs", PFSConfig(stripe_factor=1))
        machine.create_file(mount, "data", 4 * MB)
        pf = Prefetcher(DepthKAhead(depth=3))
        h = open_one(machine, mount, "data", IOMode.M_ASYNC, prefetcher=pf)

        def run():
            yield from h.read(64 * KB)

        machine.spawn(run())
        machine.run()
        assert pf.stats.issued == 1
        assert pf.stats.skipped_oom == 2

    def test_duplicate_prefetches_suppressed(self):
        machine = make_machine()
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", 8 * MB)
        pf = Prefetcher(DepthKAhead(depth=2))
        h = open_one(machine, mount, "data", IOMode.M_ASYNC, prefetcher=pf)

        def run():
            yield from h.read(64 * KB)  # prefetches blocks 1,2
            yield machine.env.timeout(0.5)
            yield from h.read(64 * KB)  # hits 1; plans 2,3; 2 is already live

        machine.spawn(run())
        machine.run()
        # The planner drops the live block 2 before the prefetcher sees
        # it, so only block 3 is issued and no duplicate is ever skipped.
        assert pf.stats.issued == 3
        assert pf.stats.skipped_duplicate == 0
        live = sorted((b.offset, b.end) for b in pf.buffer_list.live_buffers)
        assert live == [(2 * 64 * KB, 3 * 64 * KB), (3 * 64 * KB, 4 * 64 * KB)]
        for (_, end1), (start2, _) in zip(live, live[1:]):
            assert end1 <= start2

    def test_m_record_prefetch_hits_across_rounds(self):
        machine = Machine(MachineConfig(n_compute=4, n_io=4))
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", 16 * MB)
        prefetchers = [Prefetcher(DepthKAhead()) for _ in range(4)]
        handles = [None] * 4

        def opener(rank):
            handles[rank] = yield from machine.clients[rank].open(
                mount,
                "data",
                IOMode.M_RECORD,
                rank=rank,
                nprocs=4,
                prefetcher=prefetchers[rank],
            )

        for rank in range(4):
            machine.spawn(opener(rank))
        machine.run()

        def reader(h):
            for _ in range(6):
                yield from h.node.compute(0.1)  # balanced workload
                yield from h.read(64 * KB)

        for h in handles:
            machine.spawn(reader(h))
        machine.run()
        for pf in prefetchers:
            assert pf.stats.hits >= 4  # all but the first read (and warmup)

    def test_one_prefetcher_per_handle_enforced(self):
        machine = make_machine()
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", 1 * MB)
        pf = Prefetcher(DepthKAhead())
        open_one(machine, mount, "data", IOMode.M_ASYNC, prefetcher=pf)

        def second_open():
            yield from machine.clients[1].open(
                mount, "data", IOMode.M_ASYNC, rank=0, nprocs=1, prefetcher=pf
            )

        machine.spawn(second_open())
        with pytest.raises(RuntimeError):
            machine.run()
