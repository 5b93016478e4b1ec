"""Hypothesis property tests on core data structures and invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.ufs.allocator import AllocationError, ExtentAllocator
from repro.ufs.data import LiteralData, SyntheticData, concat_data
from tests.conftest import TIE_BREAKS

KB = 1024


class TestAllocatorProperties:
    @given(
        st.integers(min_value=1, max_value=256),
        st.lists(
            st.tuples(st.sampled_from(["alloc", "free"]), st.integers(1, 64)),
            max_size=60,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_alloc_free_preserves_accounting(self, total, ops):
        """Blocks are conserved: free + allocated == total, no overlap."""
        alloc = ExtentAllocator(total)
        held = []  # list of extent-lists
        for op, n in ops:
            if op == "alloc":
                try:
                    held.append(alloc.allocate(n))
                except AllocationError:
                    assert n > alloc.free_blocks
            elif held:
                alloc.free(held.pop(n % len(held)))
        allocated = sum(e.length for extents in held for e in extents)
        assert alloc.free_blocks + allocated == total
        # No allocated extent overlaps a free extent or another allocation.
        owned = []
        for extents in held:
            for e in extents:
                owned.append((e.start, e.end))
        for f in alloc.free_extents:
            owned.append((f.start, f.end))
        owned.sort()
        for (s1, e1), (s2, _e2) in zip(owned, owned[1:]):
            assert e1 <= s2

    @given(st.integers(min_value=1, max_value=128))
    @settings(max_examples=50, deadline=None)
    def test_free_everything_restores_single_extent(self, total):
        alloc = ExtentAllocator(total)
        held = []
        while alloc.free_blocks:
            held.append(alloc.allocate(min(7, alloc.free_blocks)))
        for extents in held:
            alloc.free(extents)
        assert alloc.free_extents == alloc.free_extents  # sorted invariant
        assert alloc.free_blocks == total
        assert len(alloc.free_extents) == 1


class TestDataProperties:
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=512),
        st.integers(min_value=0, max_value=512),
    )
    @settings(max_examples=150, deadline=None)
    def test_synthetic_slice_homomorphism(self, key, offset, start, length):
        whole = SyntheticData(key, offset, start + length + 16)
        assert (whole.slice(start, length).to_bytes() == whole.to_bytes()[start : start + length])

    @given(st.lists(st.binary(max_size=64), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_concat_equals_byte_concat(self, chunks):
        data = concat_data([LiteralData(c) for c in chunks])
        assert data.to_bytes() == b"".join(chunks)
        assert len(data) == sum(len(c) for c in chunks)

    @given(
        st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=6),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_concat_slice_equals_byte_slice(self, chunks, data_strategy):
        data = concat_data([LiteralData(c) for c in chunks])
        raw = data.to_bytes()
        start = data_strategy.draw(st.integers(0, len(raw)))
        length = data_strategy.draw(st.integers(0, len(raw) - start))
        assert data.slice(start, length).to_bytes() == raw[start : start + length]

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=1, max_value=256),
    )
    @settings(max_examples=100, deadline=None)
    def test_synthetic_equality_is_content_equality(self, key, offset, length):
        a = SyntheticData(key, offset, length)
        b = LiteralData(a.to_bytes())
        assert a == b and hash(a) == hash(b)


class TestBufferCacheModel:
    """Model-based test: the cache behaves like a size-bounded LRU dict."""

    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(
            st.tuples(
                st.sampled_from(["read", "write", "invalidate"]),
                st.integers(min_value=0, max_value=12),
            ),
            max_size=80,
        ),
    )
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_against_lru_model(self, capacity, ops):
        from collections import OrderedDict

        from repro.paragonos.buffercache import BufferCache

        env = Environment()
        cache = BufferCache(env, capacity_blocks=capacity, block_size=64)
        model: "OrderedDict[tuple, bytes]" = OrderedDict()
        dirty = set()

        def model_evict():
            # Mirror the cache's policy: evict LRU *clean* entries only;
            # dirty pressure overflows.
            while len(model) > capacity:
                victim = next((k for k in model if k not in dirty), None)
                if victim is None:
                    break
                del model[victim]

        def apply(op, block):
            key = (1, block)
            if op == "read":
                def fetch():
                    return bytes([block])
                    yield  # pragma: no cover

                def proc():
                    got = yield from cache.read_block(key, fetch)
                    assert got == model_expected

                if key in model:
                    model_expected = model[key]
                    model.move_to_end(key)
                else:
                    model_expected = bytes([block])
                    model[key] = model_expected
                    model_evict()
                env.process(proc())
                env.run()
            elif op == "write":
                payload = bytes([block, 0xFF])
                cache.write_block(key, payload)
                model[key] = payload
                model.move_to_end(key)
                dirty.add(key)
                model_evict()
            else:
                cache.invalidate(key)
                model.pop(key, None)
                dirty.discard(key)

        for op, block in ops:
            apply(op, block)
            assert set(k for k in model) == {
                k for k in model if k in cache
            }  # model keys all present
            assert len(cache) == len(model)
            for key, value in model.items():
                assert cache.peek(key) == value


class TestSimDeterminism:
    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_identical_runs_identical_timings(self, nprocs):
        """The kernel is deterministic: two identical simulations produce
        identical event timings."""

        def run():
            env = Environment()
            log = []

            def worker(env, k):
                yield env.timeout(0.1 * (k % 7))
                log.append((k, env.now))
                yield env.timeout(0.01 * ((k * 13) % 5))
                log.append((k, env.now))

            for k in range(nprocs):
                env.process(worker(env, k))
            env.run()
            return log

        assert run() == run()

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_clock_never_goes_backwards(self, delays):
        env = Environment()
        observed = []

        def waiter(env, delay):
            yield env.timeout(delay)
            observed.append(env.now)

        for delay in delays:
            env.process(waiter(env, delay))
        env.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)


class TestCollectiveReadProperties:
    @given(
        st.integers(min_value=1, max_value=4),  # nprocs
        st.integers(min_value=1, max_value=4),  # rounds
        st.sampled_from([16 * KB, 64 * KB, 96 * KB]),  # request size
        st.booleans(),  # prefetch on/off
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_m_record_reads_partition_a_prefix(self, nprocs, rounds, request, prefetch):
        """Under M_RECORD, the union of all nodes' reads is exactly the
        first nprocs*rounds*request bytes of the file, with no byte read
        twice -- with or without prefetching."""
        from repro.config import MachineConfig, PFSConfig
        from repro.core import DepthKAhead, Prefetcher
        from repro.machine import Machine
        from repro.pfs import IOMode

        file_size = nprocs * rounds * request + 32 * KB  # slack past EOF
        machine = Machine(MachineConfig(n_compute=4, n_io=4))
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", file_size)

        reads = []

        def runner(rank):
            pf = Prefetcher(DepthKAhead()) if prefetch else None
            handle = yield from machine.clients[rank].open(
                mount,
                "data",
                IOMode.M_RECORD,
                rank=rank,
                nprocs=nprocs,
                prefetcher=pf,
            )
            for k in range(rounds):
                offset = handle.next_read_offset(request)
                data = yield from handle.read(request)
                reads.append((offset, len(data)))

        for rank in range(nprocs):
            machine.spawn(runner(rank))
        machine.run()

        spans = sorted(reads)
        # No overlap and no gap: spans tile [0, nprocs*rounds*request).
        position = 0
        for offset, length in spans:
            assert offset == position
            assert length == request
            position += length
        assert position == nprocs * rounds * request

    @given(
        st.integers(min_value=1, max_value=3),
        st.sampled_from([16 * KB, 64 * KB]),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_prefetching_never_changes_data(self, rounds, request):
        """The same M_RECORD schedule returns byte-identical data with
        and without prefetching (one shared machine, two handles)."""
        from repro.config import MachineConfig, PFSConfig
        from repro.core import DepthKAhead, Prefetcher
        from repro.machine import Machine
        from repro.pfs import IOMode

        machine = Machine(MachineConfig(n_compute=2, n_io=2))
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", 2 * rounds * request)

        def collect(client_index, prefetch):
            out = []

            def runner():
                pf = Prefetcher(DepthKAhead()) if prefetch else None
                handle = yield from machine.clients[client_index].open(
                    mount,
                    "data",
                    IOMode.M_ASYNC,
                    rank=0,
                    nprocs=1,
                    prefetcher=pf,
                )
                for _ in range(rounds):
                    yield from handle.node.compute(0.05)
                    data = yield from handle.read(request)
                    out.append(data.to_bytes())

            machine.spawn(runner())
            machine.run()
            return out

        with_pf = collect(0, True)
        without = collect(1, False)
        assert with_pf == without


class TestPrefetcherConsistencyProperty:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["read", "wait", "seek"]),
                st.integers(min_value=0, max_value=30),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_stats_and_memory_stay_consistent(self, script):
        """Any interleaving of reads, waits and seeks keeps the
        prefetcher's accounting consistent, returns correct data, and
        leaks no memory at close."""
        from repro.config import MachineConfig, PFSConfig
        from repro.core import DepthKAhead, Prefetcher
        from repro.machine import Machine
        from repro.pfs import IOMode

        machine = Machine(MachineConfig(n_compute=1, n_io=2))
        mount = machine.mount("/pfs", PFSConfig())
        file_size = 64 * 64 * KB
        pfs_file = machine.create_file(mount, "data", file_size)
        pf = Prefetcher(DepthKAhead())
        reads = {"n": 0}

        def app():
            handle = yield from machine.clients[0].open(
                mount, "data", IOMode.M_ASYNC, rank=0, nprocs=1, prefetcher=pf
            )
            for op, arg in script:
                if op == "read":
                    offset = handle.private_offset
                    data = yield from handle.read(64 * KB)
                    expected_len = max(0, min(64 * KB, file_size - offset))
                    assert len(data) == expected_len
                    if expected_len:
                        reads["n"] += 1
                elif op == "wait":
                    yield machine.env.timeout(arg * 0.01)
                else:
                    yield from handle.lseek((arg % 64) * 64 * KB)
            yield from handle.close()

        machine.spawn(app())
        machine.run()

        stats = pf.stats
        assert stats.demand_reads == reads["n"]
        assert (
            stats.hits + stats.partial_hits + stats.misses + stats.failed_fallbacks
            == stats.demand_reads
        )
        # Every issued prefetch is accounted for exactly once.
        resolved = (
            stats.hits + stats.partial_hits + stats.discarded
            + stats.skipped_duplicate * 0  # skipped never issued
        )
        assert resolved <= stats.issued + stats.hits  # sanity bound
        # No memory leaks after close.
        assert machine.compute_nodes[0].memory.used_by("prefetch") == 0
        assert machine.verify() == []
        del pfs_file


class TestPFSContentProperty:
    @given(
        st.integers(min_value=1, max_value=8),  # stripe factor
        st.sampled_from([16 * KB, 64 * KB, 256 * KB]),  # stripe unit
        st.data(),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_read_range_matches_ground_truth(self, factor, su, data_strategy):
        """Reads of arbitrary (offset, length) through the full stack
        return exactly the bytes the stripe files hold."""
        from repro.config import MachineConfig, PFSConfig
        from repro.machine import Machine
        from repro.pfs import IOMode
        from repro.pfs.stripe import decluster
        from repro.ufs.data import concat_data as cat

        machine = Machine(MachineConfig(n_compute=1, n_io=8))
        mount = machine.mount("/pfs", PFSConfig(stripe_unit=su, stripe_factor=factor))
        file_size = 4 * 256 * KB
        pfs_file = machine.create_file(mount, "data", file_size)

        offset = data_strategy.draw(st.integers(0, file_size - 1))
        length = data_strategy.draw(st.integers(0, file_size - offset))

        box = {}

        def proc():
            handle = yield from machine.clients[0].open(
                mount, "data", IOMode.M_ASYNC, rank=0, nprocs=1
            )
            yield from handle.lseek(offset)
            box["data"] = yield from handle.read(length)

        machine.spawn(proc())
        machine.run()

        expected = cat(
            [
                machine.ufses[p.io_node].content(
                    pfs_file.file_id, p.ufs_offset, p.length
                )
                for p in decluster(pfs_file.attrs, offset, length)
            ]
        )
        assert box["data"] == expected
        assert len(box["data"]) == length


class TestRebuildProperties:
    """Copy-back rebuild: byte conservation and monotone recovery."""

    @staticmethod
    def _rebuild_plan(rate, disk_index=0, repair_at=0.01):
        from repro.faults import FaultPlan, FaultSpec

        return FaultPlan(
            specs=(
                FaultSpec(kind="disk_failure", target="raid0", at_s=0.0, disk_index=disk_index),
                FaultSpec(
                    kind="disk_repair",
                    target="raid0",
                    at_s=repair_at,
                    disk_index=disk_index,
                    rebuild_rate=rate,
                ),
            ),
        )

    @given(
        st.sampled_from([0.25, 0.5, 1.0]),
        st.sampled_from([0, 1, 3]),
        st.sampled_from(TIE_BREAKS),
    )
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_rebuild_byte_conservation(self, rate, disk_index, tie_break):
        """The copy-back writes exactly the failed spindle's share of the
        live stripe region onto the replacement -- no more, no less --
        regardless of throttle rate or which spindle died."""
        from repro.experiments.common import run_collective, scaled_file_size

        report = run_collective(
            request_size=64 * KB,
            file_size=scaled_file_size(64 * KB, rounds=2),
            rounds=2,
            prefetch=True,
            faults=self._rebuild_plan(rate, disk_index),
            tie_break=tie_break,
            keep_machine=True,
        )
        machine = report.machine
        raid0 = next(a for a in machine.arrays if a.name == "raid0")
        # Run-to-quiescence completes the rebuild.
        assert raid0.rebuilds_completed == 1
        assert not raid0.degraded
        live = int(raid0.live_bytes_fn())
        assert live > 0 and live % raid0.data_disks == 0
        assert raid0.rebuild_copied_bytes == live // raid0.data_disks
        assert machine.verify() == []

    @given(st.sampled_from([0.25, 0.5, 1.0]), st.sampled_from(TIE_BREAKS))
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_rebuild_window_bandwidth_at_most_fault_free(self, rate, tie_break):
        """Rebuild traffic competes with demand I/O: bandwidth while the
        copy-back runs never exceeds the fault-free run's, and the same
        bytes are delivered."""
        from repro.experiments.common import run_multipass, scaled_file_size

        file_size = scaled_file_size(64 * KB, rounds=2)
        fault_free = run_multipass(64 * KB, file_size, passes=3, rounds=2, tie_break=tie_break)
        rebuild = run_multipass(
            64 * KB,
            file_size,
            passes=3,
            rounds=2,
            faults=self._rebuild_plan(rate),
            tie_break=tie_break,
            keep_machine=True,
        )
        assert rebuild.total_bytes == fault_free.total_bytes
        assert (rebuild.collective_bandwidth_mbps <= fault_free.collective_bandwidth_mbps)
        raid0 = next(a for a in rebuild.machine.arrays if a.name == "raid0")
        assert raid0.rebuilds_completed == 1
        assert rebuild.machine.verify() == []

    @given(st.sampled_from(TIE_BREAKS))
    @settings(
        max_examples=2,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_post_rebuild_reads_pay_no_reconstruction(self, tie_break):
        """After the frontier reaches the live high-water mark the array
        is healthy again: a fresh pass on the same machine reconstructs
        nothing (monotone recovery's 'back to full speed' half)."""
        from repro.experiments.common import run_multipass, scaled_file_size
        from repro.workloads import CollectiveReadWorkload

        file_size = scaled_file_size(64 * KB, rounds=2)
        report = run_multipass(
            64 * KB,
            file_size,
            passes=2,
            rounds=2,
            faults=self._rebuild_plan(0.5),
            tie_break=tie_break,
            keep_machine=True,
        )
        machine = report.machine
        raid0 = next(a for a in machine.arrays if a.name == "raid0")
        assert not raid0.degraded
        before = machine.monitor.counter_value("raid0.degraded_reads")
        mount = machine.mounts["/pfs"]
        extra = CollectiveReadWorkload(
            machine,
            mount,
            "data",
            request_size=64 * KB,
            rounds=2,
        )
        extra.run()
        assert machine.monitor.counter_value("raid0.degraded_reads") == before
        assert machine.verify() == []


class TestCrashRestartProperties:
    """Crash/restart: exactly-once delivery under randomized windows."""

    @staticmethod
    def _windows(seed, n, horizon=0.4):
        """Seeded, sorted, non-overlapping [crash, restart) windows."""
        import random

        rng = random.Random(seed)
        t, out = 0.0, []
        for _ in range(n):
            t += rng.uniform(0.01, horizon / (2 * n))
            crash_at = t
            t += rng.uniform(0.005, horizon / (2 * n))
            out.append((crash_at, t))
        return tuple(out)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
        st.sampled_from(TIE_BREAKS),
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_crash_replay_never_double_delivers_or_skips(
        self, seed, n_windows, prefetch, tie_break
    ):
        """Any number of crash/restart cycles at seeded random points:
        the demand audit log holds exactly one record per file record --
        no duplicates (a crash-before-reply replayed, not re-executed)
        and no gaps (every interrupted read was retried)."""
        from repro.experiments.common import run_collective, scaled_file_size
        from repro.faults import FaultPlan

        plan = FaultPlan.crash_restart(node="node0", windows=self._windows(seed, n_windows))
        report = run_collective(
            request_size=64 * KB,
            file_size=scaled_file_size(64 * KB, rounds=2),
            rounds=2,
            prefetch=prefetch,
            faults=plan,
            tie_break=tie_break,
            keep_machine=True,
        )
        machine = report.machine
        assert machine.verify() == []
        demand = [
            (file_id, offset, nbytes)
            for (file_id, offset, nbytes, _digest, kind, _io) in machine.faults.deliveries
            if kind == "demand"
        ]
        assert len(demand) == len(set(demand))  # never double-delivered
        offsets = sorted(offset for _f, offset, _n in demand)
        assert offsets == [i * 64 * KB for i in range(16)]  # never skipped
        assert report.total_bytes == 16 * 64 * KB

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["M_LOG", "M_UNIX"]),
        st.sampled_from(TIE_BREAKS),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_crash_never_double_advances_shared_pointer(self, seed, mode, tie_break):
        """Shared-pointer modes: replaying the coordination handshake
        after a crash advances the file pointer exactly once per logical
        read -- the delivered offsets tile the file prefix with no gap
        (double advance) and no overlap (lost advance)."""
        from repro.experiments.common import run_collective, scaled_file_size
        from repro.faults import FaultPlan
        from repro.pfs import IOMode

        plan = FaultPlan.crash_restart(node="node0", windows=self._windows(seed, 2))
        report = run_collective(
            request_size=64 * KB,
            file_size=scaled_file_size(64 * KB, rounds=2),
            iomode=IOMode[mode],
            rounds=2,
            faults=plan,
            async_partition=False,
            tie_break=tie_break,
            keep_machine=True,
        )
        machine = report.machine
        assert machine.verify() == []
        offsets = sorted(
            offset
            for (_f, offset, _n, _d, kind, _io) in machine.faults.deliveries
            if kind == "demand"
        )
        assert offsets == [i * 64 * KB for i in range(16)]
        assert report.total_bytes == 16 * 64 * KB

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=3),
        st.sampled_from(["M_RECORD", "M_UNIX", "M_LOG"]),
        st.sampled_from(TIE_BREAKS),
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_write_crash_never_drops_or_duplicates_records(self, seed, n_windows, mode, tie_break):
        """Write-side twin of the read-path crash properties: a crash at
        any point in a write call (mid-transfer, during the pointer
        handshake, or after the data landed but before the call
        returned) must leave the file tiled with exactly one copy of
        every record -- no hole where a reserved M_LOG slot went
        unwritten, no duplicate where an applied-but-unreturned M_UNIX
        write was re-run at the advanced pointer, and no skipped or
        double-written M_RECORD slot."""
        from repro.config import MachineConfig
        from repro.faults import FaultPlan
        from repro.machine import Machine
        from repro.pfs import IOMode
        from repro.pfs.stripe import decluster
        from repro.workloads import CollectiveWriteWorkload

        nprocs, rounds, request = 4, 2, 64 * KB
        plan = FaultPlan.crash_restart(node="node0", windows=self._windows(seed, n_windows))
        machine = Machine(MachineConfig(n_compute=nprocs, n_io=4, faults=plan, tie_break=tie_break))
        mount = machine.mount("/pfs")
        pfs_file = machine.create_file(mount, "out", 0)
        workload = CollectiveWriteWorkload(
            machine,
            mount,
            "out",
            request_size=request,
            rounds=rounds,
            iomode=IOMode[mode],
        )
        result = workload.run()
        total = nprocs * rounds * request
        assert result.report.total_bytes == total
        assert pfs_file.size_bytes == total
        if mode != "M_RECORD":
            # Token modes: the shared pointer advanced exactly once per
            # write -- a double advance would leave it past the end, a
            # lost advance short of it.
            assert pfs_file.shared_offset == total

        def slot(offset):
            return concat_data(
                [
                    machine.ufses[p.io_node].content(pfs_file.file_id, p.ufs_offset, p.length)
                    for p in decluster(pfs_file.attrs, offset, request)
                ]
            )

        slots = [slot(i * request) for i in range(nprocs * rounds)]
        if mode == "M_RECORD":
            # Rank-slotted: record (rank, k) lands at slot k*nprocs+rank.
            for k in range(rounds):
                for rank in range(nprocs):
                    expected = CollectiveWriteWorkload.record_content(rank, k, request)
                    assert slots[k * nprocs + rank] == expected
        else:
            # Arrival-ordered: every record present exactly once.
            for rank in range(nprocs):
                for k in range(rounds):
                    expected = CollectiveWriteWorkload.record_content(rank, k, request)
                    assert sum(1 for got in slots if got == expected) == 1
        assert machine.verify() == []


class TestFaultPlaneProperties:
    """Pure properties of the fault plane's trigger/retry machinery."""

    @given(
        st.integers(min_value=0, max_value=20),  # after_n
        st.integers(min_value=1, max_value=5),  # count
        st.integers(min_value=0, max_value=40),  # operations observed
    )
    @settings(max_examples=100, deadline=None)
    def test_count_trigger_fires_exactly_count_times(self, after_n, count, ops):
        """A count-style spec fires on operations [after_n, after_n+count)
        of its matching stream and on nothing else."""
        from repro.faults import FaultInjector, FaultPlan, FaultSpec

        env = Environment()
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="media_error",
                    target="raid0",
                    after_n=after_n,
                    count=count,
                ),
            )
        )
        injector = FaultInjector(env, plan)
        fire_ops = [i for i in range(ops) if injector.decide("media_error", "raid0") is not None]
        expected = max(0, min(ops - after_n, count))
        assert len(fire_ops) == expected
        assert fire_ops == list(range(after_n, after_n + expected))
        assert injector.fired("media_error") == expected
        # Other targets and kinds never fire and never advance counters.
        assert injector.decide("media_error", "raid1") is None
        assert injector.decide("slow_sector", "raid0") is None
        assert injector.fired() == expected

    @given(
        st.floats(min_value=0.01, max_value=10.0),  # timeout_s
        st.floats(min_value=1.0, max_value=4.0),  # backoff_factor
        st.floats(min_value=1.0, max_value=8.0),  # cap multiplier
        st.integers(min_value=1, max_value=10),  # max_attempts
    )
    @settings(max_examples=100, deadline=None)
    def test_retry_schedule_monotone_bounded(self, timeout_s, backoff, cap_mult, attempts):
        from repro.faults import RetryPolicy

        max_timeout_s = timeout_s * cap_mult
        policy = RetryPolicy(
            timeout_s=timeout_s,
            backoff_factor=backoff,
            max_timeout_s=max_timeout_s,
            max_attempts=attempts,
        )
        schedule = [policy.timeout_for(a) for a in range(attempts)]
        assert schedule == sorted(schedule)
        assert schedule[0] == min(timeout_s, max_timeout_s)
        assert all(0 < t <= max_timeout_s for t in schedule)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_scattered_plans_are_reproducible_and_in_budget(self, seed):
        """Same seed, same plan; every generated stall/slow duration is
        shorter than the first retry timeout (always recoverable)."""
        from repro.faults import FaultPlan

        a = FaultPlan.scattered(seed=seed, horizon_s=1.5, n_faults=6)
        b = FaultPlan.scattered(seed=seed, horizon_s=1.5, n_faults=6)
        assert a.specs == b.specs
        for spec in a.specs:
            if spec.duration_s:
                assert spec.duration_s < a.retry.timeout_s
            if spec.windowed:
                assert spec.window_s < a.retry.timeout_s
