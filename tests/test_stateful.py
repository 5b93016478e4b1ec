"""Stateful (rule-based) hypothesis tests for long-lived structures."""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.hardware.memory import MemoryRegion, OutOfMemoryError
from repro.ufs.allocator import AllocationError, ExtentAllocator
from tests.conftest import TIE_BREAKS


class AllocatorMachine(RuleBasedStateMachine):
    """Random alloc/free interleavings never corrupt the free list."""

    @initialize(total=st.integers(min_value=1, max_value=128))
    def setup(self, total):
        self.total = total
        self.allocator = ExtentAllocator(total)
        self.held = []

    @rule(n=st.integers(min_value=1, max_value=32))
    def allocate(self, n):
        try:
            extents = self.allocator.allocate(n)
        except AllocationError:
            assert n > self.allocator.free_blocks
            return
        assert sum(e.length for e in extents) == n
        self.held.append(extents)

    @precondition(lambda self: self.held)
    @rule(index=st.integers(min_value=0, max_value=10_000))
    def free(self, index):
        extents = self.held.pop(index % len(self.held))
        self.allocator.free(extents)

    @invariant()
    def blocks_conserved(self):
        allocated = sum(e.length for ex in self.held for e in ex)
        assert self.allocator.free_blocks + allocated == self.total

    @invariant()
    def free_list_sorted_disjoint(self):
        extents = self.allocator.free_extents
        for a, b in zip(extents, extents[1:]):
            assert a.end < b.start  # disjoint AND unmerged neighbours

    @invariant()
    def no_overlap_between_held_and_free(self):
        spans = sorted(
            [(e.start, e.end) for ex in self.held for e in ex]
            + [(f.start, f.end) for f in self.allocator.free_extents]
        )
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2


class MemoryRegionMachine(RuleBasedStateMachine):
    """Allocation-class accounting stays exact under random traffic."""

    classes = ("prefetch", "cache", "anon")

    @initialize(capacity=st.integers(min_value=1, max_value=10_000))
    def setup(self, capacity):
        self.capacity = capacity
        self.memory = MemoryRegion(capacity)
        self.model = {name: 0 for name in self.classes}

    @rule(
        nbytes=st.integers(min_value=0, max_value=4_000),
        cls=st.sampled_from(classes),
    )
    def allocate(self, nbytes, cls):
        try:
            self.memory.allocate(nbytes, cls)
        except OutOfMemoryError:
            assert sum(self.model.values()) + nbytes > self.capacity
            return
        self.model[cls] += nbytes

    @rule(
        fraction=st.floats(min_value=0.0, max_value=1.0),
        cls=st.sampled_from(classes),
    )
    def free_some(self, fraction, cls):
        amount = int(self.model[cls] * fraction)
        self.memory.free(amount, cls)
        self.model[cls] -= amount

    @rule(cls=st.sampled_from(classes))
    def overfree_rejected(self, cls):
        import pytest

        with pytest.raises(ValueError):
            self.memory.free(self.model[cls] + 1, cls)

    @invariant()
    def accounting_matches_model(self):
        assert self.memory.used_bytes == sum(self.model.values())
        for cls in self.classes:
            assert self.memory.used_by(cls) == self.model[cls]
        assert 0 <= self.memory.used_bytes <= self.capacity


class FaultPlanMachine(RuleBasedStateMachine):
    """Randomly grown fault plans stay valid and fully recoverable.

    The machine draws an I/O mode, a depth-k prefetcher of depth 1-3 and
    a tie-break order.  Rules accumulate specs -- transient faults, one
    disk failure/copy-back-rebuild pair, crash/restart windows on any
    compute node -- under the plan's own validity constraints;
    invariants check the plan always constructs and its windows pair
    up.  One terminal rule drives a real machine with the accumulated
    plan and asserts the fault plane's acceptance invariants:
    ``Machine.verify()`` clean (including the invariant-7 delivery
    audit), exactly-once demand delivery and no prefetch memory left on
    any compute node.
    """

    REQUEST = 64 * 1024
    ROUNDS = 2
    NPROCS = 8
    MODES = ("M_RECORD", "M_SYNC", "M_UNIX", "M_ASYNC")

    def __init__(self):
        super().__init__()
        self.specs = []
        self.repaired_raids = set()
        self.crash_cursor = 0.01
        self.ran = False

    @initialize(
        mode=st.sampled_from(MODES),
        depth=st.integers(min_value=1, max_value=3),
        tie_break=st.sampled_from(TIE_BREAKS),
    )
    def setup(self, mode, depth, tie_break):
        self.mode = mode
        self.depth = depth
        self.tie_break = tie_break

    @rule(
        kind=st.sampled_from(["media_error", "slow_sector", "server_stall"]),
        after_n=st.integers(min_value=0, max_value=6),
        count=st.integers(min_value=1, max_value=2),
        duration=st.floats(min_value=0.01, max_value=0.3),
    )
    def add_transient(self, kind, after_n, count, duration):
        from repro.faults import FaultSpec

        self.specs.append(
            FaultSpec(
                kind=kind,
                target="raid0" if kind != "server_stall" else "*",
                after_n=after_n,
                count=count,
                # Always below the default first retry timeout (1.0s).
                duration_s=duration if kind != "media_error" else 0.0,
            )
        )

    @precondition(lambda self: "raid0" not in self.repaired_raids)
    @rule(
        # Early enough that the lazy scheduler (tick() at array accesses)
        # always sees both specs while the workload is still reading.
        fail_at=st.floats(min_value=0.0, max_value=0.02),
        rate=st.sampled_from([0.25, 0.5, 1.0]),
        disk_index=st.integers(min_value=0, max_value=3),
    )
    def add_failure_and_rebuild(self, fail_at, rate, disk_index):
        from repro.faults import FaultSpec

        # One failure/repair pair per array: a second concurrent failure
        # would (correctly) exceed RAID-3 redundancy and lose data.
        self.repaired_raids.add("raid0")
        self.specs.append(
            FaultSpec(kind="disk_failure", target="raid0", at_s=fail_at, disk_index=disk_index)
        )
        self.specs.append(
            FaultSpec(kind="disk_repair", target="raid0",
                      at_s=fail_at + 0.01, disk_index=disk_index,
                      rebuild_rate=rate)
        )

    @rule(
        gap=st.floats(min_value=0.01, max_value=0.1),
        width=st.floats(min_value=0.005, max_value=0.05),
        node=st.integers(min_value=0, max_value=NPROCS - 1),
    )
    def add_crash_window(self, gap, width, node):
        from repro.faults import FaultSpec

        crash_at = self.crash_cursor + gap
        restart_at = crash_at + width
        # Windows on different nodes may overlap; the cursor only keeps
        # each node's own windows ordered (shared for simplicity).
        self.crash_cursor = restart_at
        self.specs.append(FaultSpec(kind="node_crash", target=f"node{node}", at_s=crash_at))
        self.specs.append(FaultSpec(kind="node_restart", target=f"node{node}", at_s=restart_at))

    @invariant()
    def plan_always_constructs(self):
        from repro.faults import FaultPlan

        plan = FaultPlan(specs=tuple(self.specs))
        for target in {s.target for s in plan.specs if s.kind in ("node_crash", "node_restart")}:
            windows = plan.crash_windows(target)
            assert all(c < r for c, r in windows)
            assert windows == tuple(sorted(windows))

    @precondition(lambda self: self.specs and not self.ran)
    @rule()
    def drive_machine(self):
        from repro.experiments.common import run_collective, scaled_file_size
        from repro.faults import FaultPlan
        from repro.paragonos.rpc import RPCError
        from repro.pfs import IOMode

        self.ran = True
        plan = FaultPlan(specs=tuple(self.specs))
        try:
            report = run_collective(
                request_size=self.REQUEST,
                file_size=scaled_file_size(self.REQUEST, rounds=self.ROUNDS),
                iomode=IOMode[self.mode],
                rounds=self.ROUNDS,
                prefetch=True,
                faults=plan,
                tie_break=self.tie_break,
                prefetch_depth=self.depth,
                keep_machine=True,
            )
        except RPCError as exc:
            # A media error landing inside a disk-failure window hits an
            # array with no redundancy left behind the bad sector; the
            # model deliberately refuses to invent the data (RAID-3
            # semantics), so the run dying with *this specific* error is
            # a legitimate outcome of the generated plan, not a bug.
            assert "unrecoverable media error on degraded" in str(exc)
            assert "raid0" in self.repaired_raids
            assert any(s.kind == "media_error" for s in self.specs)
            return
        machine = report.machine
        assert machine.verify() == []
        expected = self.REQUEST * self.NPROCS * self.ROUNDS
        assert report.total_bytes == expected
        demand = [
            (file_id, offset, nbytes)
            for (file_id, offset, nbytes, _d, kind, _io) in machine.faults.deliveries
            if kind == "demand"
        ]
        assert len(demand) == len(set(demand))
        assert sorted(o for _f, o, _n in demand) == [
            i * self.REQUEST for i in range(self.NPROCS * self.ROUNDS)
        ]
        for node in machine.compute_nodes:
            assert node.memory.used_by("prefetch") == 0
        repairs = machine.monitor.counter_value("faults.injected.disk_repair")
        if "raid0" in self.repaired_raids and repairs == 1:
            # The scheduler is lazy (tick() at array accesses), so the
            # repair only applies if some access followed its at_s; once
            # applied, the rebuild must run to completion.
            raid0 = next(a for a in machine.arrays if a.name == "raid0")
            assert raid0.rebuilds_completed == 1
            assert not raid0.degraded


class PolicyMachine(RuleBasedStateMachine):
    """Random open/read/close streams at depths 0-4 against a small
    machine: prefetch memory never leaks and the machine-wide
    PrefetchStats merge algebra stays commutative and associative.

    Rules accumulate per-stream scripts; one terminal rule drives the
    machine executing every stream as its own process with its own
    depth-k prefetcher, then audits the aftermath.
    """

    REQUEST = 64 * 1024
    FILE_BLOCKS = 96  # 6 MB: deep enough for any generated stream

    def __init__(self):
        super().__init__()
        self.streams = []
        self.ran = False

    @rule(
        rounds=st.integers(min_value=1, max_value=6),
        depth=st.integers(min_value=0, max_value=4),
        compute=st.floats(min_value=0.0, max_value=0.05),
    )
    def add_stream(self, rounds, depth, compute):
        self.streams.append((rounds, depth, compute))

    @precondition(lambda self: self.streams and not self.ran)
    @rule()
    def drive_machine(self):
        from repro.config import MachineConfig, PFSConfig
        from repro.core import DepthKAhead, Prefetcher
        from repro.machine import Machine
        from repro.obs.stats import PrefetchStats
        from repro.pfs import IOMode

        self.ran = True
        machine = Machine(MachineConfig(n_compute=4, n_io=4))
        mount = machine.mount("/pfs", PFSConfig(stripe_unit=self.REQUEST))
        machine.create_file(mount, "data", self.FILE_BLOCKS * self.REQUEST)
        prefetchers = []

        def app(rank, rounds, depth, compute):
            pf = Prefetcher(DepthKAhead(depth=depth))
            prefetchers.append(pf)
            handle = yield from machine.clients[rank % 4].open(
                mount, "data", IOMode.M_ASYNC, rank=0, nprocs=1, prefetcher=pf
            )
            for _ in range(rounds):
                if compute:
                    yield from handle.node.compute(compute)
                data = yield from handle.read(self.REQUEST)
                assert len(data) == self.REQUEST
            yield from handle.close()

        for index, stream in enumerate(self.streams):
            machine.spawn(app(index, *stream))
        machine.run()

        assert machine.verify() == []
        # -- no leaked prefetch buffers -------------------------------
        for pf in prefetchers:
            blist = pf.buffer_list
            assert blist.live_bytes == 0
            assert blist.memory.used_by("prefetch") == 0
        # -- every demand read was classified exactly once ------------
        per_stream = [pf.stats for pf in prefetchers]
        total_reads = sum(rounds for rounds, *_ in self.streams)
        merged = PrefetchStats()
        for stats in per_stream:
            merged = merged.merge(stats)
        assert merged.demand_reads == total_reads
        # -- merge algebra: commutative and associative ---------------
        # (integer counters exactly; float accumulators only up to
        # reassociated rounding, so compare those with a tolerance)
        def assert_same(x, y):
            for name in ("hits", "partial_hits", "misses", "issued",
                         "skipped_oom", "discarded", "throttled",
                         "bytes_prefetched", "bytes_served"):
                assert getattr(x, name) == getattr(y, name), name
            assert x.overlap_fractions == y.overlap_fractions
            assert abs(x.partial_wait_time - y.partial_wait_time) < 1e-9
            assert abs(x.overlap_time - y.overlap_time) < 1e-9

        backwards = PrefetchStats()
        for stats in reversed(per_stream):
            backwards = stats.merge(backwards)
        assert_same(merged, backwards)
        if len(per_stream) >= 3:
            a, b, c = per_stream[:3]
            assert_same(a.merge(b).merge(c), a.merge(b.merge(c)))
        # Merging never invents rate mass: the merged rates stay in
        # [0, 1] and classification is exhaustive.
        assert merged.hits + merged.partial_hits + merged.misses == total_reads
        assert 0.0 <= merged.hit_rate <= 1.0
        assert abs(
            merged.hit_rate + merged.partial_hit_rate + merged.miss_rate - 1.0
        ) < 1e-9


TestAllocatorMachine = AllocatorMachine.TestCase
TestAllocatorMachine.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestMemoryRegionMachine = MemoryRegionMachine.TestCase
TestMemoryRegionMachine.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestFaultPlanMachine = FaultPlanMachine.TestCase
TestFaultPlanMachine.settings = settings(max_examples=40, stateful_step_count=12, deadline=None)
TestPolicyMachine = PolicyMachine.TestCase
TestPolicyMachine.settings = settings(max_examples=20, stateful_step_count=12, deadline=None)
