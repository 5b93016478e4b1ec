"""Unit tests for simulation resources: the arbiter, its holds and the
arbitrated store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.raid import RAID3Array
from repro.hardware.scsi import SCSIBus
from repro.hardware import Node, NodeKind
from repro.sim import Arbiter, ArbitratedStore, Environment, Hold
from repro.sim.resources import _canonical_order, _canonical_sort, _CanonKey, _native_order
from tests.conftest import raid_read

MB = 1024 * 1024


@pytest.fixture
def env():
    return Environment()


TIE_BREAKS = ("fifo", "lifo")


class TestResource:
    """An :class:`Arbiter` as a semaphore: holds of its slots."""

    def test_bad_capacity(self, env):
        with pytest.raises(ValueError):
            Arbiter(env, capacity=0)
        with pytest.raises(ValueError):
            Hold(Arbiter(env), -1.0)

    def test_immediate_grant_under_capacity(self, env):
        res = Arbiter(env, capacity=2)

        def proc(env, res):
            granted = yield Hold(res, 1.0)
            return granted, env.now

        p1 = env.process(proc(env, res))
        p2 = env.process(proc(env, res))
        env.run()
        assert p1.value == (0.0, 1.0) and p2.value == (0.0, 1.0)

    def test_mutual_exclusion(self, env):
        res = Arbiter(env, capacity=1)
        holds = []

        def proc(env, res, tag):
            granted = yield Hold(res, 1.0)
            holds.append((tag, granted, env.now))

        env.process(proc(env, res, "a"))
        env.process(proc(env, res, "b"))
        env.run()
        assert holds == [("a", 0.0, 1.0), ("b", 1.0, 2.0)]

    def test_fifo_ordering(self, env):
        res = Arbiter(env, capacity=1)
        order = []

        def proc(env, res, tag, arrive):
            yield env.timeout(arrive)
            yield Hold(res, 10.0)
            order.append(tag)

        # Spawned last-first: the larger causal key arrives first.
        for i, tag in reversed(list(enumerate(["first", "second", "third"]))):
            env.process(proc(env, res, tag, i * 0.1))
        env.run()
        assert order == ["first", "second", "third"]

    def test_count_and_capacity(self, env):
        res = Arbiter(env, capacity=3)

        def proc(env, res):
            yield Hold(res, 1.0)

        for _ in range(5):
            env.process(proc(env, res))
        env.run(until=0.5)
        assert res.capacity == 3
        assert len(res.users) == 3 and res.free == 0
        assert len(res.queue) == 2
        env.run()
        assert res.users == () and res.free == 3


class TestArbiter:
    """Grant order, event cost and busy accounting of the arbiter, under
    both kernel tie-breaks.  (A mesh link held when the queue drains is
    reported as a leak: ``TestLinkArbitration`` in test_hardware_mesh.py.)"""

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize("reverse", [False, True])
    def test_capacity_three_grants_in_arrival_then_key_order(self, tie_break, reverse):
        # Three blockers hold every slot over [0, 1].  Behind them queue
        # key (9,) at 0.5, then four keys together at 0.75.  At 1.0 the
        # three slots go to (9,) (earliest), then (1,) and (2,); (4,)
        # and (7,) follow at 2.0.  The spawn order must not matter.
        env = Environment(tie_break=tie_break)
        res = Arbiter(env, capacity=3)
        granted = {}
        holds = {}

        def proc(key, arrive):
            yield env.timeout(arrive)
            holds[key] = hold = Hold(res, 1.0, key=key)
            granted[key] = yield hold

        together = [(4,), (1,), (7,), (2,)]
        if reverse:
            together.reverse()
        spawns = [((0, i), 0.0) for i in (1, 2, 3)] + [((9,), 0.5)]
        spawns += [(key, 0.75) for key in together]
        for key, arrive in spawns:
            env.process(proc(key, arrive))
        env.run(until=1.5)
        assert res.holder is holds[(2,)]  # the last of the three granted at 1.0
        assert [entry[1] for entry in res.queue] == [(4,), (7,)]
        env.run()
        assert granted == {
            (0, 1): 0.0, (0, 2): 0.0, (0, 3): 0.0,
            (9,): 1.0, (1,): 1.0, (2,): 1.0, (4,): 2.0, (7,): 2.0,
        }

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_zero_second_hold_is_one_event_at_its_grant(self, tie_break):
        # Process start (one event), the hold (one event, popped at its
        # grant instant); the process ends unjoined (no event).
        env = Environment(tie_break=tie_break)
        res = Arbiter(env)

        def proc():
            yield env.timeout(1.5)
            granted = yield Hold(res, 0.0)
            return granted, env.now

        p = env.process(proc())
        env.run()
        assert p.value == (1.5, 1.5)
        assert env._eid == 3
        assert res.busy_s == 0.0 and res.free == 1

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_busy_seconds_are_the_float_sum_of_the_holds(self, tie_break):
        # Process and callback holds on one CPU, released in grant
        # order; the node reads the arbiter's own total.
        env = Environment(tie_break=tie_break)
        node = Node(env, 0, NodeKind.COMPUTE, (0, 0))
        lengths = [0.1, 0.2, 1e-7, 0.3, 0.0, 1 / 3, 2.5e-5]
        done = []

        def proc(i, seconds):
            yield from node.busy(seconds)
            done.append(i)

        for i, seconds in enumerate(lengths):
            if i % 2:
                node.busy_then(seconds, (i,), lambda i=i: done.append(i))
            else:
                env.process(proc(i, seconds), order_key=(i,))
        env.run()
        assert done == list(range(len(lengths)))
        total = 0.0
        for seconds in lengths:
            total += seconds
        assert node.cpu_busy_s == node.cpu.busy_s == total


class TestDiskArbitration:
    """The RAID arm's dispatch is settled by arbitrated grants:
    same-timestamp arrivals are ordered canonically (causal key for
    FIFO, LOOK sweep position for the elevator), never by event-pop
    order -- so service order is bit-identical under both kernel
    tie-breaks, in closed and in stepped form."""

    @staticmethod
    def _array(env, form, elevator=True):
        """A default-calibrated array; ``form="stepped"`` shares its bus
        with an idle second array, which keeps it off the closed form."""
        bus = SCSIBus(env)
        raid = RAID3Array(env, bus, name="d", elevator=elevator)
        if form == "stepped":
            RAID3Array(env, bus, name="d-b")
        assert raid.fast_ready == (form == "closed")
        return raid

    @classmethod
    def _service_orders(cls, elevator, requests):
        """Run reads of (tag, lba, issue_delay) under each tie-break and
        form; return the set of completion orders seen."""
        orders = set()
        for tie_break in ("fifo", "lifo"):
            for form in ("closed", "stepped"):
                env = Environment(tie_break=tie_break)
                raid = cls._array(env, form, elevator)
                order = []

                def proc(tag, lba, delay):
                    if delay:
                        yield env.timeout(delay)
                    yield from raid_read(raid, lba, 64 * 1024)
                    order.append(tag)

                for tag, lba, delay in requests:
                    env.process(proc(tag, lba, delay))
                env.run()
                orders.add(tuple(order))
        return orders

    def test_fifo_same_timestamp_arrivals_follow_causal_order(self):
        # Spawn order defines the causal process keys; a pop-order
        # dispatcher would reverse this under lifo.
        requests = [
            ("a", 30 * MB, 0.0), ("b", 10 * MB, 0.0), ("c", 50 * MB, 0.0), ("d", 20 * MB, 0.0)
        ]
        assert self._service_orders(False, requests) == {("a", "b", "c", "d")}

    def test_fifo_arrival_time_dominates_key(self):
        # A later arrival with a smaller causal key still waits its turn.
        requests = [("late", 10 * MB, 0.001), ("early", 50 * MB, 0.0)]
        # "late" is spawned first (smaller key) but arrives second.
        assert self._service_orders(False, requests) == {("early", "late")}

    def test_elevator_sweeps_ascending_regardless_of_spawn_order(self):
        requests = [
            ("c", 30 * MB, 0.0), ("a", 10 * MB, 0.0), ("d", 50 * MB, 0.0), ("b", 20 * MB, 0.0)
        ]
        assert self._service_orders(True, requests) == {("a", "b", "c", "d")}

    def test_elevator_look_reverses_only_when_nothing_ahead(self):
        # "first" is served alone (head moves to ~50MB); the rest queue
        # during its multi-ms service.  The upward sweep continues
        # through 55MB and 60MB before reversing down to 10MB -- greedy
        # nearest-first would starve the distant request differently.
        requests = [
            ("first", 50 * MB, 0.0),
            ("up1", 55 * MB, 0.001),
            ("down", 10 * MB, 0.001),
            ("up2", 60 * MB, 0.001),
        ]
        assert self._service_orders(True, requests) == {("first", "up1", "up2", "down")}

    def test_elevator_exact_distance_tie_broken_by_key(self):
        # Two same-timestamp requests for the same LBA: distance and LBA
        # tie exactly, so the causal (spawn-order) key decides.
        requests = [("x", 20 * MB, 0.0), ("y", 20 * MB, 0.0)]
        assert self._service_orders(True, requests) == {("x", "y")}

    def test_busy_accounting_and_queue_depth(self):
        for form in ("closed", "stepped"):
            env = Environment()
            raid = self._array(env, form)
            depths = []

            def reader(lba):
                yield from raid_read(raid, lba, 64 * 1024)

            def watcher():
                yield env.timeout(0.001)
                depths.append(raid.queue_depth)

            env.process(reader(0))
            env.process(reader(10 * MB))
            env.process(watcher())
            env.run()
            # One read held the arm while the other waited.
            assert depths == [1], form
            assert raid.queue_depth == 0, form
            assert 0 < raid.busy_s <= env.now, form
            assert raid.busy_s == pytest.approx(env.now), form


class TestStore:
    """The :class:`ArbitratedStore` as a FIFO store."""

    def test_fifo_items(self, env):
        store = ArbitratedStore(env)
        got = []

        def producer(env, store):
            for i in range(3):
                yield store.put(i)

        def consumer(env, store):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert got == [0, 1, 2]

    def test_get_blocks_on_empty(self, env):
        store = ArbitratedStore(env)

        def consumer(env, store):
            item = yield store.get()
            return (item, env.now)

        def producer(env, store):
            yield env.timeout(4.0)
            yield store.put("late")

        c = env.process(consumer(env, store))
        env.process(producer(env, store))
        env.run()
        assert c.value == ("late", 4.0)

    def test_put_blocks_at_capacity(self, env):
        store = ArbitratedStore(env, capacity=1)

        def producer(env, store):
            yield store.put("a")
            yield store.put("b")
            return env.now

        def consumer(env, store):
            yield env.timeout(2.0)
            yield store.get()

        p = env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert p.value == pytest.approx(2.0)

    def test_multiple_consumers_fifo(self, env):
        store = ArbitratedStore(env)
        got = {}

        def consumer(env, store, tag):
            item = yield store.get()
            got[tag] = item

        def producer(env, store):
            yield env.timeout(1.0)
            yield store.put("x")
            yield store.put("y")

        env.process(consumer(env, store, "c1"))
        env.process(consumer(env, store, "c2"))
        env.process(producer(env, store))
        env.run()
        assert got == {"c1": "x", "c2": "y"}


class _Waiter:
    """A stand-in for a queued request: what the settle sort reads."""

    __slots__ = ("arrived_at", "key", "_seq")

    def __init__(self, arrived_at, key, seq):
        self.arrived_at = arrived_at
        self.key = key
        self._seq = seq

    def __repr__(self):
        return f"_Waiter({self.arrived_at!r}, {self.key!r}, {self._seq})"


_process_keys = st.lists(st.integers(min_value=0, max_value=3), max_size=4).map(tuple)


class TestCanonicalSettleOrder:
    """Settles sort natively and re-sort through ``_CanonKey`` only when
    the keys do not compare: the order is the canonical one either way."""

    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, 0.5, 1.0]), _process_keys),
            max_size=12,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_native_sort_agrees_with_canonical(self, entries, rng):
        waiters = [_Waiter(at, key, seq) for seq, (at, key) in enumerate(entries, 1)]
        rng.shuffle(waiters)
        expected = sorted(waiters, key=_canonical_order)
        queue = list(waiters)
        _canonical_sort(queue)
        assert queue == expected
        assert queue == sorted(waiters, key=_native_order)

    def test_mixed_shape_keys_fall_back_to_canonical_order(self):
        keys = [(2, 1), "late", None, (1,), ("x", 1), (), 7, (1, "y"), "early", (1,)]
        waiters = [_Waiter(0.0, key, seq) for seq, key in enumerate(keys, 1)]
        waiters.append(_Waiter(-1.0, "first by time", len(keys) + 1))
        with pytest.raises(TypeError):
            sorted(waiters, key=_native_order)
        queue = list(waiters)
        _canonical_sort(queue)
        assert queue == sorted(waiters, key=_canonical_order)
        assert queue[0].key == "first by time"
        # Equal keys keep their arrival (sequence) order.
        ones = [w._seq for w in queue if w.key == (1,)]
        assert ones == sorted(ones)

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_resource_grants_mixed_shape_keys_canonically(self, tie_break):
        env = Environment(tie_break=tie_break)
        res = Arbiter(env, capacity=1)
        keys = [(3,), "b", (1, 2), 4.5, "a", (2,)]
        granted = []

        def holder(key):
            granted_at = yield Hold(res, 0.25, key=key)
            granted.append((key, granted_at, env.now))

        for key in keys:
            env.process(holder(key), order_key=(0,))
        env.run()
        order = sorted(keys, key=_CanonKey)
        assert [key for key, _at, _now in granted] == order
        # Each holds from its grant for 0.25 s.
        assert [at for _key, at, _now in granted] == [0.25 * i for i in range(len(keys))]
        assert [now for _key, _at, now in granted] == [0.25 * (i + 1) for i in range(len(keys))]
