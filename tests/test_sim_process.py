"""Unit tests for simulation processes."""

import pytest

from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestProcessBasics:
    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_process_return_value(self, env):
        def proc(env):
            yield env.timeout(1.0)
            return 99

        p = env.process(proc(env))
        env.run()
        assert p.value == 99

    def test_process_is_alive(self, env):
        def proc(env):
            yield env.timeout(5.0)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_process_is_waitable_event(self, env):
        def child(env):
            yield env.timeout(2.0)
            return "child result"

        def parent(env):
            result = yield env.process(child(env))
            return result

        p = env.process(parent(env))
        env.run()
        assert p.value == "child result"

    def test_waiting_on_finished_process(self, env):
        def child(env):
            yield env.timeout(1.0)
            return 7

        def parent(env, childproc):
            yield env.timeout(5.0)  # child long done
            value = yield childproc
            return value

        c = env.process(child(env))
        p = env.process(parent(env, c))
        env.run()
        assert p.value == 7

    def test_crash_propagates_to_waiter(self, env):
        def child(env):
            yield env.timeout(1.0)
            raise KeyError("lost")

        def parent(env):
            try:
                yield env.process(child(env))
            except KeyError:
                return "handled"
            return "not handled"

        p = env.process(parent(env))
        env.run()
        assert p.value == "handled"

    def test_unhandled_crash_stops_simulation(self, env):
        def child(env):
            yield env.timeout(1.0)
            raise KeyError("lost")

        env.process(child(env))
        with pytest.raises(KeyError):
            env.run()

    def test_yield_non_event_raises_in_process(self, env):
        def proc(env):
            try:
                yield 42
            except TypeError:
                return "typeerror"

        p = env.process(proc(env))
        env.run()
        assert p.value == "typeerror"

    def test_active_process_tracking(self, env):
        observed = []

        def proc(env):
            observed.append(env.active_process)
            yield env.timeout(1.0)

        p = env.process(proc(env))
        env.run()
        assert observed == [p]
        assert env.active_process is None

    def test_process_name(self, env):
        def myworker(env):
            yield env.timeout(1.0)

        p = env.process(myworker(env), name="worker-3")
        assert p.name == "worker-3"
        assert "worker-3" in repr(p)


class TestOrderKeys:
    def test_reserved_keys_take_the_slots_processes_would(self, env):
        def noop():
            yield env.timeout(0)

        assert env.reserve_order_key() == (1,)
        assert env.process(noop()).order_key == (2,)
        keys = []

        def parent():
            keys.append(env.process(noop()).order_key)
            keys.append(env.reserve_order_key())
            keys.append(env.process(noop()).order_key)
            yield env.timeout(0)

        p = env.process(parent())
        env.run()
        assert p.order_key == (3,)
        assert keys == [(3, 1), (3, 2), (3, 3)]


class TestProcessPatterns:
    def test_producer_consumer_via_events(self, env):
        handoff = env.event()
        log = []

        def producer(env):
            yield env.timeout(1.0)
            handoff.succeed("item")

        def consumer(env):
            item = yield handoff
            log.append((env.now, item))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert log == [(1.0, "item")]

    def test_many_processes_shared_counter(self, env):
        counter = {"n": 0}

        def worker(env, k):
            yield env.timeout(k * 0.1)
            counter["n"] += 1

        for k in range(50):
            env.process(worker(env, k))
        env.run()
        assert counter["n"] == 50

    def test_nested_process_spawning(self, env):
        results = []

        def grandchild(env):
            yield env.timeout(1.0)
            results.append("grandchild")
            return 3

        def child(env):
            v = yield env.process(grandchild(env))
            results.append("child")
            return v * 2

        def parent(env):
            v = yield env.process(child(env))
            results.append("parent")
            return v + 1

        p = env.process(parent(env))
        env.run()
        assert p.value == 7
        assert results == ["grandchild", "child", "parent"]
