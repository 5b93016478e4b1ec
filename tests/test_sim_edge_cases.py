"""Edge-case tests for the DES kernel: condition corners, store
corners — the awkward interactions."""

import pytest

from repro.sim import AllOf, ArbitratedStore, Environment


@pytest.fixture
def env():
    return Environment()


class TestConditionCorners:
    def test_allof_with_already_processed_events(self, env):
        t1 = env.timeout(1.0, value="a")

        def proc(env):
            yield env.timeout(5.0)  # t1 long processed
            result = yield AllOf(env, [t1, env.timeout(1.0, value="b")])
            return sorted(result.values())

        p = env.process(proc(env))
        env.run()
        assert p.value == ["a", "b"]

    def test_nested_conditions_flatten_values(self, env):
        def proc(env):
            t1 = env.timeout(1.0, value=1)
            t2 = env.timeout(2.0, value=2)
            t3 = env.timeout(3.0, value=3)
            result = yield AllOf(env, [AllOf(env, [t1, t2]), t3])
            assert result[t1] == 1 and result[t2] == 2 and result[t3] == 3
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(3.0)

    def test_condition_events_from_other_env_rejected(self, env):
        other = Environment()
        t_mine = env.timeout(1.0)
        t_other = other.timeout(1.0)
        with pytest.raises(ValueError):
            AllOf(env, [t_mine, t_other])


class TestStoreCorners:
    def test_store_capacity_one_ping_pong(self, env):
        store = ArbitratedStore(env, capacity=1)
        log = []

        def producer(env):
            for k in range(3):
                yield store.put(k)
                log.append(("put", k, env.now))

        def consumer(env):
            for _ in range(3):
                yield env.timeout(1.0)
                item = yield store.get()
                log.append(("get", item, env.now))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        puts = [entry for entry in log if entry[0] == "put"]
        gets = [entry for entry in log if entry[0] == "get"]
        assert [p[1] for p in puts] == [0, 1, 2]
        assert [g[1] for g in gets] == [0, 1, 2]
        # Each later put had to wait for the matching get.
        assert puts[2][2] >= gets[1][2]


class TestEnvironmentCorners:
    def test_step_on_empty_raises(self, env):
        from repro.sim.environment import EmptySchedule

        with pytest.raises(EmptySchedule):
            env.step()

    def test_run_until_already_processed_event(self, env):
        t = env.timeout(1.0, value="done")
        env.run()
        assert env.run(until=t) == "done"

    def test_run_until_failed_processed_event_raises(self, env):
        def crasher(env):
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        p = env.process(crasher(env))
        with pytest.raises(RuntimeError):
            env.run()
        with pytest.raises(RuntimeError):
            env.run(until=p)

    def test_urgent_events_beat_normal_at_same_time(self, env):
        order = []

        def normal(env):
            yield env.timeout(1.0)
            order.append("normal")

        env.process(normal(env))

        # A process started at t=1.0 via urgent init should run its
        # first slice before the normal timeout callback at t=1.0.
        def starter(env):
            yield env.timeout(1.0)

        def urgent_spawner(env):
            yield env.timeout(0.5)
            def quick(env):
                order.append("urgent-init")
                yield env.timeout(0)

            # Schedule quick's init (urgent) for t=1.0 by sleeping there.
            yield env.timeout(0.5)
            env.process(quick(env))

        env.process(urgent_spawner(env))
        env.run()
        assert "urgent-init" in order and "normal" in order
