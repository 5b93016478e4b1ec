"""Unit tests for the DES kernel event primitives."""

import pytest

from repro.sim import Environment, Timeout


@pytest.fixture
def env():
    return Environment()


class TestEventLifecycle:
    def test_new_event_is_pending(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, env):
        ev = env.event()
        with pytest.raises(RuntimeError):
            _ = ev.value
        with pytest.raises(RuntimeError):
            _ = ev.ok

    def test_succeed_sets_value(self, env):
        ev = env.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_double_succeed_raises(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_fail_sets_not_ok(self, env):
        ev = env.event()
        exc = ValueError("boom")
        ev.fail(exc)
        assert ev.triggered
        assert not ev.ok
        assert ev.value is exc
        ev.defused = True  # prevent crash at processing
        env.run()

    def test_unhandled_failure_crashes_run(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_callbacks_run_on_processing(self, env):
        ev = env.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed("hello")
        env.run()
        assert seen == ["hello"]
        assert ev.processed

    def test_fire_runs_callbacks_without_scheduling(self, env):
        ev = env.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.fire("now")
        assert seen == ["now"]
        assert ev.processed and ev.ok
        assert len(env) == 0
        with pytest.raises(RuntimeError):
            ev.fire()


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            Timeout(env, -1.0)

    def test_timeout_advances_clock(self, env):
        env.timeout(2.5)
        env.run()
        assert env.now == pytest.approx(2.5)

    def test_timeout_value_passthrough(self, env):
        def proc(env):
            got = yield env.timeout(1.0, value="payload")
            return got

        p = env.process(proc(env))
        env.run()
        assert p.value == "payload"

    def test_timeouts_fire_in_order(self, env):
        order = []

        def proc(env, delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc(env, 3.0, "c"))
        env.process(proc(env, 1.0, "a"))
        env.process(proc(env, 2.0, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_fifo_at_same_time(self, env):
        order = []

        def proc(env, tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("x", "y", "z"):
            env.process(proc(env, tag))
        env.run()
        assert order == ["x", "y", "z"]


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        def proc(env):
            t1 = env.timeout(1.0, value=1)
            t2 = env.timeout(2.0, value=2)
            result = yield env.all_of([t1, t2])
            assert result[t1] == 1
            assert result[t2] == 2
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(2.0)

    def test_all_of_empty_fires_immediately(self, env):
        def proc(env):
            yield env.all_of([])
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(0.0)

    def test_condition_failure_propagates(self, env):
        def failer(env):
            yield env.timeout(1.0)
            raise RuntimeError("inner crash")

        def waiter(env):
            f = env.process(failer(env))
            with pytest.raises(RuntimeError, match="inner crash"):
                yield env.all_of([f, env.timeout(10.0)])
            return "caught"

        p = env.process(waiter(env))
        env.run()
        assert p.value == "caught"

    def test_condition_value_mapping_api(self, env):
        def proc(env):
            t1 = env.timeout(1.0, value="a")
            t2 = env.timeout(1.0, value="b")
            result = yield env.all_of([t1, t2])
            assert set(result.values()) == {"a", "b"}
            assert len(result) == 2
            assert dict(result.items())[t1] == "a"
            return True

        p = env.process(proc(env))
        env.run()
        assert p.value is True


class TestEnvironmentRun:
    def test_run_until_time(self, env):
        ticks = []

        def clockproc(env):
            while True:
                yield env.timeout(1.0)
                ticks.append(env.now)

        env.process(clockproc(env))
        env.run(until=5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert env.now == pytest.approx(5.5)

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(2.0)
            return "done"

        p = env.process(proc(env))
        assert env.run(until=p) == "done"

    def test_run_until_past_time_raises(self, env):
        env.timeout(1.0)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=0.5)

    def test_run_until_never_triggered_raises(self, env):
        ev = env.event()
        with pytest.raises(RuntimeError):
            env.run(until=ev)

    def test_run_empty_returns_none(self, env):
        assert env.run() is None

    def test_peek(self, env):
        assert env.peek == float("inf")
        env.timeout(4.0)
        assert env.peek == pytest.approx(4.0)

    def test_clock_monotonic_across_events(self, env):
        times = []

        def proc(env, delay):
            yield env.timeout(delay)
            times.append(env.now)

        for d in (5.0, 1.0, 3.0, 1.0):
            env.process(proc(env, d))
        env.run()
        assert times == sorted(times)
