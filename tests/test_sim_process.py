"""Unit tests for simulation processes and interrupts."""

import pytest

from repro.sim import Environment, Interrupt


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


class TestInterrupts:
    def test_interrupt_wakes_sleeper(self, env):
        def sleeper(env):
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, env.now)

        def interrupter(env, victim):
            yield env.timeout(2.0)
            victim.interrupt(cause="wake up")

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        env.run()
        assert victim.value == ("interrupted", "wake up", 2.0)

    def test_interrupted_process_can_continue(self, env):
        def sleeper(env):
            try:
                yield env.timeout(100.0)
            except Interrupt:
                pass
            yield env.timeout(1.0)
            return env.now

        def interrupter(env, victim):
            yield env.timeout(2.0)
            victim.interrupt()

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        env.run()
        assert victim.value == pytest.approx(3.0)

    def test_interrupt_dead_process_raises(self, env):
        def quick(env):
            yield env.timeout(1.0)

        def late(env, victim):
            yield env.timeout(5.0)
            with pytest.raises(RuntimeError):
                victim.interrupt()
            return "checked"

        v = env.process(quick(env))
        p = env.process(late(env, v))
        env.run()
        assert p.value == "checked"

    def test_self_interrupt_rejected(self, env):
        def selfish(env):
            me = env.active_process
            with pytest.raises(RuntimeError):
                me.interrupt()
            yield env.timeout(0)
            return "ok"

        p = env.process(selfish(env))
        env.run()
        assert p.value == "ok"

    def test_unhandled_interrupt_crashes_process(self, env):
        def sleeper(env):
            yield env.timeout(100.0)

        def interrupter(env, victim):
            yield env.timeout(1.0)
            victim.interrupt("no handler")

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        with pytest.raises(Interrupt):
            env.run()

    def test_interrupt_while_waiting_on_process(self, env):
        def child(env):
            yield env.timeout(50.0)
            return "child done"

        def parent(env, c):
            try:
                yield c
            except Interrupt:
                return "parent interrupted"

        def interrupter(env, victim):
            yield env.timeout(1.0)
            victim.interrupt()

        c = env.process(child(env))
        p = env.process(parent(env, c))
        env.process(interrupter(env, p))
        env.run()
        assert p.value == "parent interrupted"
        assert c.value == "child done"  # child unaffected


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
