"""Unit tests for the instrumentation (monitor) module."""

import pytest

from repro.obs import NULL_MONITOR, Observability
from repro.obs.monitor import CounterStat
from repro.sim import Environment, Monitor


@pytest.fixture
def env():
    return Environment()


class TestCounterStat:
    def test_add(self):
        counter = CounterStat("n")
        counter.add()
        counter.add(2.5)
        assert counter.value == 3.5

    def test_negative_rejected(self):
        counter = CounterStat("n")
        with pytest.raises(ValueError):
            counter.add(-1)


class TestMonitor:
    def test_named_stats_are_singletons(self, env):
        mon = Monitor(env)
        assert mon.counter("a") is mon.counter("a")

    def test_counter_value_of_missing_is_zero(self, env):
        mon = Monitor(env)
        assert mon.counter_value("nope") == 0.0

    def test_snapshot_contains_all_kinds(self, env):
        mon = Monitor(env)
        mon.counter("reads").add(3)
        mon.counter("idle")
        assert mon.snapshot() == {"counter.reads": 3, "counter.idle": 0}

    def test_null_monitor_records_nothing(self):
        NULL_MONITOR.counter("reads").add(3)
        assert NULL_MONITOR.counter_value("reads") == 0.0
        assert NULL_MONITOR.snapshot() == {}

    def test_observability_is_the_monitor(self, env):
        obs = Observability(env)
        assert isinstance(obs, Monitor)
        obs.counter("reads").add(2)
        assert obs.counter_value("reads") == 2
        assert obs.snapshot() == {"counter.reads": 2}
