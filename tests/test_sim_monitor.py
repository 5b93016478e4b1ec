"""Unit tests for the instrumentation (monitor) module."""

import math

import pytest

from repro.sim import Environment, Monitor
from repro.obs.monitor import CounterStat, SeriesStat, TimeWeightedStat


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


class TestTimeWeightedStat:
    def test_mean_weights_by_time(self, env):
        stat = TimeWeightedStat(env, "depth", initial=0.0)

        def proc():
            yield env.timeout(1.0)
            stat.set(10.0)  # 0 for 1s
            yield env.timeout(3.0)
            stat.set(0.0)  # 10 for 3s

        env.process(proc())
        env.run()
        # mean over [0,4] = (0*1 + 10*3) / 4 = 7.5
        assert stat.mean() == pytest.approx(7.5)

    def test_adjust_and_max(self, env):
        stat = TimeWeightedStat(env, "q")
        stat.adjust(+3)
        stat.adjust(+4)
        stat.adjust(-5)
        assert stat.value == 2
        assert stat.maximum == 7

    def test_mean_at_time_zero(self, env):
        stat = TimeWeightedStat(env, "q", initial=5.0)
        assert stat.mean() == 5.0

    def test_degenerate_window_mid_simulation(self, env):
        """A stat created at t>0 and queried at that same instant has a
        zero-width window: the mean is *defined* as the current value
        (the limit as the window shrinks), never a 0/0 artefact."""
        means = []

        def proc():
            yield env.timeout(3.0)
            stat = TimeWeightedStat(env, "q", initial=2.5)
            means.append(stat.mean())

        env.process(proc())
        env.run()
        assert means == [2.5]

    def test_degenerate_window_tracks_instantaneous_sets(self, env):
        """Even several set() calls at the creation instant keep the
        degenerate mean equal to the *current* value."""
        results = []

        def proc():
            yield env.timeout(1.0)
            stat = TimeWeightedStat(env, "q")
            stat.set(7.0)
            stat.set(9.0)
            results.append((stat.mean(), stat.value, stat.maximum))

        env.process(proc())
        env.run()
        assert results == [(9.0, 9.0, 9.0)]

    def test_mean_is_finite_once_time_advances(self, env):
        stat = TimeWeightedStat(env, "q", initial=4.0)

        def proc():
            yield env.timeout(2.0)

        env.process(proc())
        env.run()
        assert stat.mean() == pytest.approx(4.0)
        assert math.isfinite(stat.mean())


class TestSeriesStat:
    def test_summary_statistics(self):
        series = SeriesStat("lat")
        for v in [1.0, 2.0, 3.0, 4.0]:
            series.record(v)
        assert series.count == 4
        assert series.total == 10.0
        assert series.mean() == 2.5
        assert series.minimum() == 1.0
        assert series.maximum() == 4.0
        assert series.stdev() == pytest.approx(1.2909944, rel=1e-6)

    def test_percentiles(self):
        series = SeriesStat("lat")
        for v in range(1, 11):
            series.record(float(v))
        assert series.percentile(0) == 1.0
        assert series.percentile(100) == 10.0
        assert series.percentile(50) == pytest.approx(5.5)

    def test_empty_series(self):
        series = SeriesStat("lat")
        assert math.isnan(series.mean())
        assert math.isnan(series.percentile(50))
        assert series.stdev() == 0.0

    def test_percentile_bounds(self):
        series = SeriesStat("lat")
        series.record(1.0)
        with pytest.raises(ValueError):
            series.percentile(101)


class TestMonitor:
    def test_named_stats_are_singletons(self, env):
        mon = Monitor(env)
        assert mon.counter("a") is mon.counter("a")
        assert mon.series("b") is mon.series("b")
        assert mon.time_weighted("c") is mon.time_weighted("c")

    def test_counter_value_of_missing_is_zero(self, env):
        mon = Monitor(env)
        assert mon.counter_value("nope") == 0.0

    def test_snapshot_contains_all_kinds(self, env):
        mon = Monitor(env)
        mon.counter("reads").add(3)
        mon.series("lat").record(0.5)
        mon.time_weighted("q").set(2.0)
        snap = mon.snapshot()
        assert snap["counter.reads"] == 3
        assert snap["series.lat.count"] == 1
        assert "tw.q.mean" in snap
