"""Runtime-sanitizer tests: tie-order race detector and leak checker.

The synthetic-race tests build the *smallest* model that exhibits each
bug class: a plain FIFO resource contended at one timestamp (tie-order
race, fixed by :class:`ArbitratedResource`) and a request with no
release (leak).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import pytest

from repro.analysis.sanitizers import (
    TieOrderRace,
    assert_no_leaks,
    assert_tie_order_deterministic,
    check_tie_order,
    leaked_resources,
    report_fingerprint,
)
from repro.config import MachineConfig
from repro.hardware import RAID3Array, SCSIBus
from repro.machine import Machine
from repro.sim import ArbitratedResource, Environment, Resource


@dataclass
class MiniReport:
    """Tiny report stand-in for fingerprint tests."""

    order: Tuple[str, ...]
    by_rank: Dict[int, float] = field(default_factory=dict)
    note: str = field(default="", compare=False)


class TestReportFingerprint:
    def test_equal_reports_equal_fingerprints(self):
        a = MiniReport(order=("a", "b"), by_rank={0: 1.0, 1: 2.0})
        b = MiniReport(order=("a", "b"), by_rank={1: 2.0, 0: 1.0})
        assert report_fingerprint(a) == report_fingerprint(b)

    def test_value_difference_changes_fingerprint(self):
        a = MiniReport(order=("a", "b"))
        b = MiniReport(order=("b", "a"))
        assert report_fingerprint(a) != report_fingerprint(b)

    def test_one_ulp_of_drift_shows(self):
        a = MiniReport(order=(), by_rank={0: 1.0})
        b = MiniReport(order=(), by_rank={0: 1.0 + 2**-52})
        assert report_fingerprint(a) != report_fingerprint(b)

    def test_non_compared_fields_ignored(self):
        a = MiniReport(order=("a",), note="traced")
        b = MiniReport(order=("a",), note="untraced")
        assert report_fingerprint(a) == report_fingerprint(b)


def _contend(resource_factory):
    """Two processes contend for one slot at the same timestamp; the
    grant order is the 'result' of this miniature experiment."""

    def run(tie_break: str) -> MiniReport:
        env = Environment(tie_break=tie_break)
        resource = resource_factory(env)
        order: List[str] = []

        def contender(name):
            req = resource.request()
            try:
                yield req
                order.append(name)
                yield env.timeout(1.0)
            finally:
                resource.release(req)

        for name in ("a", "b"):
            env.process(contender(name))
        env.run()
        return MiniReport(order=tuple(order))

    return run


class TestTieOrderDetector:
    def test_synthetic_race_is_flagged(self):
        # A plain FIFO resource grants in request order == event pop
        # order: permuting the tie-break permutes the winner.
        result = check_tie_order(_contend(lambda env: Resource(env, capacity=1)))
        assert not result.deterministic
        assert len(set(result.fingerprints.values())) == 2
        assert result.reports["fifo"].order != result.reports["lifo"].order
        assert "RACE" in result.describe()

    def test_arbitrated_resource_is_deterministic(self):
        # The fix: canonical arbitration keys make the winner identical
        # under either tie-break.
        result = check_tie_order(_contend(lambda env: ArbitratedResource(env, capacity=1)))
        assert result.deterministic
        assert len(set(result.fingerprints.values())) == 1
        assert "deterministic" in result.describe()

    def test_assert_raises_on_race(self):
        with pytest.raises(TieOrderRace):
            assert_tie_order_deterministic(_contend(lambda env: Resource(env, capacity=1)))

    def test_assert_passes_and_returns_result(self):
        result = assert_tie_order_deterministic(
            _contend(lambda env: ArbitratedResource(env, capacity=1))
        )
        assert result.deterministic


class TestLeakChecker:
    def test_unreleased_request_is_flagged(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def leaker():
            # sim-ok: R005 -- fixture deliberately leaks to exercise the checker
            req = resource.request()
            yield req

        env.process(leaker())
        env.run()
        leaks = leaked_resources(env)
        assert len(leaks) == 1
        assert leaks[0].resource is resource
        assert leaks[0].held == 1
        with pytest.raises(AssertionError, match="resource leak"):
            assert_no_leaks(env)

    def test_released_request_is_clean(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def polite():
            with resource.request() as req:
                yield req
                yield env.timeout(1.0)

        env.process(polite())
        env.run()
        assert leaked_resources(env) == []
        assert_no_leaks(env)

    def test_arbitrated_resource_leak_flagged(self):
        env = Environment()
        resource = ArbitratedResource(env, capacity=1)

        def leaker():
            # sim-ok: R005 -- fixture deliberately leaks to exercise the checker
            req = resource.request()
            yield req

        env.process(leaker())
        env.run()
        assert len(leaked_resources(env)) == 1

    def test_wedged_raid_arm_flagged(self):
        # The arm is held through RAID3Array._busy, not a request object:
        # a holder that never leaves wedges every later access.
        env = Environment()
        raid = RAID3Array(env, SCSIBus(env))

        def wedger():
            yield raid._enqueue(0, ())

        env.process(wedger())
        env.run()
        leaks = leaked_resources(env)
        assert len(leaks) == 1
        assert leaks[0].resource is raid
        assert leaks[0].held == 1

    def test_wedged_raid_arm_fails_machine_verify(self):
        machine = Machine(MachineConfig(n_compute=1, n_io=1))
        array = machine.arrays[0]

        def wedger():
            yield array._enqueue(0, ())

        assert machine.verify() == []
        machine.spawn(wedger())
        machine.run()
        assert machine.verify() == [str(leak) for leak in leaked_resources(machine.env)]
        assert len(machine.verify()) == 1

    def test_no_verdict_while_events_remain(self):
        # A hold is only a leak once nothing can ever release it.
        env = Environment()
        resource = Resource(env, capacity=1)

        def holder():
            with resource.request() as req:
                yield req
                yield env.timeout(10.0)

        env.process(holder())
        env.run(until=5.0)
        assert leaked_resources(env) == []


class TestTieBreakWiring:
    def test_environment_rejects_unknown_tie_break(self):
        with pytest.raises(ValueError):
            Environment(tie_break="random")

    def test_machine_config_rejects_unknown_tie_break(self):
        with pytest.raises(ValueError):
            MachineConfig(tie_break="sideways")

    def test_machine_config_threads_to_environment(self):
        from repro.machine import Machine

        machine = Machine(MachineConfig(n_compute=1, n_io=1, tie_break="lifo"))
        assert machine.env.tie_break == "lifo"

    def test_full_experiment_is_tie_order_deterministic(self):
        # One cell of the paper grid, end to end: the acceptance check
        # the benchmark runs over the full Table 1 / Figure 2 grid.
        from repro.experiments.common import run_collective
        from repro.pfs import IOMode

        KB = 1024
        result = assert_tie_order_deterministic(
            lambda tb: run_collective(
                request_size=128 * KB,
                file_size=1024 * KB,
                iomode=IOMode.M_RECORD,
                prefetch=True,
                n_compute=2,
                tie_break=tb,
            )
        )
        assert result.deterministic
