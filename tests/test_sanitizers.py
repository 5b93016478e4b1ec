"""Runtime-sanitizer tests: tie-order race detector and leak checker.

The synthetic-race tests build the *smallest* model that exhibits each
bug class: a semaphore that grants synchronously, contended at one
timestamp (tie-order race, fixed by :class:`Arbiter`), and a slot with
no release (leak).
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
from repro.hardware.mesh import Mesh, MeshMessage
from repro.hardware.params import MeshParams
from repro.sim import Arbiter, Environment, Event, Hold


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


class _RacySemaphore:
    """A one-slot semaphore that grants a free slot at request time, so
    same-instant contenders win by event-pop order: the race."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.users: List[Event] = []
        self.queue: List[Tuple[Event, float]] = []

    def hold(self, seconds: float) -> Event:
        done = Event(self.env)
        self.queue.append((done, seconds))
        self._grant()
        return done

    def _grant(self) -> None:
        if self.queue and not self.users:
            done, seconds = self.queue.pop(0)
            self.users.append(done)
            self.env.timeout(seconds).callbacks.append(lambda _ev: self._release(done))

    def _release(self, done: Event) -> None:
        self.users.remove(done)
        done.succeed()
        self._grant()


def _contend(hold):
    """Two processes contend for one slot at the same timestamp; the
    grant order is the 'result' of this miniature experiment.  *hold*
    maps ``env`` to a function making a one-second hold."""

    def run(tie_break: str) -> MiniReport:
        env = Environment(tie_break=tie_break)
        one_second = hold(env)
        order: List[str] = []

        def contender(name):
            yield one_second()
            order.append(name)

        for name in ("a", "b"):
            env.process(contender(name))
        env.run()
        return MiniReport(order=tuple(order))

    return run


def _racy(env):
    semaphore = _RacySemaphore(env)
    return lambda: semaphore.hold(1.0)


def _arbitrated(env):
    arbiter = Arbiter(env)
    return lambda: Hold(arbiter, 1.0)


class TestTieOrderDetector:
    def test_synthetic_race_is_flagged(self):
        # A synchronous grant follows request order == event pop order:
        # permuting the tie-break permutes the winner.
        result = check_tie_order(_contend(_racy))
        assert not result.deterministic
        assert len(set(result.fingerprints.values())) == 2
        assert result.reports["fifo"].order != result.reports["lifo"].order
        assert "RACE" in result.describe()

    def test_arbitrated_resource_is_deterministic(self):
        # The fix: an arbiter grants by canonical keys, so the winner is
        # identical under either tie-break.
        result = check_tie_order(_contend(_arbitrated))
        assert result.deterministic
        assert len(set(result.fingerprints.values())) == 1
        assert "deterministic" in result.describe()

    def test_assert_raises_on_race(self):
        with pytest.raises(TieOrderRace):
            assert_tie_order_deterministic(_contend(_racy))

    def test_assert_passes_and_returns_result(self):
        result = assert_tie_order_deterministic(_contend(_arbitrated))
        assert result.deterministic


class _Slot:
    """An acquire/release resource exposing ``users``: what the leak
    checker inspects."""

    def __init__(self, env: Environment) -> None:
        self.users: List[str] = []
        env.register_resource(self)

    def acquire(self, who: str) -> None:
        self.users.append(who)

    def release(self, who: str) -> None:
        self.users.remove(who)


class TestLeakChecker:
    def test_unreleased_request_is_flagged(self):
        env = Environment()
        slot = _Slot(env)

        def leaker():
            slot.acquire("leaker")
            yield env.timeout(1.0)

        env.process(leaker())
        env.run()
        leaks = leaked_resources(env)
        assert len(leaks) == 1
        assert leaks[0].resource is slot
        assert leaks[0].held == 1
        with pytest.raises(AssertionError, match="resource leak"):
            assert_no_leaks(env)

    def test_released_request_is_clean(self):
        env = Environment()
        slot = _Slot(env)

        def polite():
            slot.acquire("polite")
            yield env.timeout(1.0)
            slot.release("polite")

        env.process(polite())
        env.run()
        assert leaked_resources(env) == []
        assert_no_leaks(env)

    def test_arbitrated_resource_leak_flagged(self):
        # A hold always releases its slot, so an arbiter only leaks
        # through a waiter that releases explicitly: a mesh worm whose
        # pending pop is dropped while it holds its one-hop route.
        env = Environment()
        mesh = Mesh(env, 2, 1, params=MeshParams(sw_overhead_s=1.0, per_hop_s=1.0))
        mesh.post(MeshMessage(src=(0, 0), dst=(1, 0), size_bytes=0), env.event(), None)
        env.run(until=1.5)
        env._queue.clear()
        env.run()
        (leak,) = leaked_resources(env)
        assert isinstance(leak.resource, Arbiter) and leak.held == 1
        assert "mesh link 0,0->1,0" in str(leak)

    def test_wedged_raid_arm_flagged(self):
        # The arm is held through RAID3Array._busy, not a request object:
        # an access whose completion pop is lost wedges every later one.
        env = Environment()
        raid = RAID3Array(env, SCSIBus(env))
        raid.access_then("read", 0, 64 * 1024, (), lambda value, error: None)
        env.run(until=1e-4)
        env._queue.clear()
        env.run()
        leaks = leaked_resources(env)
        assert len(leaks) == 1
        assert leaks[0].resource is raid
        assert leaks[0].held == 1

    def test_wedged_raid_arm_fails_machine_verify(self):
        machine = Machine(MachineConfig(n_compute=1, n_io=1))
        array = machine.arrays[0]
        assert machine.verify() == []
        array.access_then("read", 0, 64 * 1024, (), lambda value, error: None)
        machine.env.run(until=1e-4)
        machine.env._queue.clear()
        machine.run()
        assert machine.verify() == [str(leak) for leak in leaked_resources(machine.env)]
        assert len(machine.verify()) == 1

    def test_no_verdict_while_events_remain(self):
        # A hold is only a leak once nothing can ever release it.
        env = Environment()
        arbiter = Arbiter(env)

        def holder():
            yield Hold(arbiter, 10.0)

        env.process(holder())
        env.run(until=5.0)
        assert arbiter.users
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
