"""Failure-injection tests: media errors propagating through the stack."""

import pytest

from repro.config import MachineConfig, PFSConfig
from repro.core import DepthKAhead, Prefetcher
from repro.core.prefetch_buffer import BufferState
from repro.hardware.raid import RAIDError
from repro.machine import Machine
from repro.paragonos.rpc import RPCError
from repro.pfs import IOMode

KB = 1024
MB = 1024 * 1024


def make_machine(n=2):
    return Machine(MachineConfig(n_compute=n, n_io=n))


def open_handle(machine, mount, name, mode=IOMode.M_ASYNC, prefetcher=None):
    box = {}

    def opener():
        box["h"] = yield from machine.clients[0].open(
            mount, name, mode, rank=0, nprocs=1, prefetcher=prefetcher
        )

    machine.spawn(opener())
    machine.run()
    return box["h"]


class TestRAIDInjection:
    def test_injected_error_raises(self):
        from repro.hardware import RAID3Array, SCSIBus
        from repro.sim import Environment

        env = Environment()
        raid = RAID3Array(env, SCSIBus(env))
        raid.inject_failures(1)

        def proc():
            yield from raid.read(0, 64 * KB)

        env.process(proc())
        with pytest.raises(RAIDError, match="injected"):
            env.run()

    def test_failure_count_consumed(self):
        from repro.hardware import RAID3Array, SCSIBus
        from repro.sim import Environment

        env = Environment()
        raid = RAID3Array(env, SCSIBus(env))
        raid.inject_failures(1)

        def proc():
            try:
                yield from raid.read(0, 64 * KB)
            except RAIDError:
                pass
            # Second access succeeds.
            n = yield from raid.read(0, 64 * KB)
            return n

        p = env.process(proc())
        env.run()
        assert p.value == 64 * KB

    def test_negative_count_rejected(self):
        from repro.hardware import RAID3Array, SCSIBus
        from repro.sim import Environment

        env = Environment()
        raid = RAID3Array(env, SCSIBus(env))
        with pytest.raises(ValueError):
            raid.inject_failures(-1)

    def test_arm_released_after_injected_error(self):
        from repro.hardware import RAID3Array, SCSIBus
        from repro.sim import Environment

        env = Environment()
        raid = RAID3Array(env, SCSIBus(env))
        raid.inject_failures(1)
        results = []

        def failing():
            try:
                yield from raid.read(0, 64 * KB)
            except RAIDError:
                results.append("failed")

        def following():
            yield env.timeout(0.001)
            yield from raid.read(0, 64 * KB)
            results.append("ok")

        env.process(failing())
        env.process(following())
        env.run()
        assert results == ["failed", "ok"]


class TestClientErrorPropagation:
    def test_demand_read_failure_reaches_application(self):
        machine = make_machine()
        mount = machine.mount("/pfs", PFSConfig(stripe_factor=1))
        machine.create_file(mount, "data", 1 * MB)
        handle = open_handle(machine, mount, "data")
        machine.arrays[0].inject_failures(1)

        def proc():
            try:
                yield from handle.read(64 * KB)
            except RPCError as exc:
                return str(exc)

        p = machine.spawn(proc())
        machine.run()
        assert "injected" in p.value

    def test_application_can_retry_after_failure(self):
        machine = make_machine()
        mount = machine.mount("/pfs", PFSConfig(stripe_factor=1))
        machine.create_file(mount, "data", 1 * MB)
        handle = open_handle(machine, mount, "data")
        machine.arrays[0].inject_failures(1)

        def proc():
            try:
                yield from handle.read(64 * KB)
            except RPCError:
                pass
            # The failed read did not advance the pointer correctly?  The
            # M_ASYNC pointer advanced before the transfer; rewind.
            yield from handle.lseek(0)
            data = yield from handle.read(64 * KB)
            return len(data)

        p = machine.spawn(proc())
        machine.run()
        assert p.value == 64 * KB


class TestPrefetchFailureResilience:
    def test_failed_prefetch_does_not_crash_application(self):
        machine = make_machine()
        mount = machine.mount("/pfs", PFSConfig(stripe_factor=1))
        machine.create_file(mount, "data", 1 * MB)
        pf = Prefetcher(DepthKAhead())
        handle = open_handle(machine, mount, "data", prefetcher=pf)

        def proc():
            yield from handle.read(64 * KB)  # issues prefetch of block 1
            machine.arrays[0].inject_failures(1)  # kill that prefetch
            yield machine.env.timeout(0.5)
            # The failed buffer is gone; the demand is a plain miss.
            data = yield from handle.read(64 * KB)
            return len(data)

        p = machine.spawn(proc())
        machine.run()
        assert p.value == 64 * KB
        assert pf.stats.failed == 1
        assert pf.stats.misses == 2
        # Memory released by the failed buffer (only the newly issued
        # prefetch may remain).
        assert handle.node.memory.used_by("prefetch") <= 64 * KB

    def test_partial_hit_waiter_survives_prefetch_failure(self):
        machine = make_machine()
        mount = machine.mount("/pfs", PFSConfig(stripe_factor=1))
        machine.create_file(mount, "data", 1 * MB)
        pf = Prefetcher(DepthKAhead())
        handle = open_handle(machine, mount, "data", prefetcher=pf)

        # Plant an in-flight buffer for block 0 and fail it while the
        # demand read is waiting on it: the demand must fall back to a
        # direct read and return correct data.
        buffer = pf.buffer_list.issue(0, 64 * KB)

        def failer():
            yield machine.env.timeout(0.1)
            pf.buffer_list.fail(buffer)

        def proc():
            data = yield from handle.read(64 * KB)
            return len(data), machine.env.now

        machine.spawn(failer())
        p = machine.spawn(proc())
        machine.run()
        nbytes, finished = p.value
        assert nbytes == 64 * KB
        assert finished > 0.1  # waited for the failure, then re-read
        assert pf.stats.failed_fallbacks == 1
        assert handle.node.memory.used_by("prefetch") <= 64 * KB

    def test_failed_buffer_state(self):
        machine = make_machine()
        mount = machine.mount("/pfs", PFSConfig(stripe_factor=1))
        machine.create_file(mount, "data", 1 * MB)
        pf = Prefetcher(DepthKAhead())
        handle = open_handle(machine, mount, "data", prefetcher=pf)

        def proc():
            yield from handle.read(64 * KB)
            machine.arrays[0].inject_failures(1)
            yield machine.env.timeout(0.5)

        machine.spawn(proc())
        machine.run()
        states = [b.state for b in pf.buffer_list.buffers]
        assert BufferState.FAILED in states
