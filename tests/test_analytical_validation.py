"""Analytical validation: simulated times vs closed-form expectations.

Each test derives the expected duration of a scenario directly from the
hardware parameters and asserts the simulation lands on it.  These are
the calibration's regression tests: if a model change silently double-
charges a copy or drops a positioning delay, these fail with numbers.
"""

import pytest

from repro.config import MachineConfig, PFSConfig
from repro.hardware.params import DEFAULT_HARDWARE
from repro.machine import Machine
from repro.pfs import IOMode
from tests.conftest import raid_read

KB = 1024
MB = 1024 * 1024
HW = DEFAULT_HARDWARE


def single_read(machine, mount, nbytes, offset=0):
    """One M_ASYNC read from compute node 0; returns the call duration."""
    box = {}

    def proc():
        handle = yield from machine.clients[0].open(mount, "data", IOMode.M_ASYNC, rank=0, nprocs=1)
        if offset:
            yield from handle.lseek(offset)
        t0 = machine.env.now
        yield from handle.read(nbytes)
        box["t"] = machine.env.now - t0

    machine.spawn(proc())
    machine.run()
    return box["t"]


class TestSingleReadLatency:
    def expected_single_piece(self, nbytes, positioning):
        """Closed form for an uncontended one-piece read."""
        node = HW.node
        mesh = HW.mesh
        stream = nbytes / min(HW.scsi.bandwidth_bps, HW.raid.data_disks * HW.disk.media_rate_bps)
        return (
            node.client_call_overhead_s
            + 2 * mesh.sw_overhead_s  # request + inbox handoff (send side)
            + node.server_request_overhead_s
            + HW.raid.controller_overhead_s
            + positioning
            + HW.scsi.arbitration_s
            + stream
            + mesh.sw_overhead_s  # reply
            + nbytes / node.receive_bps
        )

    def test_one_block_first_read(self):
        machine = Machine(MachineConfig(n_compute=1, n_io=1))
        mount = machine.mount("/pfs", PFSConfig(stripe_factor=1))
        machine.create_file(mount, "data", 1 * MB)
        t = single_read(machine, mount, 64 * KB)
        # First read: seek from LBA 0 to 0 is free, rotation is jittered
        # in [0, rotation]; bound with the extremes.
        lo = self.expected_single_piece(64 * KB, 0.0)
        hi = self.expected_single_piece(64 * KB, HW.disk.rotation_s)
        assert lo * 0.98 <= t <= hi * 1.05

    def test_sequential_second_read_has_no_positioning(self):
        machine = Machine(MachineConfig(n_compute=1, n_io=1))
        mount = machine.mount("/pfs", PFSConfig(stripe_factor=1))
        machine.create_file(mount, "data", 1 * MB)
        box = {}

        def proc():
            handle = yield from machine.clients[0].open(
                mount, "data", IOMode.M_ASYNC, rank=0, nprocs=1
            )
            yield from handle.read(64 * KB)
            t0 = machine.env.now
            yield from handle.read(64 * KB)
            box["t"] = machine.env.now - t0

        machine.spawn(proc())
        machine.run()
        expected = self.expected_single_piece(64 * KB, 0.0)
        assert box["t"] == pytest.approx(expected, rel=0.03)

    def test_reception_floor_dominates_large_reads(self):
        # For a multi-node read, per-piece receptions serialise on the
        # message co-processor: total >= nbytes / receive_bps.
        machine = Machine(MachineConfig(n_compute=1, n_io=8))
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", 4 * MB)
        t = single_read(machine, mount, 1 * MB)
        floor = (1 * MB) / HW.node.receive_bps
        assert t >= floor
        # And it is within 40% of that floor (positioning + overheads).
        assert t <= floor * 1.4

    def test_anchor_1024kb_collective_near_0_4s(self):
        # The headline calibration anchor, measured directly.
        from repro.workloads import CollectiveReadWorkload

        machine = Machine(MachineConfig())
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", 8 * 8 * MB)
        result = CollectiveReadWorkload(machine, mount, "data", request_size=1 * MB, rounds=8).run()
        durations = [d for h in result.handles for d in h.stats.call_durations]
        assert 0.3 <= min(durations) <= 0.5


class TestTokenCosts:
    def test_m_unix_read_includes_token_round_trips(self):
        # Identical single reads: M_UNIX pays two coordinator RPCs plus
        # service time more than M_ASYNC.
        def run(mode):
            machine = Machine(MachineConfig(n_compute=1, n_io=1))
            mount = machine.mount("/pfs", PFSConfig(stripe_factor=1))
            machine.create_file(mount, "data", 1 * MB)
            box = {}

            def proc():
                handle = yield from machine.clients[0].open(mount, "data", mode, rank=0, nprocs=1)
                yield from handle.read(64 * KB)  # warm positioning
                t0 = machine.env.now
                yield from handle.read(64 * KB)
                box["t"] = machine.env.now - t0

            machine.spawn(proc())
            machine.run()
            return box["t"]

        from repro.pfs.coordinator import COORDINATION_OVERHEAD_S

        t_unix = run(IOMode.M_UNIX)
        t_async = run(IOMode.M_ASYNC)
        extra = t_unix - t_async
        # Two coordination ops + the atomic completion bookkeeping, plus
        # four mesh crossings; no token migration (same holder).
        mesh_rt = 4 * HW.mesh.sw_overhead_s
        expected_extra = 2 * COORDINATION_OVERHEAD_S + HW.node.client_call_overhead_s + mesh_rt
        assert extra == pytest.approx(expected_extra, rel=0.25)


class TestCopyCosts:
    def test_prefetch_hit_cost_is_copy_plus_overheads(self):
        # A guaranteed-ready hit costs: client call + hit memcpy +
        # buffer-alloc + ART setup for the next prefetch.
        from repro.core import DepthKAhead, Prefetcher

        machine = Machine(MachineConfig(n_compute=1, n_io=1))
        mount = machine.mount("/pfs", PFSConfig(stripe_factor=1))
        machine.create_file(mount, "data", 4 * MB)
        pf = Prefetcher(DepthKAhead())
        box = {}

        def proc():
            handle = yield from machine.clients[0].open(
                mount, "data", IOMode.M_ASYNC, rank=0, nprocs=1, prefetcher=pf
            )
            yield from handle.read(64 * KB)  # miss; issues prefetch
            yield machine.env.timeout(1.0)  # let it land
            t0 = machine.env.now
            yield from handle.read(64 * KB)  # hit
            box["t"] = machine.env.now - t0

        machine.spawn(proc())
        machine.run()
        assert pf.stats.hits == 1
        node = HW.node
        expected = (
            node.client_call_overhead_s
            + 64 * KB / node.memcpy_bps
            + node.buffer_alloc_overhead_s
            + node.async_setup_overhead_s
        )
        assert box["t"] == pytest.approx(expected, rel=0.05)

    def test_mesh_transfer_time_formula(self):
        from repro.hardware import Mesh, MeshMessage
        from repro.sim import Environment

        env = Environment()
        mesh = Mesh(env, 8, 3, params=HW.mesh)

        def proc():
            t0 = env.now
            yield from mesh.send(MeshMessage((0, 0), (7, 2), 1 * MB))
            return env.now - t0

        p = env.process(proc())
        env.run()
        assert p.value == pytest.approx(mesh.transfer_time((0, 0), (7, 2), 1 * MB))

    def test_raid_estimate_is_honest(self):
        # estimate_service_time (used for planning) stays within 25% of
        # the realised jittered service time.
        from repro.hardware import RAID3Array, SCSIBus
        from repro.sim import Environment

        env = Environment()
        raid = RAID3Array(env, SCSIBus(env))
        estimate = raid.estimate_service_time(100 * MB, 256 * KB)

        def proc():
            t0 = env.now
            yield from raid_read(raid, 100 * MB, 256 * KB)
            return env.now - t0

        p = env.process(proc())
        env.run()
        assert p.value == pytest.approx(estimate, rel=0.25)
