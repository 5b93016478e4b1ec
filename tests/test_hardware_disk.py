"""Unit tests for the disk, RAID-3 array and SCSI bus models."""

import pytest

from repro.hardware import (
    Disk,
    DiskParams,
    RAID3Array,
    RAIDParams,
    SCSIBus,
    SCSIParams,
)
from repro.hardware.disk import DiskError
from repro.analysis.sanitizers import leaked_resources
from repro.hardware.raid import RAIDError
from repro.sim import Environment, Interrupt, Monitor


@pytest.fixture
def env():
    return Environment()


def run_gen(env, gen):
    """Run one generator to completion, returning (value, elapsed)."""
    start = env.now
    p = env.process(gen)
    env.run()
    return p.value, env.now - start


KB = 1024
MB = 1024 * 1024


class TestDiskServiceTimes:
    def test_seek_time_zero_distance(self, env):
        disk = Disk(env)
        assert disk.seek_time(100, 100) == 0.0

    def test_seek_time_monotone_in_distance(self, env):
        disk = Disk(env)
        t_small = disk.seek_time(0, 1 * MB)
        t_large = disk.seek_time(0, 100 * MB)
        assert 0 < t_small < t_large <= disk.params.full_seek_s

    def test_sequential_read_skips_positioning(self, env):
        params = DiskParams(media_rate_bps=1 * MB, controller_overhead_s=0.0)
        disk = Disk(env, params=params)

        def proc(env):
            yield from disk.read(0, 64 * KB)
            t0 = env.now
            yield from disk.read(64 * KB, 64 * KB)  # sequential
            return env.now - t0

        _, _ = run_gen(env, proc(env))
        p = env.process(proc(env))
        env.run()
        # Sequential read = pure media transfer.
        assert p.value == pytest.approx(64 * KB / params.media_rate_bps)

    def test_random_read_pays_positioning(self, env):
        params = DiskParams(media_rate_bps=1 * MB, controller_overhead_s=0.0)
        disk = Disk(env, params=params)

        def proc(env):
            yield from disk.read(0, 64 * KB)
            t0 = env.now
            yield from disk.read(500 * MB, 64 * KB)  # far away
            return env.now - t0

        p = env.process(proc(env))
        env.run()
        transfer = 64 * KB / params.media_rate_bps
        assert p.value > transfer + params.avg_rotational_latency_s

    def test_out_of_range_rejected(self, env):
        disk = Disk(env)

        def proc(env):
            yield from disk.read(disk.params.capacity_bytes - 10, 100)

        env.process(proc(env))
        with pytest.raises(DiskError):
            env.run()

    def test_negative_size_rejected(self, env):
        disk = Disk(env)

        def proc(env):
            yield from disk.read(0, -5)

        env.process(proc(env))
        with pytest.raises(DiskError):
            env.run()

    def test_requests_serialise_on_arm(self, env):
        params = DiskParams(
            media_rate_bps=1 * MB,
            controller_overhead_s=0.0,
            min_seek_s=0.0,
            full_seek_s=0.0,
            rpm=60.0 * 1e9,  # negligible rotation
        )
        disk = Disk(env, params=params)
        finished = []

        def proc(env, tag):
            yield from disk.read(0 if tag == "a" else 1 * MB, 1 * MB)
            finished.append((tag, env.now))

        env.process(proc(env, "a"))
        env.process(proc(env, "b"))
        env.run()
        # Each read takes 1 second of media time; they serialise.
        assert finished[0][1] == pytest.approx(1.0, abs=0.01)
        assert finished[1][1] == pytest.approx(2.0, abs=0.01)

    def test_monitor_counters(self, env):
        mon = Monitor(env)
        disk = Disk(env, name="d0", monitor=mon)

        def proc(env):
            yield from disk.read(0, 64 * KB)
            yield from disk.write(64 * KB, 64 * KB)

        env.process(proc(env))
        env.run()
        assert mon.counter_value("d0.reads") == 1
        assert mon.counter_value("d0.writes") == 1
        assert mon.counter_value("d0.bytes_read") == 64 * KB

    def test_track_cache_serves_rereads(self, env):
        params = DiskParams(media_rate_bps=1 * MB, controller_overhead_s=0.001)
        disk = Disk(env, params=params)

        def proc(env):
            yield from disk.read(0, 32 * KB)
            t0 = env.now
            yield from disk.read(0, 32 * KB)  # same range: track cache
            return env.now - t0

        p = env.process(proc(env))
        env.run()
        # Re-read costs only the controller overhead.
        assert p.value == pytest.approx(0.001)

    def test_track_cache_window_bounded(self, env):
        params = DiskParams(media_rate_bps=10 * MB, track_cache_bytes=16 * KB)
        disk = Disk(env, params=params)

        def proc(env):
            yield from disk.read(0, 64 * KB)  # caches only the last 16KB
            assert disk.cached(48 * KB, 16 * KB)
            assert not disk.cached(0, 16 * KB)
            return True

        p = env.process(proc(env))
        env.run()
        assert p.value is True

    def test_jitter_reproducible_per_name(self, env):
        d1 = Disk(env, name="same")
        d2 = Disk(Environment(), name="same")
        lat1 = [d1._rotational_latency() for _ in range(5)]
        lat2 = [d2._rotational_latency() for _ in range(5)]
        assert lat1 == lat2
        assert all(0 <= v <= d1.params.rotation_s for v in lat1)

    def test_jitter_disabled_uses_average(self, env):
        disk = Disk(env, jitter=False)
        assert disk._rotational_latency() == disk.params.avg_rotational_latency_s

    def test_elevator_orders_by_distance(self, env):
        params = DiskParams(media_rate_bps=100 * MB)
        disk = Disk(env, params=params, elevator=True)
        order = []

        def holder(env):
            yield from disk.read(0, 1 * MB)

        def reader(env, lba, tag):
            yield from disk.read(lba, 64 * KB)
            order.append(tag)

        env.process(holder(env))
        env.process(reader(env, 500 * MB, "far"))
        env.process(reader(env, 10 * MB, "near"))
        env.run()
        assert order == ["near", "far"]


class TestSCSIBus:
    def test_transfer_time(self, env):
        bus = SCSIBus(env, params=SCSIParams(bandwidth_bps=1 * MB, arbitration_s=0.5))
        assert bus.transfer_time(1 * MB) == pytest.approx(1.5)

    def test_transfer_holds_bus(self, env):
        bus = SCSIBus(env, params=SCSIParams(bandwidth_bps=1 * MB, arbitration_s=0.0))
        times = []

        def proc(env):
            yield from bus.transfer(1 * MB)
            times.append(env.now)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        assert times == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_stream_rate_bottleneck(self, env):
        bus = SCSIBus(env, params=SCSIParams(bandwidth_bps=10 * MB, arbitration_s=0.0))

        def proc(env):
            yield from bus.transfer(1 * MB, stream_rate_bps=1 * MB)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(1.0)  # device rate governs

    def test_negative_size_rejected(self, env):
        bus = SCSIBus(env)

        def proc(env):
            yield from bus.transfer(-1)

        env.process(proc(env))
        with pytest.raises(ValueError):
            env.run()


class TestRAID3:
    def make(self, env, media=1 * MB, disks=4, bus_bw=3.5 * MB):
        bus = SCSIBus(env, params=SCSIParams(bandwidth_bps=bus_bw, arbitration_s=0.0))
        return RAID3Array(
            env,
            bus,
            disk_params=DiskParams(media_rate_bps=media, controller_overhead_s=0.0),
            raid_params=RAIDParams(data_disks=disks, controller_overhead_s=0.0),
        )

    def test_capacity_and_rates(self, env):
        raid = self.make(env)
        assert raid.capacity_bytes == 4 * DiskParams().capacity_bytes
        assert raid.media_rate_bps == 4 * MB

    def test_zero_data_disks_rejected(self, env):
        bus = SCSIBus(env)
        with pytest.raises(ValueError):
            RAID3Array(env, bus, raid_params=RAIDParams(data_disks=0))

    def test_streaming_rate_is_bus_limited(self, env):
        # 4 x 1.0 MB/s media = 4 MB/s > 3.5 MB/s bus: bus is bottleneck.
        raid = self.make(env)

        def proc(env):
            yield from raid.read(0, 7 * MB)
            t0 = env.now
            yield from raid.read(7 * MB, 7 * MB)  # sequential
            return env.now - t0

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(7 * MB / (3.5 * MB), rel=0.01)

    def test_streaming_rate_media_limited(self, env):
        # 2 x 1.0 MB/s media = 2 MB/s < 100 MB/s bus: media is bottleneck.
        raid = self.make(env, disks=2, bus_bw=100 * MB)

        def proc(env):
            yield from raid.read(0, 2 * MB)
            t0 = env.now
            yield from raid.read(2 * MB, 2 * MB)
            return env.now - t0

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(1.0, rel=0.01)

    def test_sequential_reads_avoid_positioning(self, env):
        raid = self.make(env)

        def seq(env):
            yield from raid.read(0, 64 * KB)
            t0 = env.now
            yield from raid.read(64 * KB, 64 * KB)
            return env.now - t0

        p = env.process(seq(env))
        env.run()
        assert p.value == pytest.approx(64 * KB / (3.5 * MB), rel=0.01)

    def test_random_read_pays_positioning(self, env):
        raid = self.make(env)

        def rand(env):
            yield from raid.read(0, 64 * KB)
            t0 = env.now
            yield from raid.read(1000 * MB, 64 * KB)
            return env.now - t0

        p = env.process(rand(env))
        env.run()
        assert p.value > 64 * KB / (3.5 * MB) + raid.disk_params.avg_rotational_latency_s

    def test_out_of_range_rejected(self, env):
        raid = self.make(env)

        def proc(env):
            yield from raid.read(raid.capacity_bytes, 1)

        env.process(proc(env))
        with pytest.raises(RAIDError):
            env.run()

    def test_estimate_service_time_close_to_actual(self, env):
        raid = self.make(env)
        est = raid.estimate_service_time(100 * MB, 1 * MB)

        def proc(env):
            t0 = env.now
            yield from raid.read(100 * MB, 1 * MB)
            return env.now - t0

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(est, rel=0.05)

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_waiter_interrupted_before_grant_leaves_the_arm_alone(self, tie_break):
        """A stepped read interrupted while queued for the arm withdraws
        its own queue entry and leaves the holder's arm alone."""
        env = Environment(tie_break=tie_break)
        bus = SCSIBus(env, params=SCSIParams(bandwidth_bps=1 * MB, arbitration_s=0.0))
        dp = DiskParams(media_rate_bps=10 * MB, controller_overhead_s=0.0)
        rp = RAIDParams(data_disks=1, controller_overhead_s=0.0)
        raid = RAID3Array(env, bus, disk_params=dp, raid_params=rp)
        # A second array on the bus keeps both reads on the stepped path.
        RAID3Array(env, bus, name="raid-b", disk_params=dp, raid_params=rp)
        done = {}

        def reader(tag, lba):
            try:
                yield from raid.read(lba, 1 * MB)
                done[tag] = env.now
            except Interrupt:
                done[tag] = "interrupted"

        holder = env.process(reader("holder", 0))
        waiter = env.process(reader("waiter", 64 * MB))
        seen = []

        def watcher():
            yield env.timeout(0.2e-3)
            assert raid._busy and len(raid._pending) == 1
            waiter.interrupt("give up")
            # Same instant, after the interrupt landed and before the
            # end-of-timestep settle could re-grant a stale entry.
            yield env.timeout(0)
            seen.append((raid._busy, list(raid._pending)))
            yield env.timeout(0.5)
            seen.append((raid._busy, list(raid._pending)))
            yield holder
            seen.append((raid._busy, list(raid._pending)))
            yield env.timeout(1.0)
            started = env.now
            yield from raid.read(2 * MB, 1 * MB)
            seen.append(env.now - started)

        env.process(watcher())
        env.run()
        assert done["waiter"] == "interrupted"
        assert done["holder"] == pytest.approx(1.0, rel=0.05)
        # The holder kept the arm until its read ended; no entry was left.
        assert seen[0] == (True, [])
        assert seen[1] == (True, [])
        assert seen[2] == (False, [])
        # A later read is served normally: 1 MB across the 1 MB/s bus.
        assert seen[3] == pytest.approx(1.0, rel=0.05)
        assert not raid._busy and raid._pending == []
        assert leaked_resources(env) == []

    def test_two_arrays_share_bus(self, env):
        bus = SCSIBus(env, params=SCSIParams(bandwidth_bps=1 * MB, arbitration_s=0.0))
        dp = DiskParams(
            media_rate_bps=10 * MB,
            controller_overhead_s=0.0,
            min_seek_s=0.0,
            full_seek_s=0.0,
            rpm=60.0 * 1e9,
        )
        rp = RAIDParams(data_disks=1, controller_overhead_s=0.0)
        raid1 = RAID3Array(env, bus, disk_params=dp, raid_params=rp)
        raid2 = RAID3Array(env, bus, disk_params=dp, raid_params=rp)
        done = []

        def proc(env, raid, tag):
            yield from raid.read(0, 1 * MB)
            done.append((tag, env.now))

        env.process(proc(env, raid1, "a"))
        env.process(proc(env, raid2, "b"))
        env.run()
        # Bus serialises the two 1-second transfers.
        assert done[1][1] >= 2.0 * 0.99
