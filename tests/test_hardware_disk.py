"""Unit tests for the RAID-3 array (the one disk model) and the SCSI bus."""

import pytest

from repro.hardware import (
    DiskParams,
    RAID3Array,
    RAIDParams,
    SCSIBus,
    SCSIParams,
)
from repro.hardware.raid import RAIDError
from repro.sim import Environment, Monitor


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
TIE_BREAKS = ("fifo", "lifo")
FORMS = ("closed", "stepped")


def make_array(env, form="closed", bus_bw=3.5 * MB, **kwargs):
    """A ``RAID3Array`` on a bus with no arbitration time.

    Unless given, the disk and controller overheads are zero and the
    four data spindles stream 1 MB/s each.  ``form="closed"`` leaves
    the array alone on its bus, so every fault-free access is served
    in closed form; ``form="stepped"`` adds an idle second array on the
    bus, which keeps every access on the stepped path.
    """
    kwargs.setdefault("disk_params", DiskParams(media_rate_bps=1 * MB, controller_overhead_s=0.0))
    kwargs.setdefault("raid_params", RAIDParams(data_disks=4, controller_overhead_s=0.0))
    bus = SCSIBus(env, params=SCSIParams(bandwidth_bps=bus_bw, arbitration_s=0.0))
    raid = RAID3Array(env, bus, **kwargs)
    if form == "stepped":
        RAID3Array(
            env,
            bus,
            name=f"{raid.name}-b",
            disk_params=raid.disk_params,
            raid_params=raid.raid_params,
        )
    assert raid.fast_ready == (form == "closed")
    return raid


class TestDiskServiceTimes:
    """Service-time behaviours of the one disk model, ``RAID3Array``,
    each checked in closed and in stepped form (see :func:`make_array`)."""

    def test_seek_time_zero_distance(self, env):
        raid = make_array(env)
        assert raid.seek_time(100, 100) == 0.0

    def test_seek_time_monotone_in_distance(self, env):
        raid = make_array(env)
        t_small = raid.seek_time(0, 1 * MB)
        t_large = raid.seek_time(0, 100 * MB)
        assert 0 < t_small < t_large <= raid.disk_params.full_seek_s

    def test_out_of_range_rejected(self):
        # Starting below the array, or straddling its end.
        for form in FORMS:
            for below in (True, False):
                env = Environment()
                raid = make_array(env, form)
                lba = -1 if below else raid.capacity_bytes - 10

                def proc(env):
                    yield from raid.read(lba, 100)

                env.process(proc(env))
                with pytest.raises(RAIDError):
                    env.run()

    def test_negative_size_rejected(self):
        for form in FORMS:
            env = Environment()
            raid = make_array(env, form)

            def proc(env):
                yield from raid.read(0, -5)

            env.process(proc(env))
            with pytest.raises(RAIDError):
                env.run()

    def test_sequential_read_skips_positioning(self):
        for form in FORMS:
            env = Environment()
            raid = make_array(env, form)

            def proc(env):
                yield from raid.read(0, 64 * KB)
                t0 = env.now
                yield from raid.read(64 * KB, 64 * KB)  # sequential
                return env.now - t0

            value, _ = run_gen(env, proc(env))
            # Sequential read = pure (bus-limited) transfer.
            assert value == pytest.approx(64 * KB / (3.5 * MB)), form

    def test_random_read_pays_positioning(self):
        for form in FORMS:
            env = Environment()
            raid = make_array(env, form)

            def proc(env):
                yield from raid.read(0, 64 * KB)
                t0 = env.now
                yield from raid.read(500 * MB, 64 * KB)  # far away
                return env.now - t0

            value, _ = run_gen(env, proc(env))
            transfer = 64 * KB / (3.5 * MB)
            assert value > transfer + raid.disk_params.min_seek_s, form

    def test_requests_serialise_on_arm(self):
        dp = DiskParams(
            media_rate_bps=1 * MB,
            controller_overhead_s=0.0,
            min_seek_s=0.0,
            full_seek_s=0.0,
            rpm=60.0 * 1e9,  # negligible rotation
        )
        rp = RAIDParams(data_disks=1, controller_overhead_s=0.0)
        for form in FORMS:
            env = Environment()
            raid = make_array(env, form, bus_bw=100 * MB, disk_params=dp, raid_params=rp)
            finished = []

            def proc(env, tag):
                yield from raid.read(0 if tag == "a" else 1 * MB, 1 * MB)
                finished.append((tag, env.now))

            env.process(proc(env, "a"))
            env.process(proc(env, "b"))
            env.run()
            # Each read takes 1 second of media time; they serialise.
            assert finished[0][1] == pytest.approx(1.0, abs=0.01), form
            assert finished[1][1] == pytest.approx(2.0, abs=0.01), form

    def test_monitor_counters(self):
        for form in FORMS:
            env = Environment()
            mon = Monitor(env)
            raid = make_array(env, form, name="d0", monitor=mon)

            def proc(env):
                yield from raid.read(0, 64 * KB)
                yield from raid.write(64 * KB, 64 * KB)
                yield from raid.read(128 * KB, 64 * KB)

            env.process(proc(env))
            env.run()
            assert mon.counter_value("d0.reads") == 2, form
            assert mon.counter_value("d0.writes") == 1, form
            assert mon.counter_value("d0.bytes_read") == 128 * KB, form
            assert mon.counter_value("d0.bytes_write") == 64 * KB, form
            assert mon.counter_value("d0.sequential_hits") == 2, form
            assert mon.counter_value("d0.track_cache_hits") == 0, form

    def test_track_cache_serves_rereads(self):
        rp = RAIDParams(controller_overhead_s=0.001)
        for form in FORMS:
            env = Environment()
            mon = Monitor(env)
            raid = make_array(env, form, name="d0", raid_params=rp, monitor=mon)

            def proc(env):
                yield from raid.read(100 * MB, 32 * KB)
                t0 = env.now
                yield from raid.read(100 * MB, 32 * KB)  # same range: track cache
                return env.now - t0

            value, _ = run_gen(env, proc(env))
            # A re-read pays the controller and the bus, never positioning.
            assert value == pytest.approx(0.001 + 32 * KB / (3.5 * MB)), form
            assert mon.counter_value("d0.track_cache_hits") == 1, form

    def test_track_cache_window_bounded(self):
        # The window is one track per data spindle: 4 x 16 KB.
        dp = DiskParams(media_rate_bps=10 * MB, track_cache_bytes=16 * KB)
        for form in FORMS:
            env = Environment()
            raid = make_array(env, form, disk_params=dp)

            def proc(env):
                yield from raid.read(0, 256 * KB)  # caches only the last 64KB

            run_gen(env, proc(env))
            assert raid.cached(192 * KB, 64 * KB), form
            assert not raid.cached(128 * KB, 80 * KB), form
            assert not raid.cached(0, 16 * KB), form

    def test_jitter_reproducible_per_name(self, env):
        r1 = make_array(env, name="same")
        r2 = make_array(Environment(), name="same")
        lat1 = [r1._rotational_latency() for _ in range(5)]
        lat2 = [r2._rotational_latency() for _ in range(5)]
        assert lat1 == lat2
        assert len(set(lat1)) == 5
        assert all(0 <= v <= r1.disk_params.rotation_s for v in lat1)
        other = make_array(Environment(), name="other")
        assert [other._rotational_latency() for _ in range(5)] != lat1

    def test_elevator_orders_by_distance(self):
        for tie_break in TIE_BREAKS:
            for form in FORMS:
                env = Environment(tie_break=tie_break)
                raid = make_array(env, form)
                order = []

                def holder(env):
                    yield from raid.read(0, 1 * MB)

                def reader(env, lba, tag):
                    yield from raid.read(lba, 64 * KB)
                    order.append(tag)

                env.process(holder(env))
                env.process(reader(env, 500 * MB, "far"))
                env.process(reader(env, 10 * MB, "near"))
                env.run()
                assert order == ["near", "far"], (tie_break, form)


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
    def test_capacity_and_rates(self, env):
        raid = make_array(env)
        assert raid.capacity_bytes == 4 * DiskParams().capacity_bytes
        assert raid.media_rate_bps == 4 * MB

    def test_zero_data_disks_rejected(self, env):
        bus = SCSIBus(env)
        with pytest.raises(ValueError):
            RAID3Array(env, bus, raid_params=RAIDParams(data_disks=0))

    def test_streaming_rate_is_bus_limited(self, env):
        # 4 x 1.0 MB/s media = 4 MB/s > 3.5 MB/s bus: bus is bottleneck.
        raid = make_array(env)

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
        raid = make_array(
            env, bus_bw=100 * MB, raid_params=RAIDParams(data_disks=2, controller_overhead_s=0.0)
        )

        def proc(env):
            yield from raid.read(0, 2 * MB)
            t0 = env.now
            yield from raid.read(2 * MB, 2 * MB)
            return env.now - t0

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(1.0, rel=0.01)

    def test_sequential_reads_avoid_positioning(self, env):
        raid = make_array(env)

        def seq(env):
            yield from raid.read(0, 64 * KB)
            t0 = env.now
            yield from raid.read(64 * KB, 64 * KB)
            return env.now - t0

        p = env.process(seq(env))
        env.run()
        assert p.value == pytest.approx(64 * KB / (3.5 * MB), rel=0.01)

    def test_random_read_pays_positioning(self, env):
        raid = make_array(env)

        def rand(env):
            yield from raid.read(0, 64 * KB)
            t0 = env.now
            yield from raid.read(1000 * MB, 64 * KB)
            return env.now - t0

        p = env.process(rand(env))
        env.run()
        assert p.value > 64 * KB / (3.5 * MB) + raid.disk_params.avg_rotational_latency_s

    def test_out_of_range_rejected(self, env):
        raid = make_array(env)

        def proc(env):
            yield from raid.read(raid.capacity_bytes, 1)

        env.process(proc(env))
        with pytest.raises(RAIDError):
            env.run()

    def test_estimate_service_time_close_to_actual(self, env):
        raid = make_array(env)
        est = raid.estimate_service_time(100 * MB, 1 * MB)

        def proc(env):
            t0 = env.now
            yield from raid.read(100 * MB, 1 * MB)
            return env.now - t0

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(est, rel=0.05)

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_fifo_mode_serves_in_arrival_order(self, tie_break, form):
        """``elevator=False`` dispatches by arrival time; the causal key
        only orders same-timestamp arrivals."""
        env = Environment(tie_break=tie_break)
        raid = make_array(env, form, elevator=False)
        order = []

        def reader(tag, lba, delay):
            if delay:
                yield env.timeout(delay)
            yield from raid.read(lba, 64 * KB)
            order.append(tag)

        # "late" is spawned before "mid" (smaller key) but arrives after it.
        env.process(reader("first", 0, 0.0))
        env.process(reader("late", 10 * MB, 3e-3))
        env.process(reader("mid", 20 * MB, 1e-3))
        env.run()
        assert order == ["first", "mid", "late"]
        assert not raid._busy and raid._pending == []

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
