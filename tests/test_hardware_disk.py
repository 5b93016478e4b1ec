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
from repro.sim.environment import EmptySchedule
from tests.conftest import raid_read, raid_write


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


def make_array(env, bus_bw=3.5 * MB, **kwargs):
    """A ``RAID3Array`` on its own bus with no arbitration time.

    Unless given, the disk and controller overheads are zero and the
    four data spindles stream 1 MB/s each.
    """
    kwargs.setdefault("disk_params", DiskParams(media_rate_bps=1 * MB, controller_overhead_s=0.0))
    kwargs.setdefault("raid_params", RAIDParams(data_disks=4, controller_overhead_s=0.0))
    bus = SCSIBus(env, params=SCSIParams(bandwidth_bps=bus_bw, arbitration_s=0.0))
    return RAID3Array(env, bus, **kwargs)


class TestDiskServiceTimes:
    """Service-time behaviours of the one disk model, ``RAID3Array``."""

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
        for below in (True, False):
            env = Environment()
            raid = make_array(env)
            lba = -1 if below else raid.capacity_bytes - 10

            def proc(env):
                yield from raid_read(raid, lba, 100)

            env.process(proc(env))
            with pytest.raises(RAIDError):
                env.run()

    def test_negative_size_rejected(self):
        env = Environment()
        raid = make_array(env)

        def proc(env):
            yield from raid_read(raid, 0, -5)

        env.process(proc(env))
        with pytest.raises(RAIDError):
            env.run()

    def test_sequential_read_skips_positioning(self):
        env = Environment()
        raid = make_array(env)

        def proc(env):
            yield from raid_read(raid, 0, 64 * KB)
            t0 = env.now
            yield from raid_read(raid, 64 * KB, 64 * KB)  # sequential
            return env.now - t0

        value, _ = run_gen(env, proc(env))
        # Sequential read = pure (bus-limited) transfer.
        assert value == pytest.approx(64 * KB / (3.5 * MB))

    def test_random_read_pays_positioning(self):
        env = Environment()
        raid = make_array(env)

        def proc(env):
            yield from raid_read(raid, 0, 64 * KB)
            t0 = env.now
            yield from raid_read(raid, 500 * MB, 64 * KB)  # far away
            return env.now - t0

        value, _ = run_gen(env, proc(env))
        transfer = 64 * KB / (3.5 * MB)
        assert value > transfer + raid.disk_params.min_seek_s

    def test_requests_serialise_on_arm(self):
        dp = DiskParams(
            media_rate_bps=1 * MB,
            controller_overhead_s=0.0,
            min_seek_s=0.0,
            full_seek_s=0.0,
            rpm=60.0 * 1e9,  # negligible rotation
        )
        rp = RAIDParams(data_disks=1, controller_overhead_s=0.0)
        env = Environment()
        raid = make_array(env, bus_bw=100 * MB, disk_params=dp, raid_params=rp)
        finished = []

        def proc(env, tag):
            yield from raid_read(raid, 0 if tag == "a" else 1 * MB, 1 * MB)
            finished.append((tag, env.now))

        env.process(proc(env, "a"))
        env.process(proc(env, "b"))
        env.run()
        # Each read takes 1 second of media time; they serialise.
        assert finished[0][1] == pytest.approx(1.0, abs=0.01)
        assert finished[1][1] == pytest.approx(2.0, abs=0.01)

    def test_monitor_counters(self):
        env = Environment()
        mon = Monitor(env)
        raid = make_array(env, name="d0", monitor=mon)

        def proc(env):
            yield from raid_read(raid, 0, 64 * KB)
            yield from raid_write(raid, 64 * KB, 64 * KB)
            yield from raid_read(raid, 128 * KB, 64 * KB)

        env.process(proc(env))
        env.run()
        assert mon.counter_value("d0.reads") == 2
        assert mon.counter_value("d0.writes") == 1
        assert mon.counter_value("d0.bytes_read") == 128 * KB
        assert mon.counter_value("d0.bytes_write") == 64 * KB
        assert mon.counter_value("d0.sequential_hits") == 2
        assert mon.counter_value("d0.track_cache_hits") == 0

    def test_track_cache_serves_rereads(self):
        rp = RAIDParams(controller_overhead_s=0.001)
        env = Environment()
        mon = Monitor(env)
        raid = make_array(env, name="d0", raid_params=rp, monitor=mon)

        def proc(env):
            yield from raid_read(raid, 100 * MB, 32 * KB)
            t0 = env.now
            yield from raid_read(raid, 100 * MB, 32 * KB)  # same range: track cache
            return env.now - t0

        value, _ = run_gen(env, proc(env))
        # A re-read pays the controller and the bus, never positioning.
        assert value == pytest.approx(0.001 + 32 * KB / (3.5 * MB))
        assert mon.counter_value("d0.track_cache_hits") == 1

    def test_track_cache_window_bounded(self):
        # The window is one track per data spindle: 4 x 16 KB.
        dp = DiskParams(media_rate_bps=10 * MB, track_cache_bytes=16 * KB)
        env = Environment()
        raid = make_array(env, disk_params=dp)

        def proc(env):
            yield from raid_read(raid, 0, 256 * KB)  # caches only the last 64KB

        run_gen(env, proc(env))
        assert raid.cached(192 * KB, 64 * KB)
        assert not raid.cached(128 * KB, 80 * KB)
        assert not raid.cached(0, 16 * KB)

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
            env = Environment(tie_break=tie_break)
            raid = make_array(env)
            order = []

            def holder(env):
                yield from raid_read(raid, 0, 1 * MB)

            def reader(env, lba, tag):
                yield from raid_read(raid, lba, 64 * KB)
                order.append(tag)

            env.process(holder(env))
            env.process(reader(env, 500 * MB, "far"))
            env.process(reader(env, 10 * MB, "near"))
            env.run()
            assert order == ["near", "far"], tie_break


class TestSCSIBus:
    def test_transfer_time(self, env):
        bus = SCSIBus(env, params=SCSIParams(bandwidth_bps=1 * MB, arbitration_s=0.5))
        assert bus.transfer_time(1 * MB) == pytest.approx(1.5)

    @staticmethod
    def _array(env, bus_bw, spindle_bps, data_disks=1):
        """An array with no positioning or controller time, so an
        access takes exactly its bus transfer."""
        dp = DiskParams(
            media_rate_bps=spindle_bps,
            controller_overhead_s=0.0,
            min_seek_s=0.0,
            full_seek_s=0.0,
            rpm=60.0 * 1e9,  # negligible rotation
        )
        rp = RAIDParams(data_disks=data_disks, controller_overhead_s=0.0)
        monitor = Monitor(env)
        params = SCSIParams(bandwidth_bps=bus_bw, arbitration_s=0.0)
        bus = SCSIBus(env, params=params, monitor=monitor)
        return RAID3Array(env, bus, disk_params=dp, raid_params=rp, monitor=monitor)

    def test_transfer_holds_bus(self, env):
        # Fast spindles: each 1 MB read holds the 1 MB/s bus for its
        # transfer time, and the reads follow one another.
        raid = self._array(env, 1 * MB, 10 * MB, data_disks=4)
        times = []

        def proc(env, lba):
            yield from raid_read(raid, lba, 1 * MB)
            times.append(env.now)

        env.process(proc(env, 0))
        env.process(proc(env, 1 * MB))
        env.run()
        assert raid.bus.transfer_time(1 * MB) == pytest.approx(1.0)
        assert times == [pytest.approx(1.0), pytest.approx(2.0)]
        assert raid.bus.busy_s == pytest.approx(2 * raid.bus.transfer_time(1 * MB))
        assert raid.monitor.counter_value("scsi.transfers") == 2
        assert raid.monitor.counter_value("scsi.bytes") == 2 * MB

    def test_stream_rate_bottleneck(self, env):
        # One 1 MB/s spindle feeds a 10 MB/s bus: the device rate governs.
        raid = self._array(env, 10 * MB, 1 * MB)

        def proc(env):
            yield from raid_read(raid, 0, 1 * MB)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert raid.bus.transfer_time(1 * MB) == pytest.approx(0.1)
        assert p.value == pytest.approx(1.0)
        assert raid.bus.busy_s == pytest.approx(1.0)

    def test_negative_size_rejected(self, env):
        # The array rejects the request before the bus books anything.
        raid = self._array(env, 1 * MB, 1 * MB)

        def proc(env):
            yield from raid_read(raid, 0, -1)

        env.process(proc(env))
        with pytest.raises(RAIDError):
            env.run()
        assert raid.bus.busy_s == 0.0
        assert raid.monitor.counter_value("scsi.transfers") == 0


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
            yield from raid_read(raid, 0, 7 * MB)
            t0 = env.now
            yield from raid_read(raid, 7 * MB, 7 * MB)  # sequential
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
            yield from raid_read(raid, 0, 2 * MB)
            t0 = env.now
            yield from raid_read(raid, 2 * MB, 2 * MB)
            return env.now - t0

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(1.0, rel=0.01)

    def test_sequential_reads_avoid_positioning(self, env):
        raid = make_array(env)

        def seq(env):
            yield from raid_read(raid, 0, 64 * KB)
            t0 = env.now
            yield from raid_read(raid, 64 * KB, 64 * KB)
            return env.now - t0

        p = env.process(seq(env))
        env.run()
        assert p.value == pytest.approx(64 * KB / (3.5 * MB), rel=0.01)

    def test_random_read_pays_positioning(self, env):
        raid = make_array(env)

        def rand(env):
            yield from raid_read(raid, 0, 64 * KB)
            t0 = env.now
            yield from raid_read(raid, 1000 * MB, 64 * KB)
            return env.now - t0

        p = env.process(rand(env))
        env.run()
        assert p.value > 64 * KB / (3.5 * MB) + raid.disk_params.avg_rotational_latency_s

    def test_out_of_range_rejected(self, env):
        raid = make_array(env)

        def proc(env):
            yield from raid_read(raid, raid.capacity_bytes, 1)

        env.process(proc(env))
        with pytest.raises(RAIDError):
            env.run()

    def test_estimate_service_time_close_to_actual(self, env):
        raid = make_array(env)
        est = raid.estimate_service_time(100 * MB, 1 * MB)

        def proc(env):
            t0 = env.now
            yield from raid_read(raid, 100 * MB, 1 * MB)
            return env.now - t0

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(est, rel=0.05)

    @pytest.mark.parametrize("drive", ("closed", "stepped"))
    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_fifo_mode_serves_in_arrival_order(self, tie_break, drive):
        """``elevator=False`` dispatches by arrival time; the causal key
        only orders same-timestamp arrivals.

        ``drive="closed"`` runs the event loop to its end in one
        ``env.run()``; ``drive="stepped"`` advances it one event at a
        time with ``env.step()``, which must serve the same order.
        """
        env = Environment(tie_break=tie_break)
        raid = make_array(env, elevator=False)
        order = []

        def reader(tag, lba, delay):
            if delay:
                yield env.timeout(delay)
            yield from raid_read(raid, lba, 64 * KB)
            order.append(tag)

        # "late" is spawned before "mid" (smaller key) but arrives after it.
        env.process(reader("first", 0, 0.0))
        env.process(reader("late", 10 * MB, 3e-3))
        env.process(reader("mid", 20 * MB, 1e-3))
        if drive == "closed":
            env.run()
        else:
            with pytest.raises(EmptySchedule):
                while True:
                    env.step()
        assert order == ["first", "mid", "late"]
        assert not raid._busy and raid._pending == []


#: Completion instants of ``test_degraded_completion_times_are_pinned``.
PINNED = [
    ("read", "0.053895493586928335"),
    ("sequential", "0.10143412995056471"),
    ("cached", "0.11703867540511016"),
    ("queued", "0.22845235624848267"),
    ("write", "0.2694826917656277"),
    ("sequential-write", "0.2945332599474459"),
]


class TestDecisionInstants:
    """An access takes its fault decisions at its arm grant plus the
    controller overhead, whatever form serves it."""

    RP = RAIDParams(data_disks=4, controller_overhead_s=0.001)

    def _arrays(self, env, plan, names=("a",)):
        from repro.faults import FaultInjector

        monitor = Monitor(env)
        faults = FaultInjector(env, plan, monitor=monitor)
        arrays = {
            name: RAID3Array(
                env,
                SCSIBus(env, name=f"scsi-{name}"),
                name=name,
                raid_params=self.RP,
                monitor=monitor,
                faults=faults,
            )
            for name in names
        }
        faults.start(arrays)
        return monitor, faults, arrays

    def _slow_read(self, window_at):
        from repro.faults import FaultPlan, FaultSpec

        spec = FaultSpec(
            kind="slow_sector", target="a", at_s=window_at, window_s=0.01, duration_s=0.002
        )
        env = Environment()
        monitor, faults, arrays = self._arrays(env, FaultPlan(specs=(spec,)))

        def proc():
            yield from raid_read(arrays["a"], 10 * MB, 64 * KB)
            return env.now

        p = env.process(proc())
        env.run()
        return p.value, faults.fired("slow_sector"), monitor.counter_value("a.slow_sectors")

    def test_slow_sector_window_opening_before_the_decision_is_honoured(self):
        # The arm is granted at 0; the decision is taken at 1 ms.
        inside, fired, counted = self._slow_read(0.0005)
        assert (fired, counted) == (1, 1)
        after, fired, counted = self._slow_read(0.0015)
        assert (fired, counted) == (0, 0)
        assert inside == pytest.approx(after + 0.002)

    def test_disk_failure_applied_by_another_array_degrades_the_access(self):
        from repro.faults import FaultPlan

        env = Environment()
        plan = FaultPlan.single_disk_failure(array="a", at_s=0.0005)
        monitor, faults, arrays = self._arrays(env, plan, names=("a", "b"))

        def reader_a():
            yield from raid_read(arrays["a"], 10 * MB, 64 * KB)

        def reader_b():
            # Queued after the failure is due and before a's decision:
            # b's access applies it.
            yield env.timeout(0.0007)
            assert not arrays["a"].degraded
            yield from raid_read(arrays["b"], 10 * MB, 64 * KB)

        env.process(reader_a())
        env.process(reader_b())
        env.run()
        assert monitor.counter_value("a.disk_failures") == 1
        assert monitor.counter_value("a.degraded_reads") == 1
        assert monitor.counter_value("b.degraded_reads") == 0

    def test_degraded_completion_times_are_pinned(self):
        """Completion instants of reads and writes on a degraded array,
        frozen to the bit: reconstruction, track-cache hits, sequential
        and positioned accesses, and a second reader queueing behind."""
        from repro.faults import FaultPlan

        env = Environment()
        plan = FaultPlan.single_disk_failure(array="a", at_s=0.0)
        monitor, faults, arrays = self._arrays(env, plan)
        raid = arrays["a"]
        done = []

        def first():
            yield from raid_read(raid, 0, 64 * KB)
            done.append(("read", env.now))
            yield from raid_read(raid, 64 * KB, 64 * KB)
            done.append(("sequential", env.now))
            yield from raid_read(raid, 64 * KB, 32 * KB)
            done.append(("cached", env.now))
            yield from raid_write(raid, 300 * MB, 64 * KB)
            done.append(("write", env.now))
            yield from raid_write(raid, 300 * MB + 64 * KB, 48 * KB)
            done.append(("sequential-write", env.now))

        def second():
            # Queues while the track-cache hit holds the arm.
            yield env.timeout(0.105)
            yield from raid_read(raid, 80 * MB, 128 * KB)
            done.append(("queued", env.now))

        env.process(first())
        env.process(second())
        env.run()
        assert monitor.counter_value("a.degraded_reads") == 3
        assert monitor.counter_value("a.degraded_writes") == 2
        assert monitor.counter_value("a.track_cache_hits") == 1
        assert [(tag, repr(now)) for tag, now in done] == PINNED


class TestSlowSectorWait:
    def test_disk_failure_during_the_wait_degrades_the_access(self):
        """The checks that follow a slow-sector wait are taken at its end:
        a spindle that another array's access fails meanwhile degrades
        the access."""
        from repro.faults import FaultInjector, FaultPlan, FaultSpec

        env = Environment()
        monitor = Monitor(env)
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="slow_sector", target="a", at_s=0.0, window_s=0.01, duration_s=0.005),
                FaultSpec(kind="disk_failure", target="a", at_s=0.002),
            )
        )
        faults = FaultInjector(env, plan, monitor=monitor)
        rp = RAIDParams(data_disks=4, controller_overhead_s=0.001)
        arrays = {
            name: RAID3Array(
                env, SCSIBus(env), name=name, raid_params=rp, monitor=monitor, faults=faults
            )
            for name in ("a", "b")
        }
        faults.start(arrays)

        def reader_a():
            # Decided at 1 ms, before the failure is due; waits to 6 ms.
            yield from raid_read(arrays["a"], 10 * MB, 64 * KB)

        def reader_b():
            yield env.timeout(0.003)
            yield from raid_read(arrays["b"], 10 * MB, 64 * KB)

        env.process(reader_a())
        env.process(reader_b())
        env.run()
        assert monitor.counter_value("a.slow_sectors") == 1
        assert monitor.counter_value("a.disk_failures") == 1
        assert monitor.counter_value("a.degraded_reads") == 1


class TestFailedAccessSpan:
    def test_failed_access_ends_its_span_with_the_error(self):
        from repro.obs.observability import Observability

        env = Environment()
        obs = Observability(env, trace=True)
        raid = RAID3Array(env, SCSIBus(env), name="d0", monitor=obs)
        raid.inject_failures(1)
        seen = []

        def proc():
            try:
                yield from raid_read(raid, 0, 64 * KB)
            except RAIDError as exc:
                seen.append((env.now, str(exc)))

        env.process(proc())
        env.run()
        ((failed_at, message),) = seen
        assert "injected media error" in message
        (span,) = obs.tracer.by_kind("disk_service")
        assert span.end == failed_at
        assert span.attrs["error"] == message
        assert [s for s in obs.tracer.spans if s.end is None] == []
