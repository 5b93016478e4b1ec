"""Tests for the fleet-wide telemetry subsystem (repro.obs.telemetry).

Covers the PR's acceptance criteria:

- telemetry (and tracing) enabled leaves every measured number in the
  :class:`BandwidthReport` bit-identical to a plain run;
- the Prometheus text exposition matches a golden snapshot exactly;
- degenerate runs behave: zero-duration runs still produce a sample,
  sample intervals longer than the run still yield an exact bottleneck
  report (it reads the components' busy-seconds, not samples);
- the bottleneck report is the same with telemetry on or off, so the
  fast paths leave the final busy-seconds unchanged;
- the time-series exporters (CSV / JSONL) and ASCII charts render;
- ``PrefetchStats.merge`` is commutative and associative, so
  machine-wide aggregation cannot depend on rank iteration order.
"""

import json

import pytest

from repro.experiments.common import run_collective, scaled_file_size
from repro.obs import (
    NULL_TELEMETRY,
    Telemetry,
    get_telemetry,
    prometheus_text,
    timeseries_csv,
    timeseries_jsonl,
    utilization_heatmap,
    utilization_matrix,
)
from repro.obs.stats import PrefetchStats
from repro.obs.telemetry import NULL_METRIC
from repro.sim import Environment

KB = 1024


def small_run(prefetch=False, **kwargs):
    """A fast 4C/4IO collective read (16 read calls total)."""
    request = 128 * KB
    return run_collective(
        request_size=request,
        file_size=scaled_file_size(request, n_compute=4, rounds=4),
        prefetch=prefetch,
        rounds=4,
        n_compute=4,
        n_io=4,
        **kwargs,
    )


# -- the core contract: observability never changes what a run measures ------


class TestBitIdentical:
    def test_full_instrumentation_equals_plain_run(self, prefetch_enabled):
        plain = small_run(prefetch=prefetch_enabled)
        instrumented = small_run(prefetch=prefetch_enabled, trace=True, telemetry=True)
        # Dataclass equality covers every measured field; breakdown and
        # bottleneck are compare=False so only measurements participate.
        assert plain == instrumented
        assert (plain.collective_bandwidth_mbps == instrumented.collective_bandwidth_mbps)
        assert plain.read_call_time_by_rank == instrumented.read_call_time_by_rank
        # And the instrumented run actually carried its extras.
        assert instrumented.breakdown is not None
        assert instrumented.bottleneck is not None
        assert plain.breakdown is None and plain.bottleneck is None

    def test_bottleneck_report_is_independent_of_telemetry(self, prefetch_enabled):
        # Telemetry turns the RAID, mesh and RPC fast paths off; the
        # busy-seconds they leave behind must not depend on it.
        fast = small_run(prefetch=prefetch_enabled, keep_machine=True)
        stepped = small_run(prefetch=prefetch_enabled, telemetry=True, keep_machine=True)
        assert not fast.machine.obs.telemetry.enabled
        report = fast.machine.bottleneck_report()
        assert report is not None
        assert report.to_jsonable() == stepped.machine.bottleneck_report().to_jsonable()
        assert report.to_jsonable() == stepped.bottleneck.to_jsonable()

    def test_disabled_telemetry_registers_nothing(self, machine):
        telemetry = machine.obs.telemetry
        assert not telemetry
        assert telemetry.counter("x") is NULL_METRIC
        assert telemetry.gauge("x") is NULL_METRIC
        assert telemetry.histogram("x") is NULL_METRIC
        telemetry.register_probe("x", lambda: 1.0)
        assert telemetry.n_samples == 0
        assert not telemetry.registry.families

    def test_get_telemetry_fallback(self):
        assert get_telemetry(None) is NULL_TELEMETRY
        assert get_telemetry(object()) is NULL_TELEMETRY


# -- sampling ----------------------------------------------------------------


class TestSampler:
    def test_machine_run_produces_resource_series(self, machine_factory):
        machine = machine_factory(telemetry=True, telemetry_interval_s=0.01)
        report = small_run(telemetry=True, keep_machine=True)
        telemetry = report.machine.obs.telemetry
        assert telemetry.n_samples > 1
        disk = telemetry.series_by_name("disk_busy_seconds")
        assert disk, "disks must publish busy-seconds probes"
        for points in disk.values():
            values = [v for _t, v in points]
            assert values == sorted(values), "busy-seconds is monotonic"
        # Sample timestamps strictly increase (idempotent per-time).
        times = telemetry.sample_times
        assert all(b > a for a, b in zip(times, times[1:]))
        # The configured machine fixture is unused beyond exercising the
        # telemetry_interval_s config path.
        assert machine.obs.telemetry.interval_s == 0.01

    def test_zero_duration_run_still_samples_once(self):
        env = Environment()
        telemetry = Telemetry(env, enabled=True)
        telemetry.register_probe(
            "disk_busy_seconds",
            lambda: 0.0,
            labels={"device": "d0"},
            kind="counter",
        )
        env.run()  # no events: the clock never advances
        telemetry.finalize()
        assert telemetry.n_samples == 1
        assert telemetry.sample_times == [0.0]
        assert telemetry.elapsed_s == 0.0
        # Zero elapsed time -> no meaningful utilization.
        assert utilization_matrix(telemetry, "disk_busy_seconds") is None
        assert "(no samples" in utilization_heatmap(telemetry)

    def test_interval_longer_than_run(self, machine_factory):
        machine = machine_factory(n_compute=2, n_io=2, telemetry=True, telemetry_interval_s=1e6)
        from repro.config import PFSConfig
        from repro.pfs import IOMode

        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", 256 * KB)
        handles = [None, None]

        def opener(rank):
            handles[rank] = yield from machine.clients[rank].open(
                mount, "data", IOMode.M_RECORD, rank=rank, nprocs=2
            )

        def reader(rank):
            yield from handles[rank].read(128 * KB)

        for rank in (0, 1):
            machine.spawn(opener(rank))
        machine.run()
        for rank in (0, 1):
            machine.spawn(reader(rank))
        machine.run()
        telemetry = machine.obs.telemetry
        telemetry.finalize()
        # First tick + finalize; the 1e6 s cadence never came due again.
        assert 1 <= telemetry.n_samples <= 2
        # The bottleneck report reads the components' busy-seconds, so
        # it is exact even though the sampler effectively never fired.
        report = machine.bottleneck_report()
        assert report is not None
        assert 0.0 < report.utilization <= 1.0
        assert report.elapsed_s == machine.env.now

    def test_finalize_is_idempotent(self, machine_factory):
        report = small_run(telemetry=True, keep_machine=True)
        telemetry = report.machine.obs.telemetry
        n = telemetry.n_samples
        telemetry.finalize()
        telemetry.finalize()
        assert telemetry.n_samples == n


# -- exporters ---------------------------------------------------------------


GOLDEN_PROMETHEUS = """\
# HELP reads_total Total read calls.
# TYPE reads_total counter
reads_total{node="0"} 3
reads_total{node="1"} 1
# TYPE queue_depth gauge
queue_depth{device="raid0"} 2
# HELP service_seconds Device service time.
# TYPE service_seconds histogram
service_seconds_bucket{device="raid0",le="0.01"} 1
service_seconds_bucket{device="raid0",le="0.1"} 2
service_seconds_bucket{device="raid0",le="1"} 2
service_seconds_bucket{device="raid0",le="+Inf"} 3
service_seconds_sum{device="raid0"} 5.055
service_seconds_count{device="raid0"} 3
"""


class TestExporters:
    def golden_telemetry(self):
        telemetry = Telemetry(env=None, enabled=True)
        telemetry.counter("reads_total", labels={"node": "0"}, help="Total read calls.").inc(3)
        telemetry.counter("reads_total", labels={"node": "1"}).inc()
        telemetry.gauge("queue_depth", labels={"device": "raid0"}).set(2)
        hist = telemetry.histogram(
            "service_seconds",
            labels={"device": "raid0"},
            help="Device service time.",
            buckets=(0.01, 0.1, 1.0),
        )
        for value in (0.005, 0.05, 5.0):
            hist.observe(value)
        return telemetry

    def test_prometheus_golden_snapshot(self):
        assert prometheus_text(self.golden_telemetry()) == GOLDEN_PROMETHEUS

    def test_csv_and_jsonl_shapes(self):
        telemetry = self.golden_telemetry()
        telemetry.sample(0.5)
        telemetry.sample(1.0)
        csv_text = timeseries_csv(telemetry)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "time_s,metric,labels,value"
        # 3 scalar series (2 counters + 1 gauge; histogram excluded) x 2.
        assert len(lines) == 1 + 3 * 2
        assert "0.5,queue_depth,device=raid0,2" in lines
        rows = [json.loads(line) for line in timeseries_jsonl(telemetry).strip().split("\n")]
        assert len(rows) == 6
        assert {"t", "metric", "labels", "value"} == set(rows[0])
        assert {"t": 0.5, "metric": "queue_depth",
                "labels": {"device": "raid0"}, "value": 2.0} in rows

    def test_heatmap_and_timeline_render_from_a_real_run(self):
        report = small_run(telemetry=True, keep_machine=True)
        obs = report.machine.obs
        heatmap = obs.heatmap(bins=24)
        assert "utilization heatmap" in heatmap
        assert heatmap.count("|") >= 2 * 4, "one shaded row per raid device"
        timeline = obs.timeline(bins=16)
        assert "% busy" in timeline
        prom = obs.prometheus()
        assert "disk_busy_seconds" in prom
        assert "pfs_server_active_requests" in prom
        assert "client_read_bytes_total" in prom

    def test_bottleneck_names_the_disks_for_io_bound_reads(self):
        report = small_run(prefetch=True, telemetry=True)
        bottleneck = report.bottleneck
        assert bottleneck is not None
        # An I/O-bound collective read saturates the raid devices, not
        # the mesh or the CPUs (the paper's section 4.1 story).
        assert bottleneck.resource.startswith("disk ")
        assert bottleneck.utilization > 0.5
        assert "disk" in bottleneck.by_family
        described = bottleneck.describe()
        assert "bottleneck: disk" in described
        jsonable = bottleneck.to_jsonable()
        assert json.loads(json.dumps(jsonable)) == jsonable

    def test_bottleneck_none_when_disabled(self):
        # run_collective attaches a bottleneck only under telemetry=True.
        assert small_run().bottleneck is None


# -- PrefetchStats.merge algebra --------------------------------------------


def stats(hits, fractions):
    out = PrefetchStats(hits=hits, issued=hits)
    out.overlap_fractions = list(fractions)
    return out


class TestMergeAlgebra:
    def test_merge_is_commutative(self):
        a = stats(2, [0.9, 0.1])
        b = stats(3, [0.5])
        assert a.merge(b) == b.merge(a)

    def test_merge_is_associative(self):
        a = stats(1, [0.7, 0.2])
        b = stats(4, [1.0])
        c = stats(2, [0.0, 0.4])
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_merge_sums_and_preserves_mean(self):
        a = stats(2, [0.8, 0.4])
        b = stats(1, [0.6])
        merged = a.merge(b)
        assert merged.hits == 3
        assert merged.overlap_fractions == [0.4, 0.6, 0.8]
        assert merged.mean_overlap_fraction == pytest.approx(0.6)
