"""Fault-injection plane (``repro.faults``): recovery and determinism.

Covers the PR-4 acceptance criteria:

- transient faults within the retry budget never surface to the
  application, and every delivered byte matches ground truth
  (``Machine.verify`` invariant 7);
- a single disk failure mid-run completes byte-identically via RAID-3
  degraded reads, bit-identical under both tie-break orders;
- an exhausted retry budget raises the *typed*
  :class:`FaultBudgetExceeded` carrying the span chain;
- the golden fault-free fingerprints captured from the pre-fault-plane
  tree are unchanged (``faults=None`` is a true no-op);
- :class:`ArbitratedStore` settles same-timestamp puts/gets canonically
  (the RPC-inbox / ART-pool arbitration the retry path relies on);
- the bench tie-order sampler is a pure deterministic function;
- under a plan, each RAID access is timed whole at its arm grant
  exactly where no spec can act inside it, and takes a decision pop
  elsewhere: recording each access's form shows which arrays take
  decision pops; the fault-recovery benchmark's cells, and fault-free
  every paper-read and write-mix benchmark cell, give the same numbers
  untraced and traced;
- the span lists of traced runs -- these fault-recovery cells, the
  bench3 golden cells, the multi-stripe cells and the buffered
  readahead and unaligned write-through cells -- match the frozen
  ``tests/golden/trace_spans.json`` (see ``tests/span_golden.py``).

The CI fault matrix runs this module once per tie-break order by
setting ``FAULT_TIE_BREAK=fifo`` / ``lifo``; unset, both legs run.
"""

import hashlib
import importlib.util
import json
import pathlib
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizers import report_fingerprint
from repro.experiments.common import (
    KB,
    build_machine,
    prefetcher_factory,
    run_collective,
    run_multipass,
    run_separate_files,
    scaled_file_size,
)
from repro.faults import (
    FaultBudgetExceeded,
    FaultError,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.pfs import IOMode
from repro.sim import ArbitratedStore, Environment
from repro.workloads import (
    CollectiveReadWorkload,
    CollectiveWriteWorkload,
    SeparateFilesWorkload,
    StridedReadWorkload,
)
from tests import span_golden
from tests.conftest import TIE_BREAKS
from tests.test_kernel_perf_safety import _bench3_cell, _server_readahead_run, _write_run


GOLDEN = pathlib.Path(__file__).parent / "golden" / "bench3_fingerprints.json"
GOLDEN_REBUILD = pathlib.Path(__file__).parent / "golden" / "rebuild_fingerprint.json"

#: The canonical copy-back rebuild scenario (also the golden capture):
#: raid0 spindle 0 dies at t=0 and is replaced at t=0.01 with a
#: half-rate throttled rebuild.
REBUILD_PLAN = FaultPlan(
    specs=(
        FaultSpec(kind="disk_failure", target="raid0", at_s=0.0, disk_index=0),
        FaultSpec(kind="disk_repair", target="raid0", at_s=0.01, disk_index=0, rebuild_rate=0.5),
    ),
)


def _small_run(faults=None, tie_break="fifo", prefetch=True, rounds=4, keep_machine=True):
    """The standard small collective-read workload used throughout."""
    return run_collective(
        request_size=64 * KB,
        file_size=scaled_file_size(64 * KB, rounds=rounds),
        iomode=IOMode.M_RECORD,
        prefetch=prefetch,
        rounds=rounds,
        faults=faults,
        tie_break=tie_break,
        keep_machine=keep_machine,
    )


class TestPlanValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="cosmic_ray")

    def test_scheduled_kind_requires_time(self):
        with pytest.raises(ValueError, match="at_s"):
            FaultSpec(kind="disk_failure", target="raid0")

    def test_mesh_faults_are_window_only(self):
        # Count-based mesh triggers would race on message pop order.
        with pytest.raises(ValueError, match="window"):
            FaultSpec(kind="mesh_drop", target="*", after_n=2)

    def test_stall_requires_duration(self):
        with pytest.raises(ValueError, match="duration"):
            FaultSpec(kind="server_stall", target="*")

    def test_specs_must_be_fault_specs(self):
        with pytest.raises(TypeError):
            FaultPlan(specs=("not a spec",))

    def test_retry_policy_validates(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=-1.0)

    def test_timeout_schedule_monotone_and_capped(self):
        policy = RetryPolicy(timeout_s=0.5, backoff_factor=2.0, max_timeout_s=3.0, max_attempts=6)
        timeouts = [policy.timeout_for(a) for a in range(6)]
        assert timeouts == sorted(timeouts)
        assert timeouts[0] == 0.5
        assert max(timeouts) == 3.0

    def test_scattered_is_seed_deterministic(self):
        a = FaultPlan.scattered(seed=7, horizon_s=1.0)
        b = FaultPlan.scattered(seed=7, horizon_s=1.0)
        c = FaultPlan.scattered(seed=8, horizon_s=1.0)
        assert a.specs == b.specs
        assert a.specs != c.specs

    def test_scattered_transient_only_excludes_disk_failure(self):
        plan = FaultPlan.scattered(seed=3, horizon_s=1.0, n_faults=8)
        assert plan.by_kind("disk_failure") == ()
        full = FaultPlan.scattered(seed=3, horizon_s=1.0, n_faults=8, transient_only=False)
        assert len(full.by_kind("disk_failure")) == 1

    def test_failed_array_never_gets_media_errors(self):
        for seed in range(40):
            plan = FaultPlan.scattered(seed=seed, horizon_s=1.0, n_faults=8, transient_only=False)
            (failure,) = plan.by_kind("disk_failure")
            assert all(s.target != failure.target for s in plan.by_kind("media_error"))
        two = FaultPlan.scattered(
            seed=3,
            horizon_s=1.0,
            n_faults=8,
            raid_targets=("raid0", "raid1"),
            transient_only=False,
        )
        (failure,) = two.by_kind("disk_failure")
        survivors = {"raid0", "raid1"} - {failure.target}
        assert {s.target for s in two.by_kind("media_error")} == survivors

    def test_unknown_scheduled_target_raises_at_start(self):
        plan = FaultPlan.single_disk_failure(array="raid99", at_s=0.1)
        with pytest.raises(FaultError, match="raid99"):
            _small_run(faults=plan, rounds=1)


class TestTransparentRecovery:
    """Faults within the retry budget never reach the application."""

    def test_scattered_faults_recover_and_deliver_ground_truth(self):
        baseline = _small_run(faults=None)
        for seed in (1, 2, 5, 11):
            plan = FaultPlan.scattered(seed=seed, horizon_s=1.0, n_faults=6)
            report = _small_run(faults=plan)
            machine = report.machine
            # Invariant 7: every delivered byte re-derived from stripe
            # content -- plus the pre-existing leak/accounting checks.
            assert machine.verify() == []
            assert machine.faults.deliveries, "audit log must be populated"
            # Same bytes delivered as the fault-free run.
            assert report.total_bytes == baseline.total_bytes
            # Prefetch accounting survives retries.
            stats = report.prefetch
            assert (
                stats.hits + stats.partial_hits + stats.misses
                + stats.failed_fallbacks == stats.demand_reads
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_scattered_with_disk_failure_recovers(self, seed):
        # Seeds 2, 3, 4 and 7 once put a media error on the array the
        # plan fails, which a degraded RAID-3 cannot reconstruct.
        from repro.config import MachineConfig, PFSConfig
        from repro.machine import Machine
        from repro.workloads import CollectiveReadWorkload, CollectiveWriteWorkload

        plan = FaultPlan.scattered(seed=seed, horizon_s=1.0, n_faults=5, transient_only=False)
        machine = Machine(MachineConfig(faults=plan))
        mount = machine.mount("/pfs", PFSConfig(buffered=False))
        machine.create_file(mount, "out", 0)
        request = 64 * KB
        CollectiveWriteWorkload(
            machine, mount, "out", request_size=request, rounds=4, iomode=IOMode.M_RECORD
        ).run()
        report = CollectiveReadWorkload(
            machine, mount, "out", request_size=request, iomode=IOMode.M_RECORD
        ).run().report
        assert machine.verify() == []
        assert report.total_bytes == request * machine.config.n_compute * 4

    def test_media_errors_reconstruct_inline(self):
        plan = FaultPlan(specs=(FaultSpec(kind="media_error", target="raid0", count=3),))
        report = _small_run(faults=plan)
        machine = report.machine
        assert machine.verify() == []
        assert machine.monitor.counter_value("raid0.media_errors_recovered") == 3
        assert report.total_bytes == _small_run(faults=None).total_bytes

    def test_rpc_stall_triggers_retry_then_replay(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="server_stall", target="*", count=1, duration_s=2.0),),
            retry=RetryPolicy(timeout_s=0.5, max_attempts=6),
        )
        report = _small_run(faults=plan)
        machine = report.machine
        assert machine.verify() == []
        assert machine.monitor.counter_value("rpc.retries") >= 1
        # Retransmits hit the idempotent request log: coalesced while
        # the first execution is still in flight, replayed after it
        # finishes -- never re-executed.
        deduped = (
            machine.monitor.counter_value("rpc.replays")
            + machine.monitor.counter_value("rpc.duplicates_coalesced")
        )
        assert deduped >= 1


class TestDegradedMode:
    """Single disk failure mid-run: RAID-3 keeps every byte correct."""

    def test_disk_failure_mid_run_is_transparent_and_tie_deterministic(self):
        # 0.1s is genuinely mid-run for this workload (~0.25s of reads):
        # some raid0 reads complete healthy, the rest run degraded.
        plan = FaultPlan.single_disk_failure(array="raid0", at_s=0.1)
        prints = {}
        for tb in TIE_BREAKS:
            report = _small_run(faults=plan, tie_break=tb)
            machine = report.machine
            assert machine.verify() == []
            assert machine.monitor.counter_value("raid0.disk_failures") == 1
            assert machine.monitor.counter_value("raid0.degraded_reads") > 0
            del report.machine  # machine is compare=False-free metadata
            prints[tb] = report_fingerprint(report)
        assert len(set(prints.values())) == 1, prints

    def test_degraded_run_is_slower_not_wrong(self):
        healthy = _small_run(faults=None)
        degraded = _small_run(faults=FaultPlan.single_disk_failure(array="raid0", at_s=0.0))
        assert degraded.total_bytes == healthy.total_bytes
        assert degraded.elapsed_s > healthy.elapsed_s
        assert degraded.machine.verify() == []

    def test_second_failure_loses_data(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="disk_failure", target="raid0", at_s=0.0, disk_index=0),
                FaultSpec(kind="disk_failure", target="raid0", at_s=0.1, disk_index=1),
            ),
        )
        with pytest.raises(Exception, match="data lost|RAID"):
            _small_run(faults=plan, rounds=8)

    def test_repair_restores_full_speed_reads(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="disk_failure", target="raid0", at_s=0.0),
                FaultSpec(kind="disk_repair", target="raid0", at_s=0.2),
            ),
        )
        report = _small_run(faults=plan)
        assert report.machine.verify() == []
        raid0 = next(a for a in report.machine.arrays if a.name == "raid0")
        assert not raid0.degraded


class TestCopyBackRebuild:
    """The rebuild is real traffic: it costs bandwidth once, then the
    array is healthy -- degraded-forever taxes every pass instead."""

    def test_rebuild_window_bandwidth_ordering(self):
        """Over repeated passes: fault-free > rebuild-window > degraded.
        (A single pass cannot show this -- the rebuild moves at least as
        many bytes as one pass reads from the failed array, so its
        one-time cost exceeds one pass's reconstruction tax.)"""
        file_size = scaled_file_size(64 * KB, rounds=4)
        fault_free = run_multipass(64 * KB, file_size, passes=6, rounds=4)
        rebuild = run_multipass(
            64 * KB,
            file_size,
            passes=6,
            rounds=4,
            faults=REBUILD_PLAN,
            keep_machine=True,
        )
        degraded = run_multipass(
            64 * KB,
            file_size,
            passes=6,
            rounds=4,
            faults=FaultPlan.single_disk_failure(array="raid0", at_s=0.0),
        )
        assert (
            fault_free.collective_bandwidth_mbps
            > rebuild.collective_bandwidth_mbps
            > degraded.collective_bandwidth_mbps
        )
        machine = rebuild.machine
        raid0 = next(a for a in machine.arrays if a.name == "raid0")
        assert raid0.rebuilds_completed == 1
        assert not raid0.degraded
        # Rebuild progress is visible in the monitor.
        copied = machine.monitor.counter_value("raid0.rebuild_copied_bytes")
        assert copied == raid0.rebuild_copied_bytes > 0
        assert machine.verify() == []

    def test_rebuild_scenario_is_tie_deterministic(self):
        prints = {}
        for tb in TIE_BREAKS:
            report = run_multipass(
                64 * KB,
                scaled_file_size(64 * KB, rounds=2),
                passes=2,
                rounds=2,
                tie_break=tb,
                faults=REBUILD_PLAN,
            )
            prints[tb] = report_fingerprint(report)
        assert len(set(prints.values())) == 1, prints

    def test_rebuild_traffic_is_attributed_on_the_bus(self):
        report = _small_run(faults=REBUILD_PLAN)
        machine = report.machine
        assert machine.verify() == []
        # The copy-back's SCSI transfers carry their own cause label, so
        # the monitor separates rebuild traffic from demand/prefetch.
        assert machine.monitor.counter_value("scsi0.rebuild_transfers") > 0
        assert machine.monitor.counter_value("scsi0.rebuild_bytes") > 0

    def test_canonical_rebuild_fingerprint_unchanged(self):
        with open(GOLDEN_REBUILD) as fh:
            golden = json.load(fh)
        report = run_multipass(
            64 * KB,
            scaled_file_size(64 * KB, rounds=4),
            passes=6,
            rounds=4,
            faults=REBUILD_PLAN,
        )
        assert report_fingerprint(report) == golden["fingerprint"]


class TestCrashRestart:
    """Compute-node crash/restart: lost work is replayed exactly once."""

    CRASH_PLAN = FaultPlan.crash_restart(node="node0", windows=((0.03, 0.08), (0.2, 0.25)))

    def test_crash_restart_run_passes_extended_audit(self):
        report = _small_run(faults=self.CRASH_PLAN)
        machine = report.machine
        # Invariant 7 covers demand, prefetch and readahead records.
        assert machine.verify() == []
        demand = [
            (file_id, offset, nbytes)
            for (file_id, offset, nbytes, _d, kind, _io) in machine.faults.deliveries
            if kind == "demand"
        ]
        assert len(demand) == len(set(demand))  # zero duplicates
        assert sorted(o for _f, o, _n in demand) == [
            i * 64 * KB for i in range(32)
        ]  # zero missing records
        assert report.total_bytes == 32 * 64 * KB

    def test_crash_restart_is_tie_deterministic(self):
        prints = {}
        for tb in TIE_BREAKS:
            report = _small_run(faults=self.CRASH_PLAN, tie_break=tb)
            assert report.machine.verify() == []
            del report.machine
            prints[tb] = report_fingerprint(report)
        assert len(set(prints.values())) == 1, prints

    def test_crash_leaves_no_prefetch_leaks(self):
        # A prefetch in flight at crash time is torn down (failed or
        # discarded, depending on where the crash caught it); either way
        # the accounting stays consistent and no buffer memory leaks.
        report = _small_run(faults=self.CRASH_PLAN)
        machine = report.machine
        stats = report.prefetch
        assert (
            stats.hits + stats.partial_hits + stats.misses
            + stats.failed_fallbacks == stats.demand_reads
        )
        for node in machine.compute_nodes:
            assert node.memory.used_by("prefetch") == 0

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_m_sync_crash_resumes_at_its_barrier_grant(self, tie_break):
        # node0 goes down while its first M_SYNC read is in flight.  The
        # barrier already retired that call, so the restarted rank must
        # resume at the offset it was granted: a fresh SyncArrive would
        # open a generation no other rank joins and exhaust the retry
        # budget (FaultBudgetExceeded).
        plan = FaultPlan.crash_restart(node="node0", windows=((0.01, 0.03),))
        report = run_collective(
            request_size=64 * KB,
            file_size=scaled_file_size(64 * KB, rounds=2),
            iomode=IOMode.M_SYNC,
            rounds=2,
            prefetch=True,
            faults=plan,
            tie_break=tie_break,
            keep_machine=True,
        )
        machine = report.machine
        assert machine.verify() == []
        demand = [
            (offset, nbytes)
            for (_f, offset, nbytes, _d, kind, _io) in machine.faults.deliveries
            if kind == "demand"
        ]
        assert len(demand) == len(set(demand))
        assert sorted(o for o, _n in demand) == [i * 64 * KB for i in range(16)]
        assert report.total_bytes == 16 * 64 * KB

    def test_crash_plan_validates_node_exists(self):
        plan = FaultPlan.crash_restart(node="node99", windows=((0.01, 0.02),))
        with pytest.raises(FaultError, match="node99"):
            _small_run(faults=plan, rounds=1)


def _readahead_run(tie_break):
    """A buffered 2-round M_RECORD read with server readahead on, under a
    crash plan whose window opens after the run has finished."""
    from repro.config import MachineConfig, PFSConfig
    from repro.machine import Machine
    from repro.workloads import CollectiveReadWorkload

    plan = FaultPlan.crash_restart(node="node0", windows=((5.0, 5.1),))
    machine = Machine(MachineConfig(faults=plan, server_readahead_blocks=2, tie_break=tie_break))
    mount = machine.mount("/pfs", PFSConfig(buffered=True))
    machine.create_file(mount, "data", scaled_file_size(64 * KB, rounds=2))
    CollectiveReadWorkload(
        machine, mount, "data", request_size=64 * KB, iomode=IOMode.M_RECORD
    ).run()
    return machine, mount


def _truth(machine, file_id, offset, nbytes):
    """Lazy fault-free content of a PFS-file-space range."""
    from repro.pfs.stripe import decluster
    from repro.ufs.data import concat_data

    attrs = next(
        f.attrs for m in machine.mounts.values() for f in m.files.values() if f.file_id == file_id
    )
    pieces = sorted(decluster(attrs, offset, nbytes), key=lambda p: p.pfs_offset)
    return concat_data(
        [machine.ufses[p.io_node].content(file_id, p.ufs_offset, p.length) for p in pieces]
    )


class TestDeliveryAudit:
    """Invariant 7: every audited delivery equals its ground truth."""

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_readahead_entries_verify(self, tie_break):
        machine, _mount = _readahead_run(tie_break)
        readahead = [e for e in machine.faults.deliveries if e[4] == "readahead"]
        assert readahead
        # Readahead entries name the stripe (its UFS), not the I/O node.
        assert {e[5] for e in readahead} <= set(range(len(machine.ufses)))
        assert machine.verify() == []

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_entries_of_removed_file_are_reported_not_raised(self, tie_break):
        machine, mount = _readahead_run(tie_break)
        entries = len(machine.faults.deliveries)
        assert {e[4] for e in machine.faults.deliveries} == {"demand", "readahead"}
        machine.remove_file(mount, "data")
        problems = machine.verify()
        assert len(problems) == entries
        assert all("unknown file_id" in p for p in problems)

    @staticmethod
    def _first_prefetch(tie_break):
        """A clean crash-restart run, its first prefetch entry and the
        lazy ground truth of that entry's range."""
        report = _small_run(faults=TestCrashRestart.CRASH_PLAN, tie_break=tie_break)
        machine = report.machine
        assert machine.verify() == []
        entry = min(
            (e for e in machine.faults.deliveries if e[4] == "prefetch"), key=lambda e: e[1]
        )
        file_id, offset, nbytes, delivered, _kind, _io = entry
        truth = _truth(machine, file_id, offset, nbytes)
        assert delivered == truth
        return machine, file_id, offset, nbytes, truth

    @staticmethod
    def _problem(file_id, offset, nbytes):
        return (
            f"delivery audit: file {file_id} prefetch [{offset}, {offset + nbytes}) "
            f"delivered bytes differ from fault-free content"
        )

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_shifted_delivery_is_reported(self, tie_break):
        machine, file_id, offset, nbytes, _ = self._first_prefetch(tie_break)
        shifted = _truth(machine, file_id, offset + 1, nbytes)
        machine.faults.record_delivery(file_id, offset, nbytes, shifted, kind="prefetch")
        assert machine.verify() == [self._problem(file_id, offset, nbytes)]

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_equal_bytes_under_other_runs_verify_clean(self, tie_break):
        from repro.ufs.data import LiteralData, runs

        machine, file_id, offset, nbytes, truth = self._first_prefetch(tie_break)
        copy = LiteralData(truth.to_bytes())
        assert runs(copy) != runs(truth)
        machine.faults.record_delivery(file_id, offset, nbytes, copy, kind="prefetch")
        assert machine.verify() == []

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_one_flipped_byte_is_reported(self, tie_break):
        from repro.ufs.data import LiteralData

        machine, file_id, offset, nbytes, truth = self._first_prefetch(tie_break)
        payload = bytearray(truth.to_bytes())
        payload[nbytes // 2] ^= 0x01
        machine.faults.record_delivery(
            file_id, offset, nbytes, LiteralData(payload), kind="prefetch"
        )
        assert machine.verify() == [self._problem(file_id, offset, nbytes)]


class TestFaultBudget:
    def test_exhausted_budget_raises_typed_error_with_span_chain(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="server_stall", target="*", count=64, duration_s=1000.0),),
            retry=RetryPolicy(timeout_s=0.5, backoff_factor=2.0, max_timeout_s=2.0, max_attempts=3),
        )
        with pytest.raises(FaultBudgetExceeded) as excinfo:
            run_collective(
                request_size=64 * KB,
                file_size=scaled_file_size(64 * KB, rounds=2),
                iomode=IOMode.M_RECORD,
                rounds=2,
                faults=plan,
                trace=True,
            )
        err = excinfo.value
        assert isinstance(err, FaultError)
        assert err.attempts == (0.5, 1.0, 2.0)
        kinds = [span.kind for span in err.span_chain]
        assert kinds and kinds[0] == "rpc_call"
        assert "client_call" in kinds

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_exhausted_budget_ends_every_span(self, tie_break):
        """An M_UNIX read whose pointer-token call runs out of retries
        ends its ``coordinate`` and ``client_call`` spans with the error,
        and leaves no span open."""
        from repro.config import MachineConfig, PFSConfig
        from repro.machine import Machine

        plan = FaultPlan(specs=(FaultSpec("mesh_drop", at_s=0.0, window_s=100.0),))
        config = MachineConfig(n_compute=2, n_io=2, faults=plan, trace=True, tie_break=tie_break)
        machine = Machine(config)
        mount = machine.mount("/pfs", PFSConfig())
        machine.create_file(mount, "data", 4 * 64 * KB)
        client = machine.clients[0]

        def reader():
            handle = yield from client.open(mount, "data", IOMode.M_UNIX)
            yield from handle.read(64 * KB)

        machine.spawn(reader())
        with pytest.raises(FaultBudgetExceeded):
            machine.run()
        spans = machine.obs.tracer.spans
        assert spans and [span for span in spans if span.end is None] == []
        failed = {span.kind for span in spans if "error" in (span.attrs or {})}
        assert {"coordinate", "client_call"} <= failed

    def test_budget_error_untraced_has_empty_chain(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="server_stall", target="*", count=64, duration_s=1000.0),),
            retry=RetryPolicy(timeout_s=0.25, max_attempts=2),
        )
        with pytest.raises(FaultBudgetExceeded) as excinfo:
            _small_run(faults=plan, rounds=2, keep_machine=False)
        assert excinfo.value.span_chain == ()
        assert len(excinfo.value.attempts) == 2


class TestGoldenFingerprints:
    """``faults=None`` is bit-identical to the pre-fault-plane tree."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN) as fh:
            return json.load(fh)["cells"]

    @pytest.mark.parametrize("size_kb", [64, 256])
    @pytest.mark.parametrize("prefetch", [False, True])
    def test_table1_cells_unchanged(self, golden, size_kb, prefetch):
        report = run_collective(
            request_size=size_kb * KB,
            file_size=scaled_file_size(size_kb * KB, rounds=4),
            iomode=IOMode.M_RECORD,
            prefetch=prefetch,
            rounds=4,
        )
        key = f"table1:{size_kb}kb:prefetch={prefetch}"
        assert report_fingerprint(report) == golden[key]

    def test_figure2_unix_cell_unchanged(self, golden):
        report = run_collective(
            request_size=64 * KB,
            file_size=scaled_file_size(64 * KB, rounds=4),
            iomode=IOMode.M_UNIX,
            rounds=4,
            async_partition=False,
        )
        assert report_fingerprint(report) == golden["figure2:64kb:M_UNIX"]

    def test_figure2_separate_files_cell_unchanged(self, golden):
        report = run_separate_files(request_size=64 * KB, file_size_per_node=64 * KB * 4)
        key = "figure2:64kb:SEPARATE_FILES"
        assert report_fingerprint(report) == golden[key]


class TestArbitratedStoreTies:
    """Same-timestamp store traffic settles canonically, not pop-order."""

    @staticmethod
    def _producer_consumer_order(tie_break):
        env = Environment(tie_break=tie_break)
        store = ArbitratedStore(env)
        out = []

        def producer(tag, key):
            yield env.timeout(0.1)
            yield store.put(tag, key=key)

        def consumer():
            for _ in range(3):
                item = yield store.get(key=(9, 9))
                out.append(item)

        # Spawn order deliberately disagrees with key order so a
        # pop-order store would differ between fifo and lifo.
        env.process(producer("a", (3,)))
        env.process(producer("b", (1,)))
        env.process(producer("c", (2,)))
        env.process(consumer())
        env.run()
        return out

    def test_put_admission_is_key_ordered_under_both_tie_breaks(self):
        orders = {tb: self._producer_consumer_order(tb) for tb in TIE_BREAKS}
        for tb in TIE_BREAKS:
            assert orders[tb] == ["b", "c", "a"]

    @staticmethod
    def _competing_getters(tie_break):
        env = Environment(tie_break=tie_break)
        store = ArbitratedStore(env)
        out = []

        def getter(tag, key):
            item = yield store.get(key=key)
            out.append((tag, item))

        def feeder():
            yield store.put("first", key=(0,))
            yield env.timeout(0.1)
            yield store.put("second", key=(0,))

        env.process(getter("late-key", (5,)))
        env.process(getter("early-key", (1,)))
        env.process(feeder())
        env.run()
        return out

    def test_competing_gets_served_in_key_order(self):
        for tb in TIE_BREAKS:
            out = self._competing_getters(tb)
            assert out == [("early-key", "first"), ("late-key", "second")]

    def test_items_visible_for_probes(self):
        env = Environment()
        store = ArbitratedStore(env)

        def proc():
            yield store.put("x", key=(1,))
            yield env.timeout(0.0)

        env.process(proc())
        env.run()
        assert store.items == ["x"]


class TestBenchTieSampler:
    """The ``--tie-check=sample`` cell sampler is pure and deterministic."""

    @pytest.fixture(scope="class")
    def bench(self):
        path = pathlib.Path(__file__).parent.parent / "benchmarks" / "run_bench.py"
        spec = importlib.util.spec_from_file_location("run_bench", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_sampler_is_stable_across_calls(self, bench):
        keys = [
            f"table1:{s}kb:prefetch={p}" for s in (64, 128, 256, 512, 1024) for p in (False, True)
        ]
        first = [bench.tie_check_sampled(k) for k in keys]
        second = [bench.tie_check_sampled(k) for k in keys]
        assert first == second
        # The sample is a strict, non-empty subset over the real grid.
        f2_keys = [
            f"figure2:{s}kb:{m}"
            for s in (64, 128, 256, 512, 1024)
            for m in ("M_UNIX", "M_LOG", "M_SYNC", "M_RECORD", "M_ASYNC", "SEPARATE_FILES")
        ]
        picks = [k for k in keys + f2_keys if bench.tie_check_sampled(k)]
        assert 0 < len(picks) < len(keys + f2_keys)

    def test_sampler_matches_crc_definition(self, bench):
        import zlib

        key = "table1:64kb:prefetch=False"
        expected = zlib.crc32(key.encode("utf-8")) % bench.SAMPLE_MODULUS == 0
        assert bench.tie_check_sampled(key) is expected

    def test_run_bench_rejects_bad_tie_check(self, bench):
        with pytest.raises(ValueError, match="tie_check"):
            bench.run_bench(tie_check="never")


class TestBenchOutput:
    """``run_bench.py`` never overwrites a committed ``BENCH_<n>.json``."""

    bench = TestBenchTieSampler.bench

    def test_default_output_is_an_untracked_scratch_name(self, bench):
        assert pathlib.Path(bench.DEFAULT_OUTPUT).name == "BENCH_local.json"
        assert not bench.committed_snapshot(bench.DEFAULT_OUTPUT)

    def test_committed_snapshot_is_refused_before_any_cell_runs(self, bench, monkeypatch, capsys):
        root = pathlib.Path(__file__).parent.parent
        snapshot = root / "BENCH_9.json"
        before = snapshot.read_bytes()

        def no_run(**_kwargs):
            raise AssertionError("a bench ran")

        monkeypatch.setattr(bench, "run_bench", no_run)
        assert bench.committed_snapshot(str(snapshot))
        with pytest.raises(SystemExit) as excinfo:
            bench.main(["--output", str(snapshot)])
        assert excinfo.value.code != 0
        assert "committed" in capsys.readouterr().err
        assert snapshot.read_bytes() == before

    def test_other_names_are_not_snapshots(self, bench, tmp_path):
        assert not bench.committed_snapshot(str(tmp_path / "BENCH_ci.json"))
        assert not bench.committed_snapshot(str(tmp_path / "BENCH_12.json"))


class TestFaultProperties:
    """Hypothesis: random in-budget plans are always fully transparent."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_scattered_plan_recovers(self, seed):
        plan = FaultPlan.scattered(seed=seed, horizon_s=1.0, n_faults=5)
        report = _small_run(faults=plan, rounds=2)
        machine = report.machine
        assert machine.verify() == []
        assert report.total_bytes == 64 * KB * 8 * 2
        stats = report.prefetch
        assert (
            stats.hits + stats.partial_hits + stats.misses
            + stats.failed_fallbacks == stats.demand_reads
        )
        # No leaked prefetch memory on any compute node.
        for node in machine.compute_nodes:
            assert node.memory.used_by("prefetch") == 0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_scattered_plans_always_validate(self, seed):
        plan = FaultPlan.scattered(seed=seed, horizon_s=2.0, n_faults=8, transient_only=False)
        assert len(plan.specs) == 9
        for spec in plan.specs:
            if spec.kind in ("mesh_drop", "mesh_dup"):
                assert spec.windowed and spec.at_s is not None
            if spec.kind in ("rpc_stall", "server_stall", "slow_sector"):
                assert 0 < spec.duration_s < plan.retry.timeout_s
        assert plan.scheduled == plan.by_kind("disk_failure")


# -- the RAID closed form under a fault plan ---------------------------------
#
# An array times an access whole at its arm grant whenever the plan can act
# inside no access to it (``FaultInjector.spares``); any other access takes
# its decisions at a decision pop.  Comparing traced with untraced runs
# shows tracing changes no number; recording each access's form at its
# grant shows which arrays take decision pops.


def _read_cell(size_kb, rounds, faults):
    """A prefetching M_RECORD collective read, as the fault-recovery
    benchmark's read cells run it."""

    def run(tie_break, trace):
        size = size_kb * KB
        report = run_collective(
            request_size=size,
            file_size=scaled_file_size(size, rounds=rounds),
            prefetch=True,
            rounds=rounds,
            faults=faults,
            tie_break=tie_break,
            trace=trace,
            keep_machine=True,
        )
        return report.machine, [report]

    return run


def _write_cell(size_kb, iomode, faults):
    """A 4-round Fast Path collective write, then an M_RECORD read-back,
    as the fault-recovery benchmark's write cells run them."""

    def run(tie_break, trace):
        from repro.config import MachineConfig, PFSConfig
        from repro.machine import Machine
        from repro.workloads import CollectiveReadWorkload, CollectiveWriteWorkload

        size = size_kb * KB
        machine = Machine(MachineConfig(faults=faults, tie_break=tie_break, trace=trace))
        mount = machine.mount("/pfs", PFSConfig(buffered=False))
        machine.create_file(mount, "out", 0)
        writer = CollectiveWriteWorkload(
            machine, mount, "out", request_size=size, rounds=4, iomode=iomode
        )
        reader = CollectiveReadWorkload(
            machine, mount, "out", request_size=size, iomode=IOMode.M_RECORD
        )
        return machine, [writer.run().report, reader.run().report]

    return run


def _rebuild_cell(tie_break, trace):
    """The canonical six-pass re-read under the copy-back rebuild plan."""
    from repro.experiments.common import build_machine, prefetcher_factory
    from repro.workloads import CollectiveReadWorkload

    machine, mount = build_machine(tie_break=tie_break, faults=REBUILD_PLAN, trace=trace)
    machine.create_file(mount, "data", scaled_file_size(64 * KB, rounds=4))
    reports = []
    for _ in range(6):
        workload = CollectiveReadWorkload(
            machine,
            mount,
            "data",
            request_size=64 * KB,
            iomode=IOMode.M_RECORD,
            rounds=4,
            prefetcher_factory=prefetcher_factory(True, machine=machine),
        )
        reports.append(workload.run().report)
    return machine, reports


def _fault_recovery_cells():
    """``(key, run)`` for the fault-recovery benchmark's crash-restart,
    degraded, rebuild and seeded scattered cells, the scattered plans
    drawn as the benchmark draws them for seeds 1 and 3."""
    import random

    crash = FaultPlan.crash_restart(node="node0", windows=((0.03, 0.08), (0.2, 0.25)))
    degraded = FaultPlan.single_disk_failure(array="raid0", at_s=0.0)
    record, unix = IOMode.M_RECORD, IOMode.M_UNIX
    cells = [
        ("crash:read:64kb", _read_cell(64, 4, crash)),
        ("crash:read:128kb", _read_cell(128, 4, crash)),
        ("crash:read:256kb", _read_cell(256, 4, crash)),
        ("crash:write:64kb:M_RECORD", _write_cell(64, record, crash)),
        ("crash:write:64kb:M_UNIX", _write_cell(64, unix, crash)),
        ("crash:write:128kb:M_RECORD", _write_cell(128, record, crash)),
        ("degraded:read:64kb", _read_cell(64, 8, degraded)),
        ("degraded:read:256kb", _read_cell(256, 8, degraded)),
        ("degraded:write:64kb:M_RECORD", _write_cell(64, record, degraded)),
        ("rebuild:canonical", _rebuild_cell),
    ]
    for seed in (1, 3):
        rng = random.Random(seed)
        plans = [
            FaultPlan.scattered(seed=rng.randrange(1 << 30), horizon_s=1.0, n_faults=5)
            for _ in range(5)
        ]
        cells += [
            (f"seed{seed}:scattered:read:64kb", _read_cell(64, 8, plans[0])),
            (f"seed{seed}:scattered:read:128kb", _read_cell(128, 4, plans[1])),
            (f"seed{seed}:scattered:read:256kb", _read_cell(256, 4, plans[2])),
            (f"seed{seed}:scattered:write:64kb:M_RECORD", _write_cell(64, record, plans[3])),
            (f"seed{seed}:scattered:write:64kb:M_UNIX", _write_cell(64, unix, plans[4])),
        ]
    return cells


#: raid1's spindle dies at 5.5 ms, while the first accesses (queued at
#: 5 ms) are in service: those take their decisions at a decision pop,
#: so the failure lands where the decision applies it.
RAID1_FAILS_MID_ACCESS = FaultPlan.single_disk_failure(array="raid1", at_s=0.0055)
#: The fault-recovery cells, plus a read under that failure.
FAULT_RECOVERY_CELLS = _fault_recovery_cells() + [
    ("raid1-fails-at-5.5ms:read:64kb", _read_cell(64, 4, RAID1_FAILS_MID_ACCESS))
]


def _outcome(run, tie_break, trace):
    """Everything a run may not change by stepping: report fingerprints,
    final clock, every monitor counter, the delivery audit log (its
    ``Data`` compared by equality), per-array, per-bus and per-link busy
    seconds, and each compute and I/O node's CPU and co-processor busy
    seconds.

    The audit log is compared sorted by ``(file, offset, nbytes, kind,
    io_node)``: deliveries at one instant are logged in event-pop order,
    which no model rule fixes (fifo and lifo already log
    ``seed1:scattered:read:256kb``'s two demand deliveries at
    1.0273709640625 s in opposite orders)."""
    machine, reports = run(tie_break, trace)
    assert machine.verify() == []
    counters = {
        name: value
        for name, value in machine.monitor.snapshot().items()
        if name.startswith("counter.")
    }
    deliveries = sorted(
        (
            (file_id, offset, nbytes, kind, io_node, data)
            for file_id, offset, nbytes, data, kind, io_node in machine.faults.deliveries
        ),
        key=lambda entry: entry[:5],
    )
    nodes = machine.compute_nodes + machine.io_nodes
    return (
        [report_fingerprint(report) for report in reports],
        machine.env.now,
        counters,
        deliveries,
        [array.busy_s for array in machine.arrays],
        [bus.busy_s for bus in machine.buses],
        machine.mesh.link_busy_s(),
        [(node.cpu.busy_s, node.msgproc.busy_s) for node in nodes],
    )


ARRAYS = {f"raid{i}" for i in range(8)}


class TestClosedFormUnderPlans:
    """An access is timed whole at its arm grant exactly where no spec
    can act inside it; elsewhere it takes its decisions at a decision
    pop.  Tracing changes no number either way."""

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize(
        "run", [pytest.param(run, id=key) for key, run in FAULT_RECOVERY_CELLS]
    )
    def test_fault_recovery_cell_traced_equals_untraced(self, run, tie_break):
        assert _outcome(run, tie_break, False) == _outcome(run, tie_break, True)

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_media_error_steps_only_its_array(self, tie_break, arm_forms):
        plan = FaultPlan(specs=(FaultSpec(kind="media_error", target="raid0", after_n=1),))
        report = _small_run(faults=plan, tie_break=tie_break)
        assert report.machine.verify() == []
        assert report.machine.faults.fired("media_error") == 1
        assert {name for form, name, _p, _d in arm_forms if form == "decided"} == {"raid0"}
        assert {name for form, name, _p, _d in arm_forms if form == "closed"} == ARRAYS - {"raid0"}

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_wildcard_spec_steps_every_array(self, tie_break, arm_forms):
        plan = FaultPlan(
            specs=(FaultSpec(kind="slow_sector", target="*", after_n=3, duration_s=0.001),)
        )
        report = _small_run(faults=plan, tie_break=tie_break)
        assert report.machine.verify() == []
        assert report.machine.faults.fired("slow_sector") == 1
        assert {name for form, name, _p, _d in arm_forms if form == "decided"} == ARRAYS
        assert not [entry for entry in arm_forms if entry[0] == "closed"]

    @staticmethod
    def _check_scheduled(arm_forms, failed, closed_arrays):
        decided = [entry[1:] for entry in arm_forms if entry[0] == "decided"]
        closed = [entry[1:] for entry in arm_forms if entry[0] == "closed"]
        # Every array's accesses take a decision pop while a scheduled
        # spec is pending ...
        assert {name for name, pending, _down in decided if pending} == ARRAYS
        # ... then only the failed array's, and only while it is down ...
        after = {(name, down) for name, pending, down in decided if not pending}
        assert after == {(failed, True)}
        # ... and everything else is timed whole at its grant.
        assert {name for name, _pending, _down in closed} == closed_arrays
        assert not any(pending or down for _name, pending, down in closed)

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_pending_failure_steps_every_array_until_applied(self, tie_break, arm_forms):
        report = _small_run(faults=RAID1_FAILS_MID_ACCESS, tie_break=tie_break)
        assert report.machine.verify() == []
        self._check_scheduled(arm_forms, "raid1", ARRAYS - {"raid1"})

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_rebuilt_array_returns_to_closed_form(self, tie_break, arm_forms):
        machine, _reports = _rebuild_cell(tie_break, False)
        assert machine.verify() == []
        assert machine.arrays[0].rebuilds_completed == 1
        self._check_scheduled(arm_forms, "raid0", ARRAYS)
        # The re-reads after the rebuild completes are timed at the grant.
        assert ("closed", "raid0", False, False) in arm_forms


def _bench_read(size_kb, iomode=IOMode.M_RECORD, prefetch=False, delay_s=0.0,
                async_partition=True, policy="one-ahead", depth=1):
    """A collective read cell, built as ``perfbench/cells.py:read_cell``
    builds it, at 4 rounds."""

    def run(tie_break, trace):
        request = size_kb * KB
        machine, mount = build_machine(
            tie_break=tie_break, trace=trace, prefetch_policy=policy, prefetch_depth=depth
        )
        machine.create_file(mount, "data", scaled_file_size(request, rounds=4))
        workload = CollectiveReadWorkload(
            machine,
            mount,
            "data",
            request_size=request,
            compute_delay=delay_s,
            iomode=iomode,
            rounds=4,
            prefetcher_factory=prefetcher_factory(prefetch, machine=machine),
            async_partition=async_partition,
        )
        return machine, mount, [workload.run().report], ()

    return run


def _bench_separate_files(size_kb):
    """``perfbench/cells.py:separate_files_cell``, at 4 rounds."""

    def run(tie_break, trace):
        request = size_kb * KB
        machine, mount = build_machine(tie_break=tie_break, trace=trace)
        for rank in range(machine.config.n_compute):
            machine.create_file(mount, f"data{rank}", request * 4, rotate=True)
        workload = SeparateFilesWorkload(
            machine,
            mount,
            "data",
            request_size=request,
            prefetcher_factory=prefetcher_factory(False, machine=machine),
        )
        return machine, mount, [workload.run().report], ()

    return run


def _bench_strided(size_kb, delay_s):
    """``perfbench/cells.py:strided_cell``, at 4 rounds."""

    def run(tie_break, trace):
        request = size_kb * KB
        stride = 3 * request
        machine, mount = build_machine(
            tie_break=tie_break, trace=trace, prefetch_policy="depth-k", prefetch_depth=4
        )
        machine.create_file(mount, "data", stride * machine.config.n_compute * 4)
        workload = StridedReadWorkload(
            machine,
            mount,
            "data",
            request_size=request,
            stride=stride,
            compute_delay=delay_s,
            rounds=4,
            prefetcher_factory=prefetcher_factory(True, machine=machine),
        )
        return machine, mount, [workload.run().report], ()

    return run


def _bench_write(size_kb, iomode, buffered, write_back):
    """``perfbench/cells.py:write_cell``, at 4 rounds: a collective write,
    then an M_RECORD read-back."""

    def run(tie_break, trace):
        from repro.config import MachineConfig, PFSConfig
        from repro.machine import Machine

        request = size_kb * KB
        config = MachineConfig(write_back=write_back, tie_break=tie_break, trace=trace)
        machine = Machine(config)
        mount = machine.mount("/pfs", PFSConfig(buffered=buffered))
        machine.create_file(mount, "out", 0)
        writer = CollectiveWriteWorkload(
            machine, mount, "out", request_size=request, rounds=4, iomode=iomode
        )
        reader = CollectiveReadWorkload(
            machine, mount, "out", request_size=request, iomode=IOMode.M_RECORD
        )
        return machine, mount, [writer.run().report, reader.run().report], ("out",)

    return run


def _bench_cells():
    """``(key, run)`` for every fixed cell of perfbench's paper-read and
    write-mix workloads, in ``perfbench/cells.py``'s order."""
    from repro.experiments.common import DEFAULT_REQUEST_SIZES_KB

    modes = (IOMode.M_UNIX, IOMode.M_LOG, IOMode.M_SYNC, IOMode.M_RECORD, IOMode.M_ASYNC)
    cells = []
    for size in DEFAULT_REQUEST_SIZES_KB:
        for prefetch in (False, True):
            key = f"table1:{size}kb:prefetch={prefetch}"
            cells.append((key, _bench_read(size, prefetch=prefetch)))
        for mode in modes:
            cells.append(
                (f"figure2:{size}kb:{mode.name}", _bench_read(size, mode, async_partition=False))
            )
        cells.append((f"figure2:{size}kb:SEPARATE_FILES", _bench_separate_files(size)))
    for size, delay in ((64, 0.05), (256, 0.05), (256, 0.1)):
        cells.append(
            (f"balanced:{size}kb:delay={delay}", _bench_read(size, prefetch=True, delay_s=delay))
        )
    cells.append(("strided:64kb:depth-k", _bench_strided(64, 0.0)))
    cells.append(
        (
            "deep-seq:64kb:depth-k",
            _bench_read(64, IOMode.M_ASYNC, prefetch=True, policy="depth-k", depth=4),
        )
    )
    caching = (
        ("fastpath", False, False),
        ("write-through", True, False),
        ("write-back", True, True),
    )
    shapes = (
        (64, IOMode.M_RECORD),
        (64, IOMode.M_UNIX),
        (128, IOMode.M_RECORD),
        (256, IOMode.M_RECORD),
        (256, IOMode.M_UNIX),
    )
    for size, mode in shapes:
        for name, buffered, write_back in caching:
            key = f"write:{size}kb:{mode.name}:{name}"
            cells.append((key, _bench_write(size, mode, buffered, write_back)))
    return cells


def _bench_outcome(run, tie_break, trace):
    """Everything tracing may not change in a fault-free cell: report
    fingerprints, the digest of each written file's stored content, the
    final clock, every monitor counter, and the busy seconds of every
    array, bus, mesh link, and node CPU and co-processor."""
    machine, mount, reports, stored = run(tie_break, trace)
    digests = []
    for name in stored:
        pfs_file = mount.lookup(name)
        digest = hashlib.sha256()
        for io_index in pfs_file.attrs.stripe_group:
            ufs = machine.ufses[io_index]
            size = ufs.inode(pfs_file.file_id).size_bytes
            digest.update(ufs.content(pfs_file.file_id, 0, size).to_bytes())
        digests.append(digest.hexdigest())
    counters = {
        name: value
        for name, value in machine.monitor.snapshot().items()
        if name.startswith("counter.")
    }
    nodes = machine.compute_nodes + machine.io_nodes
    return (
        [report_fingerprint(report) for report in reports],
        digests,
        machine.env.now,
        counters,
        [array.busy_s for array in machine.arrays],
        [bus.busy_s for bus in machine.buses],
        machine.mesh.link_busy_s(),
        [(node.cpu.busy_s, node.msgproc.busy_s) for node in nodes],
    )


BENCH_CELLS = _bench_cells()


class TestTracedBenchCells:
    """The fault-free side of the reference: every paper-read and
    write-mix benchmark cell gives the same numbers traced and untraced,
    so tracing only records spans."""

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize("run", [pytest.param(run, id=key) for key, run in BENCH_CELLS])
    def test_bench_cell_traced_equals_untraced(self, run, tie_break):
        assert _bench_outcome(run, tie_break, False) == _bench_outcome(run, tie_break, True)

    def test_covers_every_fixed_cell(self):
        assert len(BENCH_CELLS) == len({key for key, _run in BENCH_CELLS}) == 60


class TestCallbackRPCUnderPlans:
    """Under a plan, retried calls, stripe pieces and Fast Path serves
    run with no process, traced or not, on spared and unspared arrays
    alike."""

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize(
        "cell", ["crash:read:256kb", "degraded:read:256kb", "degraded:write:64kb:M_RECORD"]
    )
    def test_crash_cell_starts_no_piece_or_fast_path_serve_process(
        self, cell, tie_break, monkeypatch
    ):
        from repro.paragonos.messages import ReadRequest, WriteRequest
        from repro.paragonos.rpc import RPCEndpoint, _RetriedCall
        from repro.sim.process import Process

        names = []
        fast_path_serves = []
        retried = [0]
        init = Process.__init__
        serve = RPCEndpoint._serve
        retried_init = _RetriedCall.__init__

        def recording_init(self, env, generator, name=None, order_key=None):
            names.append(name or "")
            return init(self, env, generator, name=name, order_key=order_key)

        def recording_serve(self, envelope):
            request = envelope.request
            if isinstance(request, (ReadRequest, WriteRequest)) and request.fastpath:
                fast_path_serves.append(request)
            return serve(self, envelope)

        def counting_call(self, *args):
            retried[0] += 1
            return retried_init(self, *args)

        monkeypatch.setattr(Process, "__init__", recording_init)
        monkeypatch.setattr(RPCEndpoint, "_serve", recording_serve)
        monkeypatch.setattr(_RetriedCall, "__init__", counting_call)
        run = dict(FAULT_RECOVERY_CELLS)[cell]
        counts = {}
        for trace in (False, True):
            names.clear()
            fast_path_serves.clear()
            retried[0] = 0
            machine, _reports = run(tie_break, trace)
            assert machine.verify() == []
            # No array access runs in a process either, on a spared
            # array (a compute-node crash plan spares every array) or a
            # failed one.
            if cell.startswith("crash"):
                assert all(machine.faults.spares(array.name) for array in machine.arrays)
            else:
                assert machine.arrays[0].degraded
            assert [name for name in names if "raid" in name] == []
            pieces = sum("piece" in name for name in names)
            counts[trace] = (pieces, len(fast_path_serves), retried[0])
            assert counts[trace][:2] == (0, 0) and counts[trace][2] > 0
        # The same retried calls, traced or not.
        assert counts[True][2] == counts[False][2]


def _traced_read(size_kb, prefetch, **kwargs):
    return lambda tie_break: _bench3_cell(
        size_kb, prefetch, tie_break=tie_break, trace=True, keep_machine=True, **kwargs
    ).machine


def _traced_figure2_unix(tie_break):
    return run_collective(
        request_size=64 * KB,
        file_size=scaled_file_size(64 * KB, rounds=4),
        iomode=IOMode.M_UNIX,
        rounds=4,
        async_partition=False,
        tie_break=tie_break,
        trace=True,
        keep_machine=True,
    ).machine


def _traced_separate_files(tie_break):
    """``run_separate_files``'s 64 KB golden cell, traced."""
    machine, mount = build_machine(tie_break=tie_break, trace=True)
    for rank in range(8):
        machine.create_file(mount, f"data{rank}", 64 * KB * 4, rotate=True)
    SeparateFilesWorkload(machine, mount, "data", request_size=64 * KB).run()
    return machine


def _traced_write(caching, **kwargs):
    return lambda tie_break: _write_run(caching, tie_break, traced=True, **kwargs)[0]


def _traced_fault(run):
    return lambda tie_break: run(tie_break, True)[0]


#: The cells of ``tests/golden/trace_spans.json``: cell key ->
#: ``run(tie_break)`` returning the traced machine.
SPAN_GOLDEN_CELLS = {
    "table1:64kb:prefetch=False": _traced_read(64, False),
    "table1:64kb:prefetch=True": _traced_read(64, True),
    "table1:256kb:prefetch=False": _traced_read(256, False),
    "table1:256kb:prefetch=True": _traced_read(256, True),
    "figure2:64kb:M_UNIX": _traced_figure2_unix,
    "figure2:64kb:SEPARATE_FILES": _traced_separate_files,
    "multi-stripe:read:64kb:stripe=16kb": _traced_read(64, True, stripe_unit=16 * KB),
    "multi-stripe:read:256kb:stripe=64kb": _traced_read(256, True, stripe_unit=64 * KB),
    "multi-stripe:write:fastpath": _traced_write("fastpath"),
    "multi-stripe:write:write-through": _traced_write("write-through"),
    "multi-stripe:write:write-back": _traced_write("write-back"),
    "buffered:read:server-readahead": lambda tie_break: _server_readahead_run(tie_break, True)[0],
    "buffered:write:write-through:24kb": _traced_write("write-through", request=24 * KB),
}
SPAN_GOLDEN_CELLS.update((f"fault:{key}", _traced_fault(run)) for key, run in FAULT_RECOVERY_CELLS)


class TestTraceSpanGoldens:
    """Traced runs open the spans frozen in ``tests/golden/trace_spans.json``."""

    @pytest.fixture(scope="class")
    def golden(self):
        return span_golden.load()

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize("key", list(SPAN_GOLDEN_CELLS))
    def test_span_list_matches_golden(self, golden, key, tie_break):
        tracer = SPAN_GOLDEN_CELLS[key](tie_break).obs.tracer
        entry, rows = span_golden.summary(tracer)
        report = span_golden.mismatch(entry, rows, golden[key][tie_break])
        if report is not None:
            pytest.fail(f"{key} [{tie_break}]: {report}")

    def test_art_request_ids_do_not_depend_on_earlier_runs(self):
        """Each ART pool numbers its own requests, so two traced runs of
        one cell in one process give their ART spans the same ids."""
        run = SPAN_GOLDEN_CELLS["table1:64kb:prefetch=True"]
        ids = []
        for tie_break in ("fifo", "fifo"):
            spans = run(tie_break).obs.tracer.spans
            ids.append([s.attrs["request_id"] for s in spans if s.kind.startswith("art_")])
        assert ids[0] and ids[0] == ids[1]

    def test_docs_table_names_every_span_kind(self, golden):
        """Every span kind a golden cell opens has a row in the span table
        of docs/observability.md."""
        docs = pathlib.Path(__file__).parent.parent / "docs" / "observability.md"
        documented = set(re.findall(r"^\| `([a-z_]+)` +\|", docs.read_text(), re.M))
        opened = set()
        for cell in golden.values():
            for entry in cell.values():
                opened.update(entry["kinds"])
        assert opened - documented == set()
