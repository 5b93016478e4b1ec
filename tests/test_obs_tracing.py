"""End-to-end tests for the request-tracing subsystem (repro.obs).

Covers the PR's acceptance criteria:

- every ``disk_service`` span is causally linked (via parent ids) to
  the ``client_call`` or ``prefetch_issue`` that caused it;
- prefetch-caused spans are distinguishable from demand-caused ones;
- tracing disabled (the default) leaves run results bit-identical --
  instrumentation never schedules simulation events;
- the Chrome trace_event export round-trips through ``json.loads`` and
  carries one pid per node;
- the per-layer breakdown sums (exactly -- it is a partition, not an
  estimate) to the measured read-call time.
"""

import json

from repro.config import PFSConfig
from repro.core import DepthKAhead, Prefetcher
from repro.experiments.common import run_collective
from repro.obs import NOOP_SPAN, Tracer, chrome_trace_events, latency_breakdown
from repro.pfs import IOMode

KB = 1024


def collective_read(machine, prefetch=False, rounds=4, request_size=64 * KB):
    """Every compute node reads *rounds* requests from one striped file."""
    nprocs = len(machine.clients)
    mount = machine.mount("/pfs", PFSConfig())
    machine.create_file(mount, "data", request_size * nprocs * rounds)
    handles = [None] * nprocs

    def opener(rank):
        pf = Prefetcher(DepthKAhead()) if prefetch else None
        handles[rank] = yield from machine.clients[rank].open(
            mount,
            "data",
            IOMode.M_RECORD,
            rank=rank,
            nprocs=nprocs,
            prefetcher=pf,
        )

    for rank in range(nprocs):
        machine.spawn(opener(rank))
    machine.run()

    def reader(handle):
        for _ in range(rounds):
            yield from handle.read(request_size)

    for handle in handles:
        machine.spawn(reader(handle))
    machine.run()
    return handles


class TestCausality:
    def test_every_disk_span_has_a_client_or_prefetch_ancestor(self, traced_machine):
        collective_read(traced_machine, prefetch=True)
        tracer = traced_machine.obs.tracer
        disk_spans = tracer.by_kind("disk_service")
        assert disk_spans, "a collective read must hit the disks"
        for span in disk_spans:
            kinds = {a.kind for a in tracer.ancestors(span)}
            assert kinds & {"client_call", "prefetch_issue"}, (
                f"orphaned disk access: {span!r} ancestors={kinds}"
            )

    def test_prefetch_issue_is_rooted_in_the_triggering_read(self, traced_machine):
        collective_read(traced_machine, prefetch=True)
        tracer = traced_machine.obs.tracer
        issues = tracer.by_kind("prefetch_issue")
        assert issues, "prefetching was on; issues must be recorded"
        for span in issues:
            kinds = {a.kind for a in tracer.ancestors(span)}
            assert "client_call" in kinds

    def test_prefetch_and_demand_disk_spans_are_distinct(self, traced_machine):
        collective_read(traced_machine, prefetch=True)
        tracer = traced_machine.obs.tracer
        prefetch_caused = demand_caused = 0
        for span in tracer.by_kind("disk_service"):
            kinds = {a.kind for a in tracer.ancestors(span)}
            if "prefetch_issue" in kinds:
                prefetch_caused += 1
            else:
                demand_caused += 1
        assert prefetch_caused > 0
        assert demand_caused > 0

    def test_stripe_pieces_carry_the_cause(self, traced_machine):
        collective_read(traced_machine, prefetch=True)
        causes = {s.attrs.get("cause") for s in traced_machine.obs.tracer.by_kind("stripe_piece")}
        assert causes == {"demand", "prefetch"}

    def test_each_read_call_is_its_own_trace(self, traced_machine):
        handles = collective_read(traced_machine, prefetch=False, rounds=3)
        roots = traced_machine.obs.tracer.by_kind("client_call")
        assert len(roots) == 3 * len(handles)
        assert len({s.trace_id for s in roots}) == len(roots)


class TestDeterminism:
    def test_tracing_is_off_by_default(self, machine):
        collective_read(machine)
        assert len(machine.obs.tracer) == 0

    def test_disabled_tracer_returns_the_shared_noop_span(self):
        tracer = Tracer(env=None, enabled=False)
        span = tracer.begin("client_call", node_id=0)
        assert span is NOOP_SPAN
        assert span.ctx is None
        tracer.end(span)  # must not record anything
        assert len(tracer) == 0

    def test_untraced_run_opens_no_span(self, monkeypatch):
        """Untraced, no layer calls the tracer to open a span or to end
        one with attributes: prefetching reads under a crash plan with
        stalled serves (RPC retries, the ART), buffered M_UNIX reads and writes (pointer
        coordination, buffered serves) and Fast Path writes."""
        from repro.config import MachineConfig
        from repro.experiments.common import scaled_file_size
        from repro.faults import FaultPlan, FaultSpec
        from repro.machine import Machine
        from repro.workloads import CollectiveReadWorkload, CollectiveWriteWorkload

        calls = []
        begin, end = Tracer.begin, Tracer.end

        def counting_begin(self, kind, *args, **kwargs):
            calls.append(("begin", kind))
            return begin(self, kind, *args, **kwargs)

        def counting_end(self, span, **attrs):
            if attrs:
                calls.append(("end", tuple(attrs)))
            return end(self, span, **attrs)

        monkeypatch.setattr(Tracer, "begin", counting_begin)
        monkeypatch.setattr(Tracer, "end", counting_end)
        crash = FaultPlan.crash_restart(node="node0", windows=((0.03, 0.08),))
        stall = FaultSpec("rpc_stall", target="*", after_n=3, count=2, duration_s=2.0)
        report = run_collective(
            request_size=64 * KB,
            file_size=scaled_file_size(64 * KB, rounds=4),
            prefetch=True,
            rounds=4,
            faults=FaultPlan(specs=crash.specs + (stall,)),
            keep_machine=True,
        )
        assert report.machine.obs.counter_value("rpc.retries") > 0
        for buffered in (True, False):
            machine = Machine(MachineConfig(n_compute=2, n_io=2))
            mount = machine.mount("/pfs", PFSConfig(buffered=buffered))
            machine.create_file(mount, "out", 0)
            CollectiveWriteWorkload(
                machine, mount, "out", request_size=64 * KB, rounds=2, iomode=IOMode.M_UNIX
            ).run()
            CollectiveReadWorkload(
                machine, mount, "out", request_size=64 * KB, iomode=IOMode.M_UNIX
            ).run()
        assert calls == []

    def test_traced_and_untraced_reports_are_identical(self, prefetch_enabled):
        kwargs = dict(
            request_size=64 * KB,
            file_size=64 * KB * 2 * 4,
            n_compute=2,
            n_io=2,
            prefetch=prefetch_enabled,
        )
        baseline = run_collective(**kwargs)
        traced = run_collective(trace=True, **kwargs)
        assert traced.breakdown is not None
        assert baseline.breakdown is None
        # Dataclass equality: every measured field must match exactly
        # (the breakdown field is excluded from comparison by design).
        assert baseline == traced
        assert baseline.read_call_time_by_rank == traced.read_call_time_by_rank


class TestChromeExport:
    def test_json_round_trips(self, traced_machine):
        collective_read(traced_machine)
        doc = json.loads(traced_machine.obs.chrome_trace())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["traceEvents"]

    def test_one_pid_per_node(self, traced_machine):
        collective_read(traced_machine)
        events = chrome_trace_events(traced_machine.obs.tracer)
        pids = {e["pid"] for e in events if e.get("ph") == "X" and e["pid"] >= 0}
        # 4 compute + 4 I/O nodes all show up as distinct tracks.
        assert len(pids) == 8
        named = {e["pid"] for e in events if e.get("name") == "process_name"}
        assert pids <= named

    def test_complete_events_are_well_formed(self, traced_machine):
        collective_read(traced_machine)
        for event in chrome_trace_events(traced_machine.obs.tracer):
            if event.get("ph") != "X":
                continue
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert "span_id" in event["args"]


class TestBreakdown:
    def test_breakdown_partitions_the_read_call_time(self, traced_machine):
        handles = collective_read(traced_machine, prefetch=True)
        breakdown = traced_machine.obs.breakdown()
        measured = sum(h.stats.read_call_time for h in handles)
        assert abs(sum(breakdown.values()) - measured) < 1e-9
        assert breakdown.get("disk_service", 0.0) > 0.0

    def test_per_rank_breakdown_matches_that_rank(self, traced_machine):
        handles = collective_read(traced_machine)
        for handle in handles:
            breakdown = traced_machine.obs.breakdown(rank=handle.rank)
            assert (abs(sum(breakdown.values()) - handle.stats.read_call_time) < 1e-9)

    def test_rendered_table_and_critical_path_report(self, traced_machine):
        collective_read(traced_machine)
        table = traced_machine.obs.breakdown_table()
        assert "total" in table and "100.0%" in table
        report = traced_machine.obs.critical_path()
        assert "client_call" in report

    def test_latency_breakdown_ignores_foreign_roots(self, traced_machine):
        collective_read(traced_machine)
        empty = latency_breakdown(traced_machine.obs.tracer, rank=999)
        assert sum(empty.values()) == 0.0
