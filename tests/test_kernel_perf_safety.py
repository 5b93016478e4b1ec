"""Safety net for the kernel fast paths.

The fast-kernel refactor (merged grants, RAID accesses timed at the
arm grant, callback serves, event elision) is only legal if it is
*unobservable*: every report must stay bit-identical to the stepped
implementation it replaced, under either same-timestamp tie-break.
Each layer now has one form, traced or not, and a traced run must
measure the same numbers as an untraced one.  This module pins each
of those contracts:

- the bench3 and copy-back-rebuild golden fingerprints re-verified
  under *both* tie-breaks (the goldens were captured before any fast
  path existed, so matching them proves the refactor changed nothing),
  and one Figure 2 cell per I/O mode plus the Separate Files cell;
- a mid-window fault spec splitting what the fast path would have
  batched must remain tie-order deterministic;
- traced vs. untraced runs produce identical report fingerprints, also
  on multi-piece reads and writes, on Fast Path serves (unaligned,
  uncoalesced, read-modify-write, past the end of the file) and on
  buffered reads with server readahead and unaligned write-through
  writes, and a traced run starts no RAID process;
- an access that ``inject_failures`` reaches while it is queued pops at
  its decision instant and fails the application's call with the
  array's error;
- the exact event count and generator resumes of one paper cell, one
  crash-restart cell and a buffered write-through and write-back cell,
  the heap pops of the paper cell, the processes the crash-restart and
  buffered cells spawn, and the synthetic bytes the crash-restart cell
  materialises and the RAID decision pops it takes (none of either),
  so a change in kernel work is re-pinned on purpose.
"""

import hashlib
import heapq
import json
import pathlib

import pytest

from repro.analysis.sanitizers import report_fingerprint
from repro.config import MachineConfig, PFSConfig
from repro.experiments.common import (
    KB,
    run_collective,
    run_multipass,
    run_separate_files,
    scaled_file_size,
)
from repro.faults import FaultPlan, FaultSpec
from repro.machine import Machine
from repro.paragonos.rpc import RPCError
from repro.pfs import IOMode
from repro.sim import environment
from repro.sim.events import Timeout
from repro.sim.process import Process
from repro.sim.resources import Hold
from repro.workloads import CollectiveReadWorkload, CollectiveWriteWorkload

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: The canonical rebuild scenario pinned by the rebuild golden: spindle
#: 0 of raid0 dies at t=0, its replacement arrives at t=0.01 and is
#: copied back at half rate.  The repair window opens *mid-run*, so a
#: sequential read stream that the fast path would schedule as one
#: batch is split by the rebuild traffic -- the definitive fallback
#: test.
REBUILD_PLAN = FaultPlan(
    specs=(
        FaultSpec(kind="disk_failure", target="raid0", at_s=0.0, disk_index=0),
        FaultSpec(kind="disk_repair", target="raid0", at_s=0.01, disk_index=0, rebuild_rate=0.5),
    ),
)

#: perfbench's crash-restart windows: compute node 0 is down twice while
#: the prefetching readers run, so calls retry and replies are replayed.
CRASH_PLAN = FaultPlan.crash_restart(node="node0", windows=((0.03, 0.08), (0.2, 0.25)))


def _bench3_cell(size_kb: int, prefetch: bool, tie_break: str = "fifo", **kwargs):
    return run_collective(
        request_size=size_kb * KB,
        file_size=scaled_file_size(size_kb * KB, rounds=4),
        iomode=IOMode.M_RECORD,
        prefetch=prefetch,
        rounds=4,
        tie_break=tie_break,
        **kwargs,
    )


def _write_run(caching: str, tie_break: str, traced: bool, request: int = 256 * KB):
    """A collective write (four stripe pieces per call at the default
    256 KB) and its read-back: ``(machine, written report, read report,
    file)``."""
    config = MachineConfig(write_back=caching == "write-back", tie_break=tie_break, trace=traced)
    machine = Machine(config)
    mount = machine.mount("/pfs", PFSConfig(buffered=caching != "fastpath"))
    pfs_file = machine.create_file(mount, "out", 0)
    writer = CollectiveWriteWorkload(
        machine, mount, "out", request_size=request, rounds=2, iomode=IOMode.M_RECORD
    )
    written = writer.run().report
    reader = CollectiveReadWorkload(
        machine, mount, "out", request_size=request, iomode=IOMode.M_RECORD
    )
    return machine, written, reader.run().report, pfs_file


def _write_cell(caching: str, tie_break: str, traced: bool, request: int = 256 * KB):
    """:func:`_write_run`'s report fingerprints, stored content digest,
    final clock and every monitor counter."""
    machine, written, read, pfs_file = _write_run(caching, tie_break, traced, request)
    digest = hashlib.sha256()
    for io_index in pfs_file.attrs.stripe_group:
        ufs = machine.ufses[io_index]
        size = ufs.inode(pfs_file.file_id).size_bytes
        digest.update(ufs.content(pfs_file.file_id, 0, size).to_bytes())
    return (
        report_fingerprint(written),
        report_fingerprint(read),
        digest.hexdigest(),
        machine.env.now,
        machine.obs.snapshot(),
    )


def _read_cell(tie_break: str, traced: bool, request: int, stripe_unit: int, coalesce: bool):
    """A prefetching collective read on a machine built directly (for
    knobs ``run_collective`` does not take): report fingerprint, final
    clock and every monitor counter."""
    config = MachineConfig(ufs_coalesce=coalesce, tie_break=tie_break, trace=traced)
    machine = Machine(config)
    mount = machine.mount("/pfs", PFSConfig(stripe_unit=stripe_unit))
    machine.create_file(mount, "data", scaled_file_size(request, rounds=4))
    report = CollectiveReadWorkload(
        machine, mount, "data", request_size=request, iomode=IOMode.M_RECORD
    ).run().report
    return report_fingerprint(report), machine.env.now, machine.obs.snapshot()


def _server_readahead_run(tie_break: str, traced: bool):
    """A buffered collective read with server readahead of two blocks:
    demand misses fill the I/O-node caches, and each read starts a
    readahead process that pulls the next blocks in.  Returns the
    machine and the report."""
    config = MachineConfig(server_readahead_blocks=2, tie_break=tie_break, trace=traced)
    machine = Machine(config)
    mount = machine.mount("/pfs", PFSConfig(buffered=True))
    machine.create_file(mount, "data", scaled_file_size(64 * KB, rounds=4))
    report = CollectiveReadWorkload(
        machine, mount, "data", request_size=64 * KB, iomode=IOMode.M_RECORD
    ).run().report
    return machine, report


def _server_readahead_cell(tie_break: str, traced: bool):
    """:func:`_server_readahead_run`'s report fingerprint, final clock
    and every monitor counter."""
    machine, report = _server_readahead_run(tie_break, traced)
    return report_fingerprint(report), machine.env.now, machine.obs.snapshot()


def _total(counters, suffix: str, prefix: str = "counter.") -> float:
    """Sum of the snapshot counters named ``<prefix>...<suffix>``."""
    return sum(counters[k] for k in sorted(counters) if k.startswith(prefix) and k.endswith(suffix))


def _read_past_eof_run(tie_break: str, traced: bool):
    """A Fast Path read running 32 KB past the end of a one-stripe file:
    the server's UFS rejects it, and the caller catches the RPCError.
    Returns the machine and the ``(time, message)`` of each error caught."""
    machine = Machine(MachineConfig(n_compute=2, n_io=2, tie_break=tie_break, trace=traced))
    mount = machine.mount("/pfs", PFSConfig(stripe_factor=1))
    size = 4 * 64 * KB
    pfs_file = machine.create_file(mount, "data", size)
    seen = []

    def proc():
        try:
            yield from machine.clients[0].transfer_read(pfs_file, size - 32 * KB, 64 * KB, "demand")
        except RPCError as exc:
            seen.append((machine.env.now, str(exc)))

    machine.spawn(proc())
    machine.run()
    return machine, seen


def _read_past_eof(tie_break: str, traced: bool):
    """:func:`_read_past_eof_run`'s errors, final clock and every
    monitor counter."""
    machine, seen = _read_past_eof_run(tie_break, traced)
    return seen, machine.env.now, machine.obs.snapshot()


class TestGoldensUnderBothTieBreaks:
    """Fast paths reproduce the pre-refactor goldens, fifo and lifo."""

    @pytest.fixture(scope="class")
    def bench3_golden(self):
        with open(GOLDEN_DIR / "bench3_fingerprints.json") as fh:
            return json.load(fh)["cells"]

    @pytest.fixture(scope="class")
    def rebuild_golden(self):
        with open(GOLDEN_DIR / "rebuild_fingerprint.json") as fh:
            return json.load(fh)

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    @pytest.mark.parametrize("size_kb,prefetch", [(64, False), (64, True), (256, True)])
    def test_bench3_cells(self, bench3_golden, size_kb, prefetch, tie_break):
        report = _bench3_cell(size_kb, prefetch, tie_break=tie_break)
        key = f"table1:{size_kb}kb:prefetch={prefetch}"
        assert report_fingerprint(report) == bench3_golden[key]

    @pytest.fixture(scope="class")
    def figure2_golden(self):
        with open(GOLDEN_DIR / "figure2_fingerprints.json") as fh:
            return json.load(fh)["cells"]

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_separate_files_cell(self, bench3_golden, figure2_golden, tie_break):
        report = run_separate_files(
            request_size=64 * KB,
            file_size_per_node=64 * KB * 4,
            tie_break=tie_break,
        )
        key = "figure2:64kb:SEPARATE_FILES"
        assert report_fingerprint(report) == bench3_golden[key] == figure2_golden[key]

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    @pytest.mark.parametrize("mode", ["M_UNIX", "M_LOG", "M_SYNC", "M_RECORD", "M_ASYNC"])
    def test_figure2_mode_cells(self, figure2_golden, mode, tie_break):
        """One Figure 2 cell per I/O mode, as ``run_figure2`` builds it."""
        report = run_collective(
            request_size=64 * KB,
            file_size=scaled_file_size(64 * KB, rounds=4),
            iomode=IOMode[mode],
            rounds=4,
            async_partition=False,
            tie_break=tie_break,
        )
        assert report_fingerprint(report) == figure2_golden[f"figure2:64kb:{mode}"]

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_rebuild_golden_mid_window_split(self, rebuild_golden, tie_break):
        """A fault window opening mid-run: the rebuild traffic splits the
        read stream, and raid0's accesses take decision pops while it is
        down; the run still matches the golden capture under both
        tie-breaks.
        """
        report = run_multipass(
            64 * KB,
            scaled_file_size(64 * KB, rounds=4),
            passes=6,
            rounds=4,
            faults=REBUILD_PLAN,
            tie_break=tie_break,
        )
        assert report_fingerprint(report) == rebuild_golden["fingerprint"]


class TestSteppedPathInvariance:
    """A traced run takes the same forms as an untraced one, so it
    measures the same numbers."""

    @pytest.mark.parametrize("prefetch", [False, True])
    def test_fingerprint_identical_when_traced(self, prefetch):
        plain = _bench3_cell(64, prefetch)
        traced = _bench3_cell(64, prefetch, trace=True)
        assert report_fingerprint(plain) == report_fingerprint(traced)

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    @pytest.mark.parametrize("size_kb,stripe_kb", [(64, 16), (256, 64)])
    def test_multi_stripe_read(self, size_kb, stripe_kb, tie_break):
        """Multi-piece reads: the stripe pieces, Fast Path serves and arm
        services are callback chains traced or not."""
        kwargs = dict(stripe_unit=stripe_kb * KB, tie_break=tie_break)
        plain = _bench3_cell(size_kb, True, **kwargs)
        traced = _bench3_cell(size_kb, True, trace=True, **kwargs)
        assert report_fingerprint(plain) == report_fingerprint(traced)

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    @pytest.mark.parametrize("caching", ["fastpath", "write-through", "write-back"])
    def test_multi_stripe_write(self, caching, tie_break):
        """Multi-piece writes and their read-back, under each caching mode,
        traced against untraced."""
        plain = _write_cell(caching, tie_break, traced=False)
        traced = _write_cell(caching, tie_break, traced=True)
        assert plain == traced

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_buffered_read_server_readahead(self, tie_break):
        """Buffered reads with server readahead: the demand cache fills
        and the readahead processes' fetches, traced against untraced."""
        plain = _server_readahead_cell(tie_break, traced=False)
        traced = _server_readahead_cell(tie_break, traced=True)
        assert plain == traced
        assert _total(plain[2], ".readahead_blocks") > 0

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_write_through_read_modify_write(self, tie_break):
        """Unaligned write-through writes: edge blocks are read, merged
        and written back on the buffered path, traced against untraced."""
        plain = _write_cell("write-through", tie_break, traced=False, request=24 * KB)
        traced = _write_cell("write-through", tie_break, traced=True, request=24 * KB)
        assert plain == traced
        counters = plain[4]
        # More array reads than cache misses: the edge-block reads of the
        # read-modify-writes reach the arrays too.
        raid_reads = _total(counters, ".reads", prefix="counter.raid")
        assert raid_reads > _total(counters, ".misses", prefix="counter.bcache")

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    @pytest.mark.parametrize(
        "request_kb,stripe_kb,coalesce",
        [(24, 64, True), (40, 16, True), (256, 256, False), (96, 128, False)],
    )
    def test_fastpath_read_serve(self, request_kb, stripe_kb, coalesce, tie_break):
        """Fast Path reads, traced against untraced: unaligned ranges pay
        the partial-block copy, and uncoalesced ranges chain several RAID
        accesses per request."""
        args = (request_kb * KB, stripe_kb * KB, coalesce)
        plain = _read_cell(tie_break, False, *args)
        traced = _read_cell(tie_break, True, *args)
        assert plain == traced
        counters = plain[2]
        reads = _total(counters, ".reads.demand")
        partial = _total(counters, ".partial_block_reads")
        raid_reads = _total(counters, ".reads", prefix="counter.raid")
        assert reads > 0
        if (request_kb * KB) % (64 * KB) or (stripe_kb * KB) % (64 * KB):
            assert partial > 0
        if not coalesce and request_kb > 64:
            assert raid_reads > reads

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_fastpath_write_read_modify_write(self, tie_break):
        """Unaligned Fast Path writes: edge blocks are read, merged and
        written back, and the range pays the partial-block copy."""
        plain = _write_cell("fastpath", tie_break, traced=False, request=24 * KB)
        traced = _write_cell("fastpath", tie_break, traced=True, request=24 * KB)
        assert plain == traced
        counters = plain[4]
        assert _total(counters, ".partial_block_writes") > 0
        # The edge-block reads of the read-modify-writes reach the arrays.
        assert _total(counters, ".reads", prefix="counter.raid") > 0

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_read_past_eof_error_reaches_caller(self, tie_break):
        plain = _read_past_eof(tie_break, traced=False)
        traced = _read_past_eof(tie_break, traced=True)
        seen = plain[0]
        assert len(seen) == 1 and "outside file" in seen[0][1]
        assert plain == traced

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_read_past_eof_error_ends_every_span(self, tie_break):
        """A handler error ends the spans of the failed call -- the
        server's ``server_io``, the ``rpc_call`` and the ``stripe_piece``
        -- with the error, and leaves no span open."""
        machine, seen = _read_past_eof_run(tie_break, traced=True)
        spans = machine.obs.tracer.spans
        assert spans and [span for span in spans if span.end is None] == []
        failed = {span.kind for span in spans if "error" in (span.attrs or {})}
        assert {"server_io", "rpc_call", "stripe_piece"} <= failed
        for span in spans:
            if span.kind in failed:
                assert "outside file" in span.attrs["error"]

    def test_traced_machine_starts_no_raid_process(self, monkeypatch):
        """Tracing switches no form: a traced run starts no RAID process
        and resumes exactly the generators the untraced run does."""
        from repro.hardware import raid

        resumes = [0]
        raid_processes = []
        resume = Process._resume
        init = Process.__init__

        def counting(self, event):
            resumes[0] += 1
            return resume(self, event)

        def recording(self, env, generator, *args, **kwargs):
            if generator.gi_code.co_filename == raid.__file__:
                raid_processes.append(generator)
            return init(self, env, generator, *args, **kwargs)

        monkeypatch.setattr(Process, "_resume", counting)
        monkeypatch.setattr(Process, "__init__", recording)
        counts = {}
        for traced in (False, True):
            resumes[0] = 0
            _bench3_cell(64, True, trace=traced)
            counts[traced] = resumes[0]
        assert raid_processes == []
        assert counts[True] == counts[False] > 0


class TestWorkCountPin:
    """The event count and generator resumes of one paper cell, one
    crash-restart cell and a write-through and a write-back write cell,
    and the processes the crash-restart and write cells spawn, pinned
    exactly.

    The counts do not depend on the host or the tie-break, so a change
    in how much kernel work a fault-free or a faulted read costs shows
    up here and is re-pinned on purpose, with the new count recorded in
    CHANGES.md.
    """

    @staticmethod
    def _crash_restart_read(tie_break: str):
        size = 64 * KB
        return run_collective(
            request_size=size,
            file_size=scaled_file_size(size, rounds=4),
            prefetch=True,
            rounds=4,
            faults=CRASH_PLAN,
            tie_break=tie_break,
            keep_machine=True,
        )

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_table1_256kb_prefetch_events(self, tie_break):
        size = 256 * KB
        report = run_collective(
            request_size=size,
            file_size=scaled_file_size(size, rounds=16),
            prefetch=True,
            rounds=16,
            tie_break=tie_break,
            keep_machine=True,
        )
        assert report.machine.env._eid == 7688

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_table1_256kb_prefetch_request_and_timeout_objects(self, tie_break, monkeypatch):
        """Kernel objects the same cell builds: every node CPU
        and co-processor grant is one ``Hold`` of an arbiter
        (1,648, as many as the request objects of the generic resource
        it replaced; 5,104 when each mesh hop made one too), mesh links
        grant straight to their worms, and the cell builds no
        ``Timeout`` (1,024 when each message's software overhead was
        one); the events scheduled do not change."""
        built = {Hold: 0, Timeout: 0}
        for cls in built:
            init = cls.__init__

            def counting(self, *args, _cls=cls, _init=init, **kwargs):
                built[_cls] += 1
                return _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        size = 256 * KB
        report = run_collective(
            request_size=size,
            file_size=scaled_file_size(size, rounds=16),
            prefetch=True,
            rounds=16,
            tie_break=tie_break,
            keep_machine=True,
        )
        assert built == {Hold: 1648, Timeout: 0}
        assert report.machine.env._eid == 7688

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_table1_256kb_prefetch_generator_resumes(self, tie_break, monkeypatch):
        """Generator resumes of the same cell: Fast Path requests are
        served on callbacks, so only the client side resumes processes
        (2,704 when every request started a serve process)."""
        resumes = [0]
        resume = Process._resume

        def counting(self, event):
            resumes[0] += 1
            return resume(self, event)

        monkeypatch.setattr(Process, "_resume", counting)
        size = 256 * KB
        run_collective(
            request_size=size,
            file_size=scaled_file_size(size, rounds=16),
            prefetch=True,
            rounds=16,
            tie_break=tie_break,
        )
        assert resumes[0] == 1168

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_table1_256kb_prefetch_heap_pops(self, tie_break, monkeypatch):
        """Heap pops of the same cell: a mesh worm that is provably the
        next event moves the clock through its hops in place, counting
        each event it skips, so the cell pops 5,025 of its 7,688 events
        (all 7,688 when every hop went through the heap)."""
        pops = [0]

        def counting(queue):
            pops[0] += 1
            return heapq.heappop(queue)

        monkeypatch.setattr(environment, "heappop", counting)
        size = 256 * KB
        report = run_collective(
            request_size=size,
            file_size=scaled_file_size(size, rounds=16),
            prefetch=True,
            rounds=16,
            tie_break=tie_break,
            keep_machine=True,
        )
        assert pops[0] == 5025
        assert report.machine.env._eid == 7688

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    @pytest.mark.parametrize(
        "caching,events,resumes,spawned",
        [("write-through", 442, 320, 112), ("write-back", 434, 328, 120)],
    )
    def test_buffered_write_64kb_work(
        self, caching, events, resumes, spawned, tie_break, monkeypatch
    ):
        """A 64 KB collective write and its read-back on the buffered
        path, untraced, so every array access is served in closed form
        (write-back flushes 16 dirty blocks): the events, the generator
        resumes and the processes spawned."""
        counts = {"resumes": 0, "spawned": 0}
        resume = Process._resume
        init = Process.__init__

        def counting_resume(self, event):
            counts["resumes"] += 1
            return resume(self, event)

        def counting_init(self, *args, **kwargs):
            counts["spawned"] += 1
            return init(self, *args, **kwargs)

        monkeypatch.setattr(Process, "_resume", counting_resume)
        monkeypatch.setattr(Process, "__init__", counting_init)
        machine = _write_run(caching, tie_break, traced=False, request=64 * KB)[0]
        assert machine.env._eid == events
        assert counts == {"resumes": resumes, "spawned": spawned}
        assert machine.verify() == []

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_crash_restart_64kb_prefetch_events(self, tie_break):
        """A crash plan for a compute node can act inside no RAID access,
        so every array serves in closed form (780 events when any fault
        plan stepped every array), and its retried calls and serves run
        on callbacks (704 when they ran in processes)."""
        report = self._crash_restart_read(tie_break)
        assert report.machine.env._eid == 641
        assert report.machine.verify() == []

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_crash_restart_64kb_prefetch_stepped_accesses(self, tie_break, arm_forms):
        """No access of the same cell takes a decision pop: every one is
        timed at its arm grant (all 34 were served by a stepped process
        when any fault plan stepped every array)."""
        report = self._crash_restart_read(tie_break)
        assert {form for form, *_state in arm_forms} == {"closed"}
        assert report.machine.env._eid == 641

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_crash_restart_64kb_prefetch_generator_resumes(self, tie_break, monkeypatch):
        """Faulted calls ride the same callback worms and run their
        retries on callbacks: a caller resumes once per call, not once
        each for the transmission, the inbox put and the reply-or-timeout
        condition, and the Fast Path reads are served with no process
        (544 with a process per retried call and serve, 620 when any
        fault plan stepped every array, 688 with the stepped hop
        loop)."""
        resumes = [0]
        resume = Process._resume

        def counting(self, event):
            resumes[0] += 1
            return resume(self, event)

        monkeypatch.setattr(Process, "_resume", counting)
        self._crash_restart_read(tie_break)
        assert resumes[0] == 343

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_crash_restart_64kb_prefetch_processes(self, tie_break, monkeypatch):
        """Processes the same cell spawns: the readers, their open and
        close calls and the ART workers; no request is served by a
        process (90 when each of the 34 Fast Path reads had a serve
        process)."""
        spawned = [0]
        init = Process.__init__

        def counting(self, *args, **kwargs):
            spawned[0] += 1
            return init(self, *args, **kwargs)

        monkeypatch.setattr(Process, "__init__", counting)
        report = self._crash_restart_read(tie_break)
        assert spawned[0] == 56
        assert report.machine.verify() == []

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_crash_restart_64kb_no_synthetic_bytes(self, tie_break, monkeypatch):
        """The delivery audit logs each delivered ``Data`` and invariant 7
        compares it by canonical runs, so neither the run nor a clean
        ``verify()`` builds synthetic bytes (the run made 32 calls,
        2,097,152 bytes, when it hashed every delivery; 780 events when
        any fault plan stepped every array, 704 with a process per
        retried call and serve)."""
        import repro.ufs.data as data

        calls = [0]
        synthetic_bytes = data._synthetic_bytes

        def counting(key, offset, length):
            calls[0] += 1
            return synthetic_bytes(key, offset, length)

        monkeypatch.setattr(data, "_synthetic_bytes", counting)
        report = self._crash_restart_read(tie_break)
        machine = report.machine
        assert machine.faults.deliveries
        assert calls[0] == 0
        assert machine.env._eid == 641
        assert machine.verify() == []
        assert calls[0] == 0


class TestCallbackServeFallback:
    """An access queued while nothing could act inside it, which
    ``inject_failures`` called outside a fault plan reaches while it
    waits.

    A Fast Path serve reaches the array on callbacks in every run.  At
    the grant the injected error is pending, so the access pops at its
    decision instant, traced or not, fails there, and the application
    sees the array's error; no process is started for it.
    """

    @staticmethod
    def _inject_while_queued(tie_break: str, traced: bool):
        from repro.hardware import raid

        machine = Machine(MachineConfig(n_compute=2, n_io=2, tie_break=tie_break, trace=traced))
        mount = machine.mount("/pfs", PFSConfig(stripe_factor=1))
        pfs_file = machine.create_file(mount, "data", 4 * 64 * KB)
        (io_index,) = pfs_file.attrs.stripe_group
        array = machine.arrays[io_index]
        env = machine.env
        raid_processes = []
        spawn = env.process

        def recording(generator, name=None, order_key=None):
            if generator.gi_code.co_filename == raid.__file__:
                raid_processes.append(name)
            return spawn(generator, name=name, order_key=order_key)

        env.process = recording
        outcomes = []

        def reader(client, offset):
            try:
                data = yield from client.transfer_read(pfs_file, offset, 64 * KB, "demand")
                outcomes.append((offset, env.now, len(data)))
            except RPCError as exc:
                outcomes.append((offset, env.now, str(exc)))

        def injector():
            # Once a second read waits behind the one holding the arm,
            # and the holder is past its controller overhead, fail the
            # next access the arm serves.
            while array.queue_depth == 0:
                yield env.timeout(1e-5)
            yield env.timeout(array.raid_params.controller_overhead_s)
            array.inject_failures(1)

        machine.spawn(reader(machine.clients[0], 0))
        machine.spawn(reader(machine.clients[1], 2 * 64 * KB))
        machine.spawn(injector())
        machine.run()
        return sorted(outcomes), env.now, array.name, raid_processes

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_injected_failure_while_queued_reaches_application(self, tie_break, arm_forms):
        outcomes, now, name, processes = self._inject_while_queued(tie_break, False)
        errors = [o for o in outcomes if isinstance(o[2], str)]
        assert len(outcomes) == 2 and len(errors) == 1
        assert "injected media error" in errors[0][2]
        # The queued access reached its decision pop, and no process ran.
        assert [entry[:2] for entry in arm_forms] == [("closed", name), ("decided", name)]
        assert processes == []
        # A traced run takes the same forms and sees the same error at the
        # same time.
        forms = list(arm_forms)
        arm_forms.clear()
        traced = self._inject_while_queued(tie_break, True)
        assert traced == (outcomes, now, name, [])
        assert arm_forms == forms
