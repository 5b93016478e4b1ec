"""The PFS client library on compute nodes.

Implements ``open`` / ``read`` / ``write`` / ``lseek`` / ``close`` /
``setiomode`` plus asynchronous reads (``iread``) over the RPC layer.
A read is declustered into per-I/O-node pieces (paper Figure 3) which
are fetched concurrently; mode-specific coordination (token, barrier,
leader election) happens first and is part of the measured read-call
time.

The prefetch prototype hooks in here: if a handle carries a prefetcher,
demand reads are served through it (hit / partial hit / miss) and every
read triggers the issue of the next prefetch, exactly as in paper
section 3.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.faults.plan import NodeCrashed
from repro.hardware.mesh import Mesh, MeshMessage
from repro.hardware.node import Node
from repro.obs.trace import NOOP_SPAN, TraceContext, get_tracer
from repro.paragonos.art import AsyncRequestManager
from repro.paragonos.messages import (
    ControlRequest,
    ReadReply,
    ReadRequest,
    WriteRequest,
)
from repro.paragonos.rpc import RPCEndpoint
from repro.pfs.coordinator import (
    GlobalArrive,
    SyncArrive,
    TokenAcquire,
    TokenRelease,
)
from repro.pfs.file import PFSFile
from repro.pfs.modes import IOMode
from repro.pfs.mount import PFSMount
from repro.pfs.stripe import coalesce_pieces, decluster
from repro.sim import Environment
from repro.sim.events import PENDING, Event
from repro.obs.monitor import NULL_MONITOR, Monitor
from repro.ufs.data import Data, LiteralData, concat_data

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.prefetcher import Prefetcher


class PFSClientError(Exception):
    """Client-level usage errors (closed handle, bad mode, ...)."""


class HandleStats:
    """Per-handle accounting used by the paper's bandwidth metric.

    The collective read bandwidth divides total bytes by the time a
    compute node spends *in read calls* (computation between calls is
    excluded), so we record each call's duration.
    """

    __slots__ = (
        "bytes_read",
        "bytes_written",
        "read_call_time",
        "read_calls",
        "write_call_time",
        "write_calls",
        "call_durations",
    )

    def __init__(self) -> None:
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_call_time = 0.0
        self.read_calls = 0
        self.write_call_time = 0.0
        self.write_calls = 0
        self.call_durations: List[float] = []

    def record_read(self, nbytes: int, duration: float) -> None:
        self.bytes_read += nbytes
        self.read_call_time += duration
        self.read_calls += 1
        self.call_durations.append(duration)

    def record_write(self, nbytes: int, duration: float) -> None:
        self.bytes_written += nbytes
        self.write_call_time += duration
        self.write_calls += 1


class PFSFileHandle:
    """One process's open instance of a PFS file."""

    def __init__(
        self,
        client: "PFSClient",
        pfs_file: PFSFile,
        rank: int,
        nprocs: int,
        prefetcher: Optional["Prefetcher"] = None,
    ) -> None:
        self.client = client
        self.file = pfs_file
        self.rank = rank
        self.nprocs = nprocs
        self.prefetcher = prefetcher
        #: Private pointer (M_ASYNC; scratch for other modes).
        self.private_offset = 0
        #: Per-handle collective call counter (M_SYNC / M_GLOBAL).
        self.call_index = 0
        #: M_RECORD: PFS offset where the current record round begins.
        self.record_base = 0
        self.closed = False
        self.stats = HandleStats()
        #: Crash/restart bookkeeping (active only when the client's plan
        #: carries node_crash windows).  ``_recovered_epoch`` counts the
        #: crash onsets whose restart recovery has already run;
        #: ``_read_epoch`` snapshots the epoch at read entry so delivery
        #: can tell whether the node died mid-flight.
        self._recovered_epoch = 0
        self._read_epoch = 0
        #: Coordination RPCs sent but not yet acknowledged, keyed by
        #: msg_id.  On restart these are *replayed with the same msg_id*
        #: so the server's idempotent request log applies each side
        #: effect (pointer advance) at most once.
        self._inflight_coord: Dict[int, object] = {}
        #: ``(file_id, release_offset)`` while this handle holds the
        #: shared-pointer token; the release offset tracks whether the
        #: current record was delivered before the crash.
        self._held_token: Optional[tuple] = None
        #: Token-mode record delivered (and audited) but not yet
        #: returned to the application: a crash during the release
        #: handshake kills the read call *after* the pointer advanced,
        #: so the post-restart retry must hand back this completed
        #: result instead of re-reading -- re-reading would fetch the
        #: *next* record and silently drop this one, and re-fetching
        #: this one would double-deliver an audited record.
        self._delivered_unreturned: Optional[tuple] = None
        #: ``(call_index, offset)`` of an M_SYNC barrier grant whose
        #: demand read has not delivered yet.  The coordinator retires a
        #: collective call when its last rank arrives, so a crashed rank
        #: resumes from this grant rather than re-arriving (which would
        #: open a fresh generation nobody else attends).
        self._sync_grant: Optional[tuple] = None
        #: Write-side twin of ``_delivered_unreturned``: ``(offset,
        #: nbytes)`` of an M_UNIX write whose data landed and whose
        #: pointer release is in flight when the node dies.  Restart
        #: recovery settles the release (the pointer advances exactly
        #: once), so the retry must report success for *this* write
        #: instead of re-running it -- re-running would acquire the
        #: *advanced* pointer and duplicate the record at a new offset.
        self._applied_unreturned: Optional[tuple] = None
        #: M_LOG write-slot reservation: the mode releases the pointer
        #: *before* transferring, so a crash mid-transfer leaves a
        #: reserved-but-unwritten hole at ``(offset, nbytes)``.  The
        #: retry must write into this slot rather than acquire a fresh
        #: one, or the file keeps a permanent gap.
        self._write_slot: Optional[tuple] = None
        #: Crash epoch snapshotted at write() entry (twin of
        #: ``_read_epoch``).
        self._write_epoch = 0

    # -- conveniences ------------------------------------------------------

    @property
    def env(self) -> Environment:
        return self.client.env

    @property
    def node(self) -> Node:
        return self.client.node

    @property
    def iomode(self) -> IOMode:
        return self.file.iomode

    def _check_open(self) -> None:
        if self.closed:
            raise PFSClientError(f"operation on closed handle of {self.file.name!r}")

    # -- crash/restart machinery ----------------------------------------------

    def _crash_barrier(self):
        """Generator: fail fast if the node is down; run restart
        recovery once per crash epoch before admitting a new call.

        Called at read() entry.  If the node is inside a crash window
        the call raises :class:`NodeCrashed` immediately (a dead node
        cannot start a read).  If the node restarted since this handle
        last recovered, the shared-pointer coordination handshake is
        replayed first: in-flight coordination RPCs are re-sent with
        their original msg_ids (the coordinator's idempotent request
        log coalesces or replays them without double-advancing the
        pointer) and a still-held token is released at the correct
        offset.
        """
        client = self.client
        now = self.env.now
        if client.crashed_at(now):
            raise NodeCrashed(f"node{self.node.node_id} is down at t={now:.6f}")
        epoch = client.crash_epoch_at(now)
        if epoch > self._recovered_epoch:
            # Mark recovered *before* replaying: the replay RPCs route
            # through self._coordinate/read paths that would otherwise
            # re-enter recovery for the same epoch.
            self._recovered_epoch = epoch
            yield from self._recover_after_restart()

    def _recover_after_restart(self):
        """Generator: replay the coordination handshake after a restart.

        Replays every in-flight coordination RPC (sorted by msg_id, the
        order they were issued) so the server's request log settles each
        one exactly once, then releases the shared-pointer token if this
        handle still holds it.  Finally drops the prefetch buffer: a
        crashed node loses its memory, so buffered prefetched data must
        be re-fetched (and re-audited) after restart.
        """
        pending = sorted(self._inflight_coord.items())
        self._inflight_coord.clear()
        held = self._held_token
        for _msg_id, request in pending:
            # Same request object => same msg_id: the coordinator's
            # request log coalesces a still-in-flight original or
            # replays the recorded reply of a completed one.
            reply = yield from self._coordinate(request)
            if isinstance(request, TokenAcquire):
                held = (request.file_id, reply.offset)
            elif isinstance(request, TokenRelease):
                held = None
            elif isinstance(request, SyncArrive):
                # The barrier completed (or completes now) server-side;
                # keep the granted offset so the retried read consumes
                # it instead of re-arriving at a retired call.
                self._sync_grant = (request.call_index, reply.offset)
        if held is not None:
            # The node died while holding the token.  Release it at the
            # held offset: past the delivered record if _demand_read
            # completed, at the grant offset otherwise -- so a delivered
            # record advances the pointer exactly once and an
            # undelivered one not at all.
            file_id, release_offset = held
            self._held_token = held
            yield from self._coordinate(
                TokenRelease(file_id=file_id, rank=self.rank, new_offset=release_offset)
            )
        self._held_token = None
        if self.prefetcher is not None:
            self.prefetcher.on_crash(self)

    def _coordinate(self, request, ctx: Optional[TraceContext] = None):
        """Generator: coordination RPC, tracked for crash replay.

        Registers the request as in-flight before transmission and
        unregisters it when the reply lands; anything still registered
        at restart is replayed by :meth:`_recover_after_restart`.
        """
        if not self.client.crash_windows:
            return (yield from self.client._coordinate(request, ctx=ctx))
        self._inflight_coord[request.msg_id] = request
        reply = yield from self.client._coordinate(request, ctx=ctx)
        self._inflight_coord.pop(request.msg_id, None)
        return reply

    # -- offset prediction (used by the prefetcher) ---------------------------

    def next_read_offset(self, nbytes: int) -> Optional[int]:
        """Where this handle's next read of *nbytes* will fall, if knowable.

        Deterministic for M_RECORD (record arithmetic) and M_ASYNC
        (private pointer); None for modes whose offsets depend on other
        nodes' arrival order.
        """
        mode = self.iomode
        if mode is IOMode.M_RECORD:
            return self.record_base + self.rank * nbytes
        if mode is IOMode.M_ASYNC:
            return self.private_offset
        return None

    # -- read ---------------------------------------------------------------------

    def read(self, nbytes: int):
        """Generator: read *nbytes* under the file's I/O mode; returns Data.

        Short reads happen at end of file; a read entirely past EOF
        returns empty data.
        """
        self._check_open()
        if nbytes < 0:
            raise PFSClientError("negative read size")
        if self.client.crash_windows:
            yield from self._crash_barrier()
            self._read_epoch = self.client.crash_epoch_at(self.env.now)
        start = self.env.now
        tracer = self.client.tracer
        span = NOOP_SPAN
        if tracer.enabled:
            # Root span of the trace: one request ID per user read call.
            span = tracer.begin(
                "client_call",
                node_id=self.node.node_id,
                op="read",
                rank=self.rank,
                nbytes=nbytes,
                mode=self.iomode.name,
            )
        ctx = span.ctx
        yield from self.node.busy(self.node.params.client_call_overhead_s)

        if self._delivered_unreturned is not None:
            # The previous call on this handle died after its record was
            # delivered and the shared pointer advanced; complete that
            # call's hand-off instead of consuming a new record.
            _offset, _n, data = self._delivered_unreturned
            self._delivered_unreturned = None
            duration = self.env.now - start
            if tracer.enabled:
                tracer.end(span, bytes_returned=len(data), replayed=True)
            self.stats.record_read(len(data), duration)
            return data

        mode = self.iomode
        try:
            if mode is IOMode.M_UNIX:
                data = yield from self._read_m_unix(nbytes, ctx)
            elif mode is IOMode.M_LOG:
                data = yield from self._read_m_log(nbytes, ctx)
            elif mode is IOMode.M_SYNC:
                data = yield from self._read_m_sync(nbytes, ctx)
            elif mode is IOMode.M_RECORD:
                data = yield from self._read_m_record(nbytes, ctx)
            elif mode is IOMode.M_GLOBAL:
                data = yield from self._read_m_global(nbytes, ctx)
            elif mode is IOMode.M_ASYNC:
                data = yield from self._read_m_async(nbytes, ctx)
            else:  # pragma: no cover - exhaustive over IOMode
                raise PFSClientError(f"unsupported mode {mode}")
        except NodeCrashed:
            # The node died mid-call: close the span (the call never
            # returns to the application) and let the workload's
            # restart logic retry after the crash window.
            if tracer.enabled:
                tracer.end(span, crashed=True)
            raise
        except Exception as exc:
            if tracer.enabled:
                tracer.end(span, error=str(exc))
            raise

        duration = self.env.now - start
        if tracer.enabled:
            tracer.end(span, bytes_returned=len(data))
        self.stats.record_read(len(data), duration)
        return data

    def _clamp(self, offset: int, nbytes: int) -> int:
        return max(0, min(nbytes, self.file.size_bytes - offset))

    def _read_m_unix(self, nbytes: int, ctx: Optional[TraceContext] = None):
        # Atomic: hold the pointer token for the entire operation.
        grant = yield from self._coordinate(
            TokenAcquire(file_id=self.file.file_id, rank=self.rank), ctx=ctx
        )
        offset = grant.offset
        # Held-token tracking: if the node crashes while we hold the
        # token, restart recovery releases it at this offset -- bumped
        # past the record the moment delivery succeeds, so a delivered
        # record advances the pointer exactly once.
        self._held_token = (self.file.file_id, offset)
        n = self._clamp(offset, nbytes)
        data = yield from self._demand_read(offset, n, ctx)
        self._held_token = (self.file.file_id, offset + n)
        if self.client.crash_windows:
            self._delivered_unreturned = (offset, n, data)
        # Atomicity: completion bookkeeping happens inside the hold.
        yield from self.node.busy(self.node.params.client_call_overhead_s)
        yield from self._coordinate(
            TokenRelease(file_id=self.file.file_id, rank=self.rank, new_offset=offset + n),
            ctx=ctx,
        )
        self._held_token = None
        self._delivered_unreturned = None
        return data

    def _read_m_log(self, nbytes: int, ctx: Optional[TraceContext] = None):
        # Arrival-order data placement: the pointer token is held until
        # the transfer lands (the Paragon implementation serialised
        # M_LOG operations almost as heavily as M_UNIX; only the final
        # client-side completion overlaps with the next grant).
        grant = yield from self._coordinate(
            TokenAcquire(file_id=self.file.file_id, rank=self.rank), ctx=ctx
        )
        offset = grant.offset
        self._held_token = (self.file.file_id, offset)
        n = self._clamp(offset, nbytes)
        data = yield from self._demand_read(offset, n, ctx)
        self._held_token = (self.file.file_id, offset + n)
        if self.client.crash_windows:
            self._delivered_unreturned = (offset, n, data)
        yield from self._coordinate(
            TokenRelease(file_id=self.file.file_id, rank=self.rank, new_offset=offset + n),
            ctx=ctx,
        )
        self._held_token = None
        self._delivered_unreturned = None
        return data

    def _read_m_sync(self, nbytes: int, ctx: Optional[TraceContext] = None):
        # A barrier arrival is consumed server-side the moment the
        # collective completes (the coordinator retires the call), so a
        # crashed rank must never re-arrive for a call it already joined
        # -- the fresh SyncArrive would open a new generation nobody
        # else attends and hang forever.  The grant therefore sticks to
        # the handle until the demand read delivers: a crash during the
        # read (or a reply lost to the crash window and re-obtained by
        # the restart replay) resumes at the granted offset instead of
        # re-coordinating.
        if self._sync_grant is not None and self._sync_grant[0] == self.call_index:
            offset = self._sync_grant[1]
        else:
            go = yield from self._coordinate(
                SyncArrive(
                    file_id=self.file.file_id,
                    call_index=self.call_index,
                    rank=self.rank,
                    nbytes=nbytes,
                ),
                ctx=ctx,
            )
            offset = go.offset
            self._sync_grant = (self.call_index, offset)
        n = self._clamp(offset, nbytes)
        data = yield from self._demand_read(offset, n, ctx)
        self._sync_grant = None
        self.call_index += 1
        return data

    def _read_m_record(self, nbytes: int, ctx: Optional[TraceContext] = None):
        offset = self.record_base + self.rank * nbytes
        self.record_base += self.nprocs * nbytes
        self.call_index += 1
        n = self._clamp(offset, nbytes)
        try:
            return (yield from self._demand_read(offset, n, ctx))
        except NodeCrashed:
            # The record was not delivered: roll back the record
            # arithmetic so the post-restart retry re-reads it.
            self.record_base -= self.nprocs * nbytes
            self.call_index -= 1
            raise

    def _read_m_global(self, nbytes: int, ctx: Optional[TraceContext] = None):
        call_index = self.call_index
        self.call_index += 1
        go = yield from self._coordinate(
            GlobalArrive(
                file_id=self.file.file_id,
                call_index=call_index,
                rank=self.rank,
                nbytes=nbytes,
            ),
            ctx=ctx,
        )
        n = self._clamp(go.offset, nbytes)
        state = self._global_state(call_index)
        if go.leader:
            data = yield from self._demand_read(go.offset, n, ctx)
            state["data"] = data
            state["leader_node"] = self.node
            state["event"].succeed()
        else:
            if not state["event"].triggered:
                yield state["event"]
            # The leader ships the block to this node across the mesh.
            leader_node = state["leader_node"]
            yield from self.client.mesh.send(
                MeshMessage(
                    src=leader_node.position,
                    dst=self.node.position,
                    size_bytes=n,
                    ctx=ctx,
                )
            )
            data = state["data"]
        state["served"] += 1
        if state["served"] == self.nprocs:
            self.file.__dict__.setdefault("_client_global", {}).pop(call_index, None)
        return data

    def _read_m_async(self, nbytes: int, ctx: Optional[TraceContext] = None):
        offset = self.private_offset
        n = self._clamp(offset, nbytes)
        # Advance before serving so the prefetcher's "next read" question
        # (next_read_offset) sees the post-read position.
        self.private_offset = offset + n
        try:
            return (yield from self._demand_read(offset, n, ctx))
        except NodeCrashed:
            self.private_offset = offset
            raise

    def _global_state(self, call_index: int) -> dict:
        registry = self.file.__dict__.setdefault("_client_global", {})
        state = registry.get(call_index)
        if state is None:
            state = registry[call_index] = {
                "event": self.env.event(),
                "data": None,
                "leader_node": None,
                "served": 0,
            }
        return state

    def _demand_read(self, offset: int, nbytes: int, ctx: Optional[TraceContext] = None):
        """Serve a demand read, through the prefetcher when present."""
        if nbytes == 0:
            return LiteralData(b"")
        if self.prefetcher is not None:
            data = yield from self.prefetcher.serve_read(self, offset, nbytes, ctx=ctx)
        else:
            data = yield from self.transfer_read(offset, nbytes, ctx=ctx)
        client = self.client
        if client.crash_windows:
            # The node must have stayed up for the whole flight for the
            # bytes to count as delivered: not currently down, and no
            # crash/restart cycle since read() entry.
            now = self.env.now
            if client.crashed_at(now) or client.crash_epoch_at(now) != self._read_epoch:
                raise NodeCrashed(
                    f"node{self.node.node_id} crashed before delivery of "
                    f"[{offset}, {offset + nbytes})"
                )
        if client.faults is not None:
            # Audit what the application actually received; Machine.verify
            # (invariant 7) checks this content against ground truth.
            client.faults.record_delivery(self.file.file_id, offset, nbytes, data, kind="demand")
        return data

    def transfer_read(
        self, offset: int, nbytes: int, cause: str = "demand", ctx: Optional[TraceContext] = None
    ):
        """Generator: declustered fetch of [offset, offset+nbytes) from the
        I/O nodes; no pointer coordination, no prefetching."""
        return (yield from self.client.transfer_read(self.file, offset, nbytes, cause, ctx=ctx))

    # -- write -----------------------------------------------------------------------

    def write(self, data: Data):
        """Generator: write *data* under the file's I/O mode."""
        self._check_open()
        if self.client.crash_windows:
            yield from self._crash_barrier()
            self._write_epoch = self.client.crash_epoch_at(self.env.now)
        start = self.env.now
        tracer = self.client.tracer
        span = NOOP_SPAN
        if tracer.enabled:
            span = tracer.begin(
                "client_call",
                node_id=self.node.node_id,
                op="write",
                rank=self.rank,
                nbytes=len(data),
                mode=self.iomode.name,
            )
        ctx = span.ctx
        yield from self.node.busy(self.node.params.client_call_overhead_s)
        nbytes = len(data)
        mode = self.iomode

        if self._applied_unreturned is not None:
            # The previous call on this handle died after its data landed
            # and restart recovery settled the pointer release; report
            # that call's success instead of writing a duplicate record.
            # (The workload's retry re-presents the same payload, so the
            # bytes on disk already match what this call promises.)
            _offset, applied_n = self._applied_unreturned
            self._applied_unreturned = None
            duration = self.env.now - start
            if tracer.enabled:
                tracer.end(span, replayed=True)
            self.stats.record_write(applied_n, duration)
            return applied_n

        try:
            if mode is IOMode.M_UNIX:
                # Atomic: hold the pointer token across the transfer, with
                # the same held-token bookkeeping as the read path so
                # restart recovery releases it at the right offset --
                # past the record once the data landed, at the grant
                # offset otherwise.
                grant = yield from self._coordinate(
                    TokenAcquire(file_id=self.file.file_id, rank=self.rank), ctx=ctx
                )
                offset = grant.offset
                self._held_token = (self.file.file_id, offset)
                yield from self.client.transfer_write(self.file, offset, data, ctx=ctx)
                self._check_write_applied(offset, nbytes)
                self._held_token = (self.file.file_id, offset + nbytes)
                if self.client.crash_windows:
                    self._applied_unreturned = (offset, nbytes)
                yield from self._coordinate(
                    TokenRelease(
                        file_id=self.file.file_id,
                        rank=self.rank,
                        new_offset=offset + nbytes,
                    ),
                    ctx=ctx,
                )
                self._held_token = None
                self._applied_unreturned = None
            elif mode is IOMode.M_LOG:
                if self._write_slot is None:
                    grant = yield from self._coordinate(
                        TokenAcquire(file_id=self.file.file_id, rank=self.rank), ctx=ctx
                    )
                    offset = grant.offset
                    # Reserve the slot before releasing: crashes only
                    # surface at yields, so the reservation is atomic
                    # with the release RPC -- if the node dies awaiting
                    # the reply, recovery replays the release (the
                    # pointer advances exactly once) and the reservation
                    # tells the retry which hole to fill.
                    if self.client.crash_windows:
                        self._write_slot = (offset, nbytes)
                    self._held_token = (self.file.file_id, offset + nbytes)
                    yield from self._coordinate(
                        TokenRelease(
                            file_id=self.file.file_id,
                            rank=self.rank,
                            new_offset=offset + nbytes,
                        ),
                        ctx=ctx,
                    )
                    self._held_token = None
                else:
                    # Retry of a crashed call: the pointer already
                    # advanced past our reserved slot; write into it
                    # rather than acquiring a fresh (later) one.
                    offset, _slot_n = self._write_slot
                yield from self.client.transfer_write(self.file, offset, data, ctx=ctx)
                self._check_write_applied(offset, nbytes)
                self._write_slot = None
            elif mode is IOMode.M_SYNC:
                go = yield from self._coordinate(
                    SyncArrive(
                        file_id=self.file.file_id,
                        call_index=self.call_index,
                        rank=self.rank,
                        nbytes=nbytes,
                    ),
                    ctx=ctx,
                )
                self.call_index += 1
                yield from self.client.transfer_write(self.file, go.offset, data, ctx=ctx)
                self._check_write_applied(go.offset, nbytes)
            elif mode is IOMode.M_RECORD:
                offset = self.record_base + self.rank * nbytes
                self.record_base += self.nprocs * nbytes
                self.call_index += 1
                try:
                    yield from self.client.transfer_write(self.file, offset, data, ctx=ctx)
                    self._check_write_applied(offset, nbytes)
                except NodeCrashed:
                    # The record may be partially applied but the retry
                    # rewrites the same slot: roll back the record
                    # arithmetic so it recomputes the same offset.
                    self.record_base -= self.nprocs * nbytes
                    self.call_index -= 1
                    raise
            elif mode is IOMode.M_GLOBAL:
                call_index = self.call_index
                self.call_index += 1
                go = yield from self._coordinate(
                    GlobalArrive(
                        file_id=self.file.file_id,
                        call_index=call_index,
                        rank=self.rank,
                        nbytes=nbytes,
                    ),
                    ctx=ctx,
                )
                if go.leader:
                    yield from self.client.transfer_write(self.file, go.offset, data, ctx=ctx)
                    self._check_write_applied(go.offset, nbytes)
            elif mode is IOMode.M_ASYNC:
                # The private pointer advances only after the transfer
                # lands, so a crashed call needs no rollback: the retry
                # recomputes the same offset and overwrites any partial
                # application.
                offset = self.private_offset
                yield from self.client.transfer_write(self.file, offset, data, ctx=ctx)
                self._check_write_applied(offset, nbytes)
                self.private_offset = offset + nbytes
            else:  # pragma: no cover
                raise PFSClientError(f"unsupported mode {mode}")
        except NodeCrashed:
            if tracer.enabled:
                tracer.end(span, crashed=True)
            raise
        except Exception as exc:
            if tracer.enabled:
                tracer.end(span, error=str(exc))
            raise

        # Writes may grow the file.
        duration = self.env.now - start
        tracer.end(span)
        self.stats.record_write(nbytes, duration)
        return nbytes

    def _check_write_applied(self, offset: int, nbytes: int) -> None:
        """Raise :class:`NodeCrashed` unless the node stayed up for the
        whole write flight (write-side twin of the delivery check in
        :meth:`_demand_read`): not currently down, and no crash/restart
        cycle since write() entry.  Partial application is fine -- the
        caller either retries the same offset or (M_UNIX) has not yet
        advanced the shared pointer.
        """
        client = self.client
        if not client.crash_windows:
            return
        now = self.env.now
        if client.crashed_at(now) or client.crash_epoch_at(now) != self._write_epoch:
            raise NodeCrashed(
                f"node{self.node.node_id} crashed before applying "
                f"[{offset}, {offset + nbytes})"
            )

    # -- async reads --------------------------------------------------------------------

    def iread(self, nbytes: int):
        """Generator: issue an asynchronous read via the ART machinery.

        Returns the :class:`~repro.paragonos.art.AsyncRequest`; wait on
        ``request.event`` for the data.
        """
        self._check_open()

        def operation():
            return (yield from self.read(nbytes))

        request = yield from self.client.art.submit(operation, tag="iread")
        return request

    def iwrite(self, data: Data):
        """Generator: issue an asynchronous write via the ART machinery.

        Returns the :class:`~repro.paragonos.art.AsyncRequest`; wait on
        ``request.event`` for the byte count.
        """
        self._check_open()

        def operation():
            return (yield from self.write(data))

        request = yield from self.client.art.submit(operation, tag="iwrite")
        return request

    # -- pointer management ----------------------------------------------------------------

    def lseek(self, offset: int, whence: str = "set"):
        """Generator: reposition the pointer.

        *whence* is "set" (absolute), "cur" (relative to the current
        position) or "end" (relative to end of file).

        - M_ASYNC: sets this handle's private pointer (no messages).
        - M_UNIX / M_LOG: sets the shared pointer (token round trip).
        - M_RECORD: sets the record base; all handles must do the same.
        - M_SYNC / M_GLOBAL: unsupported mid-stream repositioning.
        """
        self._check_open()
        mode = self.iomode
        if whence == "cur":
            if mode is IOMode.M_ASYNC:
                offset += self.private_offset
            elif mode is IOMode.M_RECORD:
                offset += self.record_base
            else:
                offset += self.file.shared_offset
        elif whence == "end":
            offset += self.file.size_bytes
        elif whence != "set":
            raise PFSClientError(f"unknown whence {whence!r}")
        if offset < 0:
            raise PFSClientError("negative seek offset")
        if mode is IOMode.M_ASYNC:
            self.private_offset = offset
        elif mode in (IOMode.M_UNIX, IOMode.M_LOG):
            yield from self._coordinate(TokenAcquire(file_id=self.file.file_id, rank=self.rank))
            self._held_token = (self.file.file_id, offset)
            yield from self._coordinate(
                TokenRelease(file_id=self.file.file_id, rank=self.rank, new_offset=offset)
            )
            self._held_token = None
        elif mode is IOMode.M_RECORD:
            self.record_base = offset
        else:
            raise PFSClientError(f"lseek is not supported in {mode.name}")
        return offset

    def setiomode(self, mode: IOMode):
        """Generator: change the file's I/O mode (collective operation).

        "The I/O mode can be set when a file is opened, and the
        application can also set/modify the I/O mode during the course
        of reading or writing the file."
        """
        self._check_open()
        yield from self.node.busy(self.node.params.client_call_overhead_s)
        self.file.iomode = mode
        self.call_index = 0
        self.record_base = self.file.shared_offset
        return mode

    def close(self):
        """Generator: close the handle; frees all prefetch buffers."""
        if self.closed:
            return None
        yield from self.node.busy(self.node.params.client_call_overhead_s)
        if self.prefetcher is not None:
            self.prefetcher.on_close(self)
        self.closed = True
        self.file.open_handles -= 1
        return None

    def __repr__(self) -> str:
        return (
            f"<PFSFileHandle {self.file.name!r} rank={self.rank}/{self.nprocs} "
            f"mode={self.iomode.name}{' closed' if self.closed else ''}>"
        )


class PFSClient:
    """PFS client library instance on one compute node."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        endpoint: RPCEndpoint,
        mesh: Mesh,
        io_endpoints: Dict[int, RPCEndpoint],
        coordinator_endpoint: RPCEndpoint,
        art: Optional[AsyncRequestManager] = None,
        monitor: Optional[Monitor] = None,
        faults=None,
    ) -> None:
        self.env = env
        self.node = node
        self.endpoint = endpoint
        self.mesh = mesh
        self.io_endpoints = io_endpoints
        self.coordinator_endpoint = coordinator_endpoint
        self.art = art or AsyncRequestManager(env, node)
        self.monitor = monitor or NULL_MONITOR
        #: FaultInjector when the machine runs under a fault plan; used
        #: for the delivery audit (Machine.verify invariant 7) and the
        #: prefetcher's retry budget.
        self.faults = faults
        #: Sorted ``(crash_at, restart_at)`` windows from the fault
        #: plan's node_crash/node_restart specs (empty when this node
        #: never crashes).  Crashes are pure time predicates -- no
        #: events are ever scheduled for them -- so fault-free runs are
        #: bit-identical with or without the machinery.
        self.crash_windows: tuple = ()
        self.tracer = get_tracer(monitor)

    # -- crash/restart predicates ---------------------------------------------

    def crashed_at(self, now: float) -> bool:
        """True while *now* falls inside a crash window (half-open:
        the node is back up at exactly ``restart_at``)."""
        return any(c <= now < r for c, r in self.crash_windows)

    def crash_epoch_at(self, now: float) -> int:
        """Number of crash onsets at or before *now*.

        A delivery is suspect when the epoch changed between read entry
        and completion -- the node died (and restarted) mid-flight.
        """
        return sum(1 for c, _r in self.crash_windows if c <= now)

    def wait_restarted(self):
        """Generator: block until the current crash window (if any)
        ends.  No-op when the node is up."""
        for c, r in self.crash_windows:
            if c <= self.env.now < r:
                yield self.env.timeout(r - self.env.now)
                return

    # -- namespace ------------------------------------------------------------

    def open(
        self,
        mount: PFSMount,
        name: str,
        iomode: IOMode,
        rank: int = 0,
        nprocs: int = 1,
        prefetcher: Optional["Prefetcher"] = None,
    ):
        """Generator: open *name* on *mount*, returning a handle.

        Every participating process opens with its *rank* out of
        *nprocs*; the synchronised modes rely on these being consistent.
        """
        if not 0 <= rank < nprocs:
            raise PFSClientError(f"rank {rank} outside 0..{nprocs - 1}")
        yield from self.node.busy(self.node.params.client_call_overhead_s)
        pfs_file = mount.lookup(name)
        pfs_file.iomode = iomode
        pfs_file.nprocs = nprocs
        pfs_file.open_handles += 1
        handle = PFSFileHandle(self, pfs_file, rank, nprocs, prefetcher=prefetcher)
        if prefetcher is not None:
            prefetcher.on_open(handle)
        return handle

    # -- transfers --------------------------------------------------------------

    def transfer_read(
        self,
        pfs_file: PFSFile,
        offset: int,
        nbytes: int,
        cause: str,
        ctx: Optional[TraceContext] = None,
    ):
        """Generator: declustered read returning assembled Data.

        Pieces contiguous in one I/O node's stripe file are coalesced
        into a single request; the per-node fetches run concurrently.
        """
        if nbytes == 0:
            return LiteralData(b"")
        requests = coalesce_pieces(decluster(pfs_file.attrs, offset, nbytes))
        fastpath = pfs_file.mount.fastpath

        def read_request(creq) -> ReadRequest:
            return ReadRequest(
                file_id=pfs_file.file_id,
                ufs_offset=creq.ufs_offset,
                nbytes=creq.length,
                fastpath=fastpath,
                cause=cause,
            )

        if len(requests) == 1:
            # A single piece runs in the calling process: that is its timing.
            creq = requests[0]
            request = read_request(creq)
            span = self._open_piece(creq, request, cause, ctx)
            try:
                reply = yield from self.endpoint.call(self._io_endpoint(creq.io_node), request)
                # Land the reply into the destination buffer through the
                # message co-processor.  This per-call data path (a few
                # MB/s) is what bounds single-request latency on the real
                # machine (paper Table 2's 0.4s for 1024KB).
                yield from self.node.receive(creq.length)
            except NodeCrashed:
                if self.tracer.enabled:
                    self.tracer.end(span, crashed=True)
                reply = None
            except Exception as exc:
                if self.tracer.enabled:
                    self.tracer.end(span, error=str(exc))
                raise
            else:
                self.tracer.end(span)
            replies = [reply]
        else:
            replies = yield self._post_pieces(requests, read_request, cause, ctx, land=True)
        if any(reply is None for reply in replies):
            raise NodeCrashed(f"node{self.node.node_id} crashed during declustered read")

        # Reassemble in PFS offset order from the per-node replies.
        located: List[tuple] = []
        for creq, reply in zip(requests, replies):
            assert isinstance(reply, ReadReply)
            for piece in creq.pieces:
                chunk = reply.data.slice(piece.ufs_offset - creq.ufs_offset, piece.length)
                located.append((piece.pfs_offset, chunk))
        located.sort(key=lambda item: item[0])
        data = concat_data([chunk for _pos, chunk in located])
        self.monitor.counter(f"pfs_client.{cause}_reads").add(1)
        self.monitor.counter(f"pfs_client.{cause}_bytes").add(len(data))
        return data

    def transfer_write(
        self, pfs_file: PFSFile, offset: int, data: Data, ctx: Optional[TraceContext] = None
    ):
        """Generator: declustered write of *data* at *offset*."""
        nbytes = len(data)
        if nbytes == 0:
            return 0
        requests = coalesce_pieces(decluster(pfs_file.attrs, offset, nbytes))
        fastpath = pfs_file.mount.fastpath

        def write_request(creq) -> WriteRequest:
            # The UFS-contiguous run of the piece, from the PFS-ordered data.
            run = [data.slice(piece.pfs_offset - offset, piece.length) for piece in creq.pieces]
            return WriteRequest(
                file_id=pfs_file.file_id,
                ufs_offset=creq.ufs_offset,
                data=concat_data(run),
                fastpath=fastpath,
            )

        if len(requests) == 1:
            # A single piece runs in the calling process: that is its timing.
            creq = requests[0]
            request = write_request(creq)
            span = self._open_piece(creq, request, "write", ctx)
            try:
                yield from self.endpoint.call(self._io_endpoint(creq.io_node), request)
            except NodeCrashed:
                if self.tracer.enabled:
                    self.tracer.end(span, crashed=True)
                ok = False
            except Exception as exc:
                if self.tracer.enabled:
                    self.tracer.end(span, error=str(exc))
                raise
            else:
                self.tracer.end(span)
                ok = True
        else:
            replies = yield self._post_pieces(requests, write_request, "write", ctx, land=False)
            # A crashed piece's reply is the None sentinel.
            ok = all(replies)
        if not ok:
            raise NodeCrashed(f"node{self.node.node_id} crashed during declustered write")
        if offset + nbytes > pfs_file.size_bytes:
            pfs_file.size_bytes = offset + nbytes
        return nbytes

    def _open_piece(self, creq, request, cause: str, ctx: Optional[TraceContext]):
        """Open the ``stripe_piece`` span of one coalesced per-I/O-node
        request and thread its context into *request*; concurrent pieces
        are concurrent child spans of *ctx*."""
        if not self.tracer.enabled:
            return NOOP_SPAN
        span = self.tracer.begin(
            "stripe_piece",
            ctx=ctx,
            node_id=self.node.node_id,
            io_node=creq.io_node,
            bytes=creq.length,
            cause=cause,
        )
        if span.ctx is not None:
            request.ctx = span.ctx
        return span

    def _post_pieces(
        self, requests, make_request, cause: str, ctx: Optional[TraceContext], land: bool
    ) -> Event:
        """Start every piece of a declustered transfer as a callback call
        (:meth:`RPCEndpoint.post`), each under its ``stripe_piece`` span.

        Piece ``i`` is posted under an order key reserved from the
        calling process, as ``env.process`` would reserve one; with
        *land*, its reply is landed through the message co-processor
        under that key, as :meth:`Node.receive` would.  A piece's span
        ends when it has landed (or its reply arrived, without *land*).
        The returned event fires with the replies, in piece order, once
        every piece has finished.  A piece whose call raises
        :class:`NodeCrashed` ends its span with ``crashed=True``, has no
        landing and finishes with the ``None`` sentinel, so the caller
        raises once for the whole transfer.  Any other error (a
        handler's :class:`~repro.paragonos.rpc.RPCError`, a
        :class:`~repro.faults.plan.FaultBudgetExceeded`) ends its span
        with ``error`` and fails the event at once; a later error stays
        un-defused and stops the run.
        """
        env = self.env
        node = self.node
        tracer = self.tracer
        done = Event(env)
        replies: list = [None] * len(requests)
        pending = len(requests)

        def arrived(i: int, reply, span) -> None:
            nonlocal pending
            if reply is None:
                if tracer.enabled:
                    tracer.end(span, crashed=True)
            else:
                tracer.end(span)
            replies[i] = reply
            pending -= 1
            if pending == 0 and done._value is PENDING:
                done.fire(replies)

        for i, creq in enumerate(requests):
            key = env.reserve_order_key()
            request = make_request(creq)
            span = self._open_piece(creq, request, cause, ctx)

            def on_reply(event: Event, i=i, key=key, nbytes=creq.length, span=span) -> None:
                if not event._ok:
                    if isinstance(event._value, NodeCrashed):
                        event._defused = True
                        arrived(i, None, span)
                        return
                    if tracer.enabled:
                        tracer.end(span, error=str(event._value))
                    if done._value is PENDING:
                        event._defused = True
                        done.fail(event._value)
                    return
                reply = event._value
                if land:
                    node.receive_then(nbytes, key, lambda: arrived(i, reply, span))
                else:
                    arrived(i, reply, span)

            self.endpoint.post(self._io_endpoint(creq.io_node), request, key, on_reply)
        return done

    # -- metadata operations -----------------------------------------------------

    def stat(self, mount: PFSMount, name: str):
        """Generator: return the file's size, verified against the
        stripe files on the I/O nodes."""
        yield from self.node.busy(self.node.params.client_call_overhead_s)
        pfs_file = mount.lookup(name)
        total = 0
        for io_node in pfs_file.attrs.stripe_group:
            reply = yield from self._control(
                io_node, ControlRequest(op="stat", file_id=pfs_file.file_id)
            )
            if reply.error:
                raise PFSClientError(f"stat failed on node {io_node}: {reply.error}")
            total += reply.result
        # Sparse files may hold fewer stripe bytes than the logical size,
        # but never more.
        if total > pfs_file.size_bytes:
            raise PFSClientError(
                f"stripe files hold {total} bytes but metadata says " f"{pfs_file.size_bytes}"
            )
        return pfs_file.size_bytes

    def unlink(self, mount: PFSMount, name: str):
        """Generator: remove a PFS file and its stripe files."""
        yield from self.node.busy(self.node.params.client_call_overhead_s)
        pfs_file = mount.lookup(name)
        if pfs_file.open_handles > 0:
            raise PFSClientError(f"{name!r} still has open handles")
        for io_node in pfs_file.attrs.stripe_group:
            reply = yield from self._control(
                io_node, ControlRequest(op="unlink", file_id=pfs_file.file_id)
            )
            if reply.error:
                raise PFSClientError(f"unlink failed on node {io_node}: {reply.error}")
        mount.remove(name)
        return None

    def truncate(self, mount: PFSMount, name: str, new_size: int):
        """Generator: set the file's logical size to *new_size*,
        resizing every stripe file accordingly."""
        if new_size < 0:
            raise PFSClientError("negative truncate size")
        yield from self.node.busy(self.node.params.client_call_overhead_s)
        pfs_file = mount.lookup(name)
        from repro.pfs.stripe import ufs_file_size

        for group_index, io_node in enumerate(pfs_file.attrs.stripe_group):
            target = ufs_file_size(pfs_file.attrs, new_size, group_index)
            reply = yield from self._control(
                io_node,
                ControlRequest(op="truncate", file_id=pfs_file.file_id, arg=target),
            )
            if reply.error:
                raise PFSClientError(f"truncate failed on node {io_node}: {reply.error}")
        pfs_file.size_bytes = new_size
        if pfs_file.shared_offset > new_size:
            pfs_file.shared_offset = new_size
        return new_size

    def flush(self, mount: PFSMount, name: str):
        """Generator: flush dirty cached blocks of the file on every
        I/O node in its stripe group."""
        yield from self.node.busy(self.node.params.client_call_overhead_s)
        pfs_file = mount.lookup(name)
        for io_node in pfs_file.attrs.stripe_group:
            reply = yield from self._control(
                io_node, ControlRequest(op="flush", file_id=pfs_file.file_id)
            )
            if reply.error:
                raise PFSClientError(f"flush failed on node {io_node}: {reply.error}")
        return None

    # -- internals ----------------------------------------------------------------

    def _io_endpoint(self, io_node: int) -> RPCEndpoint:
        try:
            return self.io_endpoints[io_node]
        except KeyError:
            raise PFSClientError(f"no PFS server on I/O node {io_node}") from None

    def _coordinate(self, request, ctx: Optional[TraceContext] = None):
        """Generator: RPC to the coordination service."""
        tracer = self.tracer
        span = NOOP_SPAN
        if tracer.enabled:
            span = tracer.begin(
                "coordinate",
                ctx=ctx,
                node_id=self.node.node_id,
                msg=type(request).__name__,
            )
            request.ctx = span.ctx
        try:
            reply = yield from self.endpoint.call(self.coordinator_endpoint, request)
        except NodeCrashed:
            if tracer.enabled:
                tracer.end(span, crashed=True)
            raise
        except Exception as exc:
            if tracer.enabled:
                tracer.end(span, error=str(exc))
            raise
        tracer.end(span)
        return reply

    def _control(self, io_node: int, request: ControlRequest):
        """Generator: metadata RPC to one I/O node."""
        return (yield from self.endpoint.call(self._io_endpoint(io_node), request))

    def __repr__(self) -> str:
        return f"<PFSClient node={self.node.node_id}>"
