"""The prefetcher: serving demand reads and issuing prefetches.

Faithful to paper section 3:

- Prefetch requests "are issued as asynchronous requests by the user
  thread following any read request to a PFS file" -- i.e. the demand
  read is served first, then the next anticipated request is submitted
  through the ART machinery, and only then does the read call return.
  With no computation between reads, the prefetch gets no head start,
  which is exactly why the I/O-bound workload sees no benefit (Table 1).
- "The read request to the disk is itself performed by the ART using
  the Fast Path I/O technique"; our prefetch operation is a plain
  ``transfer_read`` tagged ``cause="prefetch"``.
- "The data that has been read is stored in a buffer along with ...
  the PFS file offset, the size of the data in bytes" -- landing the
  data costs a memcpy into the prefetch buffer, and a hit costs a
  second memcpy into the user's buffer.  Fast Path demand reads pay
  neither, which is the prefetching overhead the paper measures at
  small request sizes.
- "The file pointer is not changed in the process of prefetching."
- Buffers are freed at close.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.core.policies import DepthKAhead, NoPrefetch, PrefetchPolicy
from repro.core.prefetch_buffer import (
    BufferState,
    OutOfMemoryError,
    PrefetchBuffer,
    PrefetchBufferList,
)
from repro.obs.monitor import Monitor
from repro.obs.stats import PrefetchStats
from repro.obs.trace import NOOP_SPAN, TraceContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.pfs.client import PFSFileHandle


class Prefetcher:
    """Per-handle prefetching engine.

    Create one per :class:`~repro.pfs.client.PFSFileHandle` and pass it
    to :meth:`PFSClient.open`.

    Parameters
    ----------
    policy:
        What to fetch ahead; defaults to the paper's one-request-ahead
        prototype, ``DepthKAhead(1)``.
    retain_consumed:
        Keep consumed buffers' memory until close (the paper's literal
        buffer lifecycle; off by default, see prefetch_buffer docs).
    gc_stale:
        Free ready buffers the sequential pointer has moved past.
    """

    def __init__(
        self,
        policy: Optional[PrefetchPolicy] = None,
        retain_consumed: bool = False,
        gc_stale: bool = True,
        monitor: Optional[Monitor] = None,
    ) -> None:
        self.policy = policy or DepthKAhead()
        self.retain_consumed = retain_consumed
        self.gc_stale = gc_stale
        self.monitor = monitor
        self.stats = PrefetchStats()
        self._list: Optional[PrefetchBufferList] = None
        self._handle: Optional["PFSFileHandle"] = None
        #: Buffer -> demand arrival time, for overlap accounting.
        self._service_estimates: Dict[int, float] = {}

    # -- lifecycle ---------------------------------------------------------

    def on_open(self, handle: "PFSFileHandle") -> None:
        """Initialise the prefetch list ("When the file is opened newly
        by a process, the prefetch list gets initialized")."""
        if self._handle is not None:
            raise RuntimeError("a Prefetcher serves exactly one handle")
        self._handle = handle
        self._list = PrefetchBufferList(
            handle.env, handle.node.memory, retain_consumed=self.retain_consumed
        )

    def on_close(self, handle: "PFSFileHandle") -> None:
        """Free all prefetch buffers (paper: freed at close)."""
        if self._list is not None:
            freed = self._list.free_all()
            self.stats.discarded += freed

    def on_crash(self, handle: "PFSFileHandle") -> None:
        """Drop all buffers after a node crash: the crashed node's
        memory is gone, so ready data is lost and in-flight prefetches
        land into discarded buffers (their replies are dropped)."""
        if self._list is not None:
            freed = self._list.free_all()
            self.stats.discarded += freed
            self._count("crash_discards")

    @property
    def buffer_list(self) -> PrefetchBufferList:
        if self._list is None:
            raise RuntimeError("prefetcher not attached to an open handle")
        return self._list

    # -- the demand path ----------------------------------------------------

    def serve_read(
        self, handle: "PFSFileHandle", offset: int, nbytes: int, ctx: Optional[TraceContext] = None
    ):
        """Generator: serve a demand read through the prefetch cache.

        Hit: copy from the ready buffer.  Partial hit: wait for the
        in-flight request, then copy.  Miss: normal Fast Path read.
        Afterwards, issue the next prefetch per policy and return.
        """
        tracer = handle.client.tracer
        blist = self.buffer_list
        buffer = blist.find_covering(offset, nbytes)
        arrival = handle.env.now

        if buffer is None:
            self.stats.misses += 1
            self._count("misses")
            data = yield from handle.transfer_read(offset, nbytes, cause="demand", ctx=ctx)
        else:
            was_in_flight = buffer.state is BufferState.IN_FLIGHT
            if was_in_flight:
                # Partial hit: wait out the remainder of the prefetch.
                wait_span = NOOP_SPAN
                if tracer.enabled:
                    wait_span = tracer.begin(
                        "prefetch_wait",
                        ctx=ctx,
                        node_id=handle.node.node_id,
                        bytes=nbytes,
                    )
                wait_start = handle.env.now
                yield buffer.complete
                self.stats.partial_wait_time += handle.env.now - wait_start
                tracer.end(wait_span)
            if buffer.state is not BufferState.READY:
                # The prefetch failed while we waited: fall back to a
                # normal demand read.
                self.stats.failed_fallbacks += 1
                self._count("failed_fallbacks")
                data = yield from handle.transfer_read(offset, nbytes, cause="demand", ctx=ctx)
            else:
                if was_in_flight:
                    self.stats.partial_hits += 1
                    self._count("partial_hits")
                else:
                    self.stats.hits += 1
                    self._count("hits")
                assert buffer.data is not None
                data = buffer.data.slice(offset - buffer.offset, nbytes)
                # The hit pays a prefetch-buffer -> user-buffer copy.
                copy_span = NOOP_SPAN
                if tracer.enabled:
                    copy_span = tracer.begin(
                        "prefetch_hit_copy",
                        ctx=ctx,
                        node_id=handle.node.node_id,
                        bytes=nbytes,
                        partial=was_in_flight,
                    )
                yield from handle.node.memcpy(nbytes)
                tracer.end(copy_span)
                self._account_overlap(handle, buffer, arrival, nbytes)
                blist.consume(buffer)
                self.stats.bytes_served += nbytes

        if self.gc_stale:
            self.stats.discarded += blist.discard_before(offset)

        # "A read prefetch request is issued from the client-side ... for
        # every read request that is issued by the user."
        yield from self._issue_prefetches(handle, offset, nbytes, ctx)
        return data

    # -- prefetch issue -------------------------------------------------------

    def _issue_prefetches(
        self, handle: "PFSFileHandle", offset: int, nbytes: int, ctx: Optional[TraceContext] = None
    ):
        tracer = handle.client.tracer
        blist = self.buffer_list
        for start, length in self.policy.plan(handle, offset, nbytes, self):
            if length <= 0:
                continue
            if blist.overlaps_range(start, length):
                self.stats.skipped_duplicate += 1
                continue
            try:
                buffer = blist.issue(start, length)
            except OutOfMemoryError:
                self.stats.skipped_oom += 1
                self._count("skipped_oom")
                continue
            # The prefetch_issue span covers the synchronous issue cost
            # paid inside the triggering read call (buffer allocation +
            # ART setup/post); the async transfer's spans parent under it,
            # which is what links prefetch-caused disk accesses back to
            # the user read that triggered them.
            issue_span = NOOP_SPAN
            if tracer.enabled:
                issue_span = tracer.begin(
                    "prefetch_issue",
                    ctx=ctx,
                    node_id=handle.node.node_id,
                    offset=start,
                    bytes=length,
                )
            issue_ctx = issue_span.ctx
            # Allocating the buffer costs compute-node CPU.
            yield from handle.node.busy(handle.node.params.buffer_alloc_overhead_s)
            self.stats.issued += 1
            self.stats.bytes_prefetched += length
            self._count("issued")

            def operation(buffer=buffer, start=start, length=length, issue_ctx=issue_ctx):
                faults = getattr(handle.client, "faults", None)
                max_retries = faults.plan.retry.prefetch_retries if faults is not None else 0
                attempts = 0
                while True:
                    try:
                        data = yield from handle.transfer_read(
                            start, length, cause="prefetch", ctx=issue_ctx
                        )
                        break
                    except Exception:
                        if (attempts < max_retries and buffer.state is BufferState.IN_FLIGHT):
                            # Transient fault: re-issue the same range into
                            # the same buffer.  Only `retried` moves --
                            # issued/bytes_prefetched already counted this
                            # prefetch, so totals stay consistent.
                            attempts += 1
                            self.stats.retried += 1
                            self._count("retried")
                            continue
                        # A failed prefetch must never fail the application:
                        # release the buffer; waiters fall back to a direct
                        # read.
                        self.stats.failed += 1
                        self._count("failed")
                        if buffer.state is BufferState.IN_FLIGHT:
                            blist.fail(buffer)
                        elif not buffer.complete.triggered:
                            buffer.complete.succeed()
                        return None
                if buffer.state is BufferState.DISCARDED:
                    # The file closed while we were in flight; drop it.
                    if not buffer.complete.triggered:
                        buffer.complete.succeed()
                    return None
                # "The prefetched data is copied into the prefetch buffer
                # present in the system": a Fast Path read cannot target a
                # buffer the user has not posted yet, so the reply is
                # staged and copied into the prefetch buffer.  (The third
                # copy -- prefetch buffer to user buffer -- is paid on
                # the hit.)
                land_span = NOOP_SPAN
                if tracer.enabled:
                    land_span = tracer.begin(
                        "prefetch_land",
                        ctx=issue_ctx,
                        node_id=handle.node.node_id,
                        bytes=length,
                    )
                yield from handle.node.landing_copy(length)
                tracer.end(land_span)
                if buffer.state is BufferState.DISCARDED:
                    # The file closed during the landing copy.
                    if not buffer.complete.triggered:
                        buffer.complete.succeed()
                    return None
                buffer.mark_ready(handle.env, data)
                if faults is not None:
                    # Audit the landed prefetch: invariant 7 checks these
                    # bytes against ground truth even if no demand read
                    # ever consumes the buffer.
                    faults.record_delivery(
                        handle.file.file_id,
                        start,
                        length,
                        data,
                        kind="prefetch",
                    )
                return None

            yield from handle.client.art.submit(operation, tag="prefetch", ctx=issue_ctx)
            tracer.end(issue_span)
        return None

    # -- accounting -------------------------------------------------------------

    def _account_overlap(
        self, handle: "PFSFileHandle", buffer: PrefetchBuffer, arrival: float, nbytes: int
    ) -> None:
        """How much of the prefetch's service time the demand never saw.

        Measured against the demand's *arrival*: a full hit hides the
        whole service time; a partial hit hides only the part that ran
        before the demand showed up and started waiting.

        No double counting at depth > 1: adjacent planned ranges are
        *separate* buffers, each consumed (and accounted) exactly once --
        a demand read spanning two buffers is a miss, because
        ``find_covering`` requires a single covering buffer.  A demand
        read smaller than its covering buffer credits ``overlap_time``
        only with its share of the buffer, while still recording its own
        overlap *fraction*.
        """
        if buffer.ready_at is not None:
            service = buffer.ready_at - buffer.issued_at
        else:  # pragma: no cover - defensive; consume requires READY
            service = arrival - buffer.issued_at
        hidden = max(0.0, min(arrival - buffer.issued_at, service))
        if nbytes < buffer.length:
            self.stats.overlap_time += hidden * (nbytes / buffer.length)
        else:
            self.stats.overlap_time += hidden
        if service > 0:
            self.stats.overlap_fractions.append(min(1.0, hidden / service))

    def _count(self, what: str) -> None:
        if self.monitor is not None:
            self.monitor.counter(f"prefetch.{what}").add(1)

    def __repr__(self) -> str:
        return f"<Prefetcher policy={self.policy!r} {self.stats.summary()}>"


def make_prefetcher(
    enabled: bool = True,
    depth: int = 1,
    monitor: Optional[Monitor] = None,
) -> Prefetcher:
    """Convenience factory: the paper's prototype or a disabled stub."""
    policy = DepthKAhead(depth=depth) if enabled else NoPrefetch()
    return Prefetcher(policy=policy, monitor=monitor)
