"""Asynchronous Request Threads (ARTs).

Paper section 3:

    "During the setup phase, the incoming request for read is allocated
    an internal structure for tracking the state of request during the
    asynchronous processing.  A pointer to this structure then resides
    in the list of pointers maintained for active asynchronous requests
    issued by the user.  Associated with each request structure is an
    asynchronous request thread (ART). [...] Once the ART is
    initialized, it begins processing asynchronous requests that are
    queued in a FIFO manner on the active list."

We model a pool of ART workers per compute node draining a FIFO active
list.  Submitting a request charges the setup/posting overhead on the
node's CPU; the ART then runs the request's *operation* (a generator --
in practice the Fast Path read) and triggers the request's completion
event.  Prefetch requests ride this exact machinery, as in the paper.
"""

from __future__ import annotations

import itertools
from typing import Callable, Generator, List, Optional

from repro.hardware.node import Node
from repro.obs.trace import NOOP_SPAN, TraceContext, get_tracer
from repro.sim import ArbitratedStore, Environment
from repro.obs.monitor import NULL_MONITOR, Monitor


class AsyncRequest:
    """Tracking structure for one asynchronous I/O request, numbered by
    the ART pool that set it up."""

    __slots__ = (
        "request_id",
        "operation",
        "tag",
        "event",
        "issued_at",
        "started_at",
        "completed_at",
        "result",
        "cancelled",
        "ctx",
    )

    def __init__(
        self,
        env: Environment,
        request_id: int,
        operation: Callable[[], Generator],
        tag: str,
        ctx: Optional[TraceContext] = None,
    ) -> None:
        self.request_id = request_id
        self.operation = operation
        self.tag = tag
        #: Fires with the operation's return value when the ART finishes.
        self.event = env.event()
        self.issued_at = env.now
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.result = None
        self.cancelled = False
        #: Trace context of the submitting span (None when untraced).
        self.ctx = ctx

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    @property
    def in_flight(self) -> bool:
        return self.started_at is not None and self.completed_at is None

    def __repr__(self) -> str:
        state = "done" if self.done else ("in-flight" if self.in_flight else "queued")
        return f"<AsyncRequest {self.request_id} {self.tag} {state}>"


class AsyncRequestManager:
    """Per-node pool of ARTs draining a FIFO active list."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        max_threads: int = 4,
        monitor: Optional[Monitor] = None,
    ) -> None:
        if max_threads <= 0:
            raise ValueError("need at least one ART")
        self.env = env
        self.node = node
        self.max_threads = max_threads
        self.monitor = monitor or NULL_MONITOR
        self.tracer = get_tracer(monitor)
        #: The active list: FIFO queue of pending AsyncRequests.
        #: Same-timestamp submissions are admitted in canonical key
        #: order (ArbitratedStore), so concurrent prefetch bursts queue
        #: identically under either tie-break.
        self._active_list: ArbitratedStore = ArbitratedStore(env)
        self._outstanding: List[AsyncRequest] = []
        #: Request ids of this pool: a run's ``art_setup``/``art_io``
        #: spans number the same whatever ran before in the process.
        self._request_ids = itertools.count(1)
        self._workers = [
            env.process(self._art_loop(i), name=f"art-{node.node_id}-{i}")
            for i in range(max_threads)
        ]

    @property
    def outstanding(self) -> List[AsyncRequest]:
        """Requests submitted but not yet completed."""
        return [r for r in self._outstanding if not r.done]

    def submit(
        self,
        operation: Callable[[], Generator],
        tag: str = "async",
        ctx: Optional[TraceContext] = None,
    ):
        """Generator: set up an async request and enqueue it.

        Charges the setup/posting overhead on the node CPU (the paper's
        "request setup and posting phase"), then returns the
        :class:`AsyncRequest`; the caller waits on ``request.event`` for
        completion (or never does -- prefetches are fire-and-forget).
        """
        request = AsyncRequest(self.env, next(self._request_ids), operation, tag, ctx=ctx)
        span = NOOP_SPAN
        if self.tracer.enabled:
            span = self.tracer.begin(
                "art_setup",
                ctx=ctx,
                node_id=self.node.node_id,
                tag=tag,
                request_id=request.request_id,
            )
        yield from self.node.busy(self.node.params.async_setup_overhead_s)
        self._outstanding.append(request)
        yield self._active_list.put(request)
        self.tracer.end(span)
        self.monitor.counter(f"art.submitted.{tag}").add(1)
        return request

    def cancel_pending(self, predicate: Callable[[AsyncRequest], bool]) -> int:
        """Mark queued (not yet started) requests matching *predicate* as
        cancelled.  The ART discards them without running the operation.
        Returns the number cancelled."""
        n = 0
        for request in self._active_list.items:
            if not request.cancelled and predicate(request):
                request.cancelled = True
                n += 1
        return n

    def _art_loop(self, worker_index: int):
        while True:
            request = yield self._active_list.get()
            if request.cancelled:
                request.completed_at = self.env.now
                request.event.succeed(None)
                self._outstanding.remove(request)
                continue
            request.started_at = self.env.now
            span = NOOP_SPAN
            if self.tracer.enabled:
                span = self.tracer.begin(
                    "art_io",
                    ctx=request.ctx,
                    node_id=self.node.node_id,
                    tag=request.tag,
                    request_id=request.request_id,
                    worker=worker_index,
                )
            try:
                result = yield from request.operation()
            except Exception as exc:
                request.completed_at = self.env.now
                if self.tracer.enabled:
                    self.tracer.end(span, failed=True)
                self._outstanding.remove(request)
                request.event.fail(exc)
                continue
            request.result = result
            request.completed_at = self.env.now
            self.tracer.end(span)
            self._outstanding.remove(request)
            request.event.succeed(result)
            self.monitor.counter(f"art.completed.{request.tag}").add(1)

    def __repr__(self) -> str:
        return (
            f"<AsyncRequestManager node={self.node.node_id} "
            f"threads={self.max_threads} outstanding={len(self.outstanding)}>"
        )
