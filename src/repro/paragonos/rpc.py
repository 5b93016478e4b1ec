"""RPC endpoints between nodes over the mesh.

Every node owns an :class:`RPCEndpoint`.  A client calls
``yield from endpoint.call(server_endpoint, request)``; the request
message crosses the mesh into the server's inbox, a serve process runs
the registered handler (a generator, so it can perform disk I/O), and
the reply crosses the mesh back.  Handlers run one serve per request
-- the Paragon OS server is multithreaded, so requests from different
clients are serviced concurrently, contending only on real resources
(CPU, disks, bus).

There is no dispatcher process.  The inbox starts the serves itself when
it settles, one per settle round: each settle admits the round's
arrivals in canonical key order and starts a serve for the oldest
waiting request, and that serve's first step re-arms the inbox for the
next round.  Serve ``n`` of an endpoint carries the order key
``dispatch_key + (n,)``, where ``dispatch_key`` is the root slot the
endpoint reserved when it was built.  One serve per round (not every
waiting request at once) decides in which settle round each serve makes
its first arbiter request, so it is part of the model's timing.

A call is two callback transmissions
(:meth:`~repro.hardware.mesh.Mesh.post`) and its serve, traced or not,
fault plan or not: the request worm's delivery puts the envelope into
the inbox under the caller's order key, and the reply lands the caller
on one event pop.  :meth:`RPCEndpoint.post` is the callback form of a
call, for a caller that is not a process; :meth:`RPCEndpoint.call`
under a fault plan is one :class:`_RetriedCall` and one resume.  Both
open the call's ``rpc_call`` span, and a retried call opens an
``rpc_attempt`` span per attempt; a handler error ends them with an
``error`` attr.  The serve need not be a process either: a request type
with a callback handler (:meth:`RPCEndpoint.register_callback`, which
the PFS server registers for Fast Path reads and writes) is served by a
callback chain, traced or not, started by the same urgent event a serve
process would have been started by and arbitrating under the same key
``dispatch_key + (n,)``.  Its reply is posted as a serve process's would
be, and a handler error fails the call with the same
:class:`RPCError`.  Generator handlers (coordinator, control and
buffered requests) keep their serve processes
(:meth:`RPCEndpoint._serve`).

Fault tolerance (active only when the machine runs with a
:class:`~repro.faults.plan.FaultPlan`): calls carry a per-request reply
timeout with bounded exponential backoff; on timeout the *same* request
object -- hence the same idempotent ``msg_id`` -- is retransmitted
(:class:`_RetriedCall`).  The server deduplicates
by ``(source node, msg_id)`` (:meth:`RPCEndpoint._consult_log`): a
retransmit of an in-flight request coalesces onto the running handler,
and a retransmit of a completed one replays the cached reply without
re-executing the handler (so side-effectful work is applied at most
once), logged and replayed replies alike shipped by a
:class:`_ReplyShipper`.  A call whose budget is exhausted raises
:class:`~repro.faults.plan.FaultBudgetExceeded` carrying the trace span
chain (empty untraced).  Handler *errors* are not retried -- they are
deterministic outcomes, not lost messages -- preserving the fault-free
semantics.  Each attempt's reply timer stays queued after the reply
wins, so a faulted run's clock drains to the last timer.

The inbox is an :class:`~repro.sim.ArbitratedStore`: same-timestamp
request arrivals (natural under retry storms) are admitted in canonical
key order, keeping faulty runs bit-identical under either tie-break.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional, Tuple, Type

from repro.hardware.mesh import Mesh, MeshMessage
from repro.hardware.node import Node
from repro.obs.trace import NOOP_SPAN, get_tracer
from repro.paragonos.messages import RPCMessage
from repro.sim import ArbitratedStore, Environment
from repro.sim.events import PENDING, Event, Timeout
from repro.obs.monitor import NULL_MONITOR, Monitor

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector


class RPCError(Exception):
    """Raised when a handler fails or no handler is registered."""


class _Envelope:
    """Internal wrapper pairing a request with its reply event.

    ``key`` is the caller's order key, under which the request is
    admitted into the target's inbox.
    """

    __slots__ = ("request", "reply_event", "source", "key")

    def __init__(
        self, request: RPCMessage, reply_event: Event, source: "RPCEndpoint", key: Any
    ) -> None:
        self.request = request
        self.reply_event = reply_event
        self.source = source
        self.key = key


class _Inbox(ArbitratedStore):
    """An endpoint's request queue, which starts one serve per settle round."""

    def __init__(self, endpoint: "RPCEndpoint") -> None:
        super().__init__(endpoint.env)
        self.endpoint = endpoint
        #: True until this round's serve is started; the serve re-arms it.
        self.armed = True
        self.serves = 0

    def rearm(self) -> None:
        self.armed = True
        if self.items:
            self.env._mark_arbiter_dirty(self)

    def _settle(self) -> None:
        super()._settle()
        if self.armed and self.items:
            self.armed = False
            self.serves += 1
            self.endpoint._start_serve(self.items.pop(0), self.serves)


class _CallbackServe:
    """One request served by a callback handler (see
    :meth:`RPCEndpoint.register_callback`), taking the steps of
    :meth:`RPCEndpoint._serve` in the same order: the serve's first step,
    then its reply or handler error.

    Under a fault plan these include the serve's fault steps: the
    request log (a retransmit of a running request coalesces onto it, a
    retransmit of a finished one gets its reply again without the
    handler running), the ``rpc_stall`` wait before the handler, and
    reply shipping in envelope order (:class:`_ReplyShipper`).
    """

    __slots__ = ("endpoint", "envelope", "key", "handler", "entry")

    def __init__(self, endpoint: "RPCEndpoint", envelope: _Envelope, key: Any, handler) -> None:
        self.endpoint = endpoint
        self.envelope = envelope
        self.key = key
        self.handler = handler
        #: The request-log entry this serve runs the handler for (fault
        #: plans only).
        self.entry: Optional[Dict] = None
        # The start event a serve process would have been kicked off
        # by, with this serve's first step as its callback.
        env = endpoint.env
        start = Event(env)
        start._ok = True
        start._value = None
        start.callbacks.append(self.start)
        env.schedule(start, priority_urgent=True)

    def start(self, _event: Event) -> None:
        endpoint = self.endpoint
        endpoint._inbox.rearm()
        if endpoint.faults is not None:
            verdict, entry = endpoint._consult_log(self.envelope)
            if verdict == "coalesced":
                return
            if verdict == "replay":
                _ReplyShipper(endpoint, [self.envelope], entry["reply"], served=False)
                return
            self.entry = entry
            stall_s = endpoint._stall_s()
            if stall_s is not None:
                Timeout(endpoint.env, stall_s).callbacks.append(self._handle)
                return
        self._handle(None)

    def _handle(self, _stalled: Optional[Event]) -> None:
        try:
            self.handler(self.envelope.request, self.key, self.done)
        except Exception as exc:
            self.done(None, exc)

    def done(self, reply: Any, error: Optional[BaseException]) -> None:
        if error is not None:
            self.endpoint._fail_serve(self.envelope, self.entry, error)
        else:
            self.endpoint._reply(self.envelope, self.entry, reply)


class _ReplyShipper:
    """A logged serve's replies under a fault plan, from a serve process
    or a callback serve: to each envelope of *targets* in order (a live
    list that a coalesced retransmit may still grow), one reply worm at a
    time, each sent when the previous one is delivered.  A dropped reply
    is lost (the caller's retransmit is answered from the request log); a
    delivered one succeeds its reply event unless that was already
    triggered.  A *served* request counts ``rpc.served`` after its last
    reply; a replay does not."""

    __slots__ = ("endpoint", "targets", "reply", "shipped", "served")

    def __init__(
        self, endpoint: "RPCEndpoint", targets: List[_Envelope], reply: Any, served: bool
    ) -> None:
        self.endpoint = endpoint
        self.targets = targets
        self.reply = reply
        self.shipped = 0
        self.served = served
        self._next(None)

    def _next(self, delivered: Optional[Event]) -> None:
        targets = self.targets
        shipped = self.shipped
        if delivered is not None and not delivered._value.dropped:
            reply_event = targets[shipped - 1].reply_event
            if not reply_event.triggered:
                reply_event.succeed(self.reply)
        endpoint = self.endpoint
        if shipped == len(targets):
            if self.served:
                endpoint.monitor.counter("rpc.served").add(1)
            return
        self.shipped = shipped + 1
        proxy = Event(endpoint.env)
        proxy.callbacks.append(self._next)
        message = endpoint._reply_message(targets[shipped], self.reply)
        endpoint.mesh.post(message, proxy, message)


class _RetriedCall:
    """One call under a fault plan: timeout and bounded exponential
    backoff, retransmitting the same request (so the same idempotent
    ``msg_id``), as callbacks.

    Each attempt checks that the calling node is up, opens an
    ``rpc_attempt`` span under the call's *span*, sends the request worm
    with a fresh reply event, and starts the attempt's reply timer when
    the worm is delivered.  Whichever of the reply and the timer is
    processed first decides the attempt: a reply succeeds *done* with its
    value (or fails it with the :class:`RPCError` of a handler error, or
    with :class:`~repro.faults.plan.NodeCrashed` if the node is down by
    then); a timeout counts a retry and starts the next attempt, or fails
    *done* with :class:`~repro.faults.plan.FaultBudgetExceeded` once the
    budget is spent.  The attempt and call spans end with the attempt's
    ``outcome`` (``reply``, ``timeout``, ``node_crashed``) and the call's
    ``attempts``; a handler error ends both with its ``error``.  A timer
    stays queued after its reply wins.
    """

    __slots__ = (
        "endpoint",
        "target",
        "request",
        "key",
        "done",
        "span",
        "attempt",
        "attempt_span",
        "reply_event",
        "timer",
        "timeouts",
    )

    def __init__(
        self,
        endpoint: "RPCEndpoint",
        target: "RPCEndpoint",
        request: RPCMessage,
        key: Any,
        done: Event,
        span,
    ) -> None:
        self.endpoint = endpoint
        self.target = target
        self.request = request
        self.key = key
        self.done = done
        self.span = span
        self.attempt = 0
        self.attempt_span = NOOP_SPAN
        self.timer: Optional[Event] = None
        self.timeouts: List[float] = []
        self._send()

    def _send(self) -> None:
        endpoint = self.endpoint
        tracer = endpoint.tracer
        if endpoint.halted_fn is not None and endpoint.halted_fn():
            if tracer.enabled:
                tracer.end(self.span, attempts=self.attempt, outcome="node_crashed")
            self.done.fail(endpoint._node_crashed(self.request))
            return
        if tracer.enabled:
            self.attempt_span = tracer.begin(
                "rpc_attempt",
                ctx=self.span.ctx,
                node_id=endpoint.node.node_id,
                msg=type(self.request).__name__,
                attempt=self.attempt,
            )
        reply_event = Event(endpoint.env)
        # The server may fail this event after the attempt timed out.
        reply_event.callbacks.append(_defuse_late_failure)
        reply_event.callbacks.append(self._replied)
        self.reply_event = reply_event
        envelope = _Envelope(self.request, reply_event, endpoint, self.key)
        endpoint._post_envelope(self.target, envelope, self._delivered)

    def _delivered(self, _delivered: Event) -> None:
        endpoint = self.endpoint
        limit = endpoint.faults.plan.retry.timeout_for(self.attempt)
        self.timeouts.append(limit)
        timer = self.timer = Timeout(endpoint.env, limit)
        timer.callbacks.append(self._timed_out)

    def _replied(self, event: Event) -> None:
        done = self.done
        if event is not self.reply_event or done._value is not PENDING:
            return
        endpoint = self.endpoint
        tracer = endpoint.tracer
        if not event._ok:
            if tracer.enabled:
                error = str(event._value)
                tracer.end(self.attempt_span, error=error)
                tracer.end(self.span, attempts=self.attempt + 1, error=error)
            done.fail(event._value)
            return
        if endpoint.halted_fn is not None and endpoint.halted_fn():
            # A dead node cannot consume the reply; the request log
            # replays it when the restarted node asks again.
            if tracer.enabled:
                tracer.end(self.attempt_span, outcome="node_crashed")
                tracer.end(self.span, attempts=self.attempt + 1, outcome="node_crashed")
            done.fail(endpoint._node_crashed(self.request))
            return
        if tracer.enabled:
            tracer.end(self.attempt_span, outcome="reply")
            tracer.end(self.span, attempts=self.attempt + 1)
        done.fire(event._value)

    def _timed_out(self, timer: Event) -> None:
        if timer is not self.timer or self.done._value is not PENDING:
            return
        endpoint = self.endpoint
        tracer = endpoint.tracer
        if tracer.enabled:
            tracer.end(self.attempt_span, outcome="timeout")
        endpoint.monitor.counter("rpc.retries").add(1)
        self.attempt += 1
        if self.attempt < endpoint.faults.plan.retry.max_attempts:
            self._send()
            return
        span = self.span
        chain = []
        if tracer.enabled:
            tracer.end(span, attempts=self.attempt, outcome="budget_exceeded")
            chain = [span] + tracer.ancestors(span)
        self.done.fail(endpoint._budget_exceeded(self.target, self.request, self.timeouts, chain))


def _end_call_span(tracer, span, event: Event) -> None:
    """End a fault-free call's ``rpc_call`` *span* as its reply *event*
    lands, with ``error`` if a handler error failed it."""
    if event._ok:
        tracer.end(span)
    else:
        tracer.end(span, error=str(event._value))


def _defuse_late_failure(event) -> None:
    """Keep an abandoned reply event's late failure from crashing the sim.

    A timed-out attempt's reply event may still be failed by the server
    afterwards; nobody waits on it any more, so mark it defused.  A
    handler error on the current attempt's event still reaches the
    caller: :meth:`_RetriedCall._replied` fails the call with it.
    """
    if not event._ok:
        event.defused = True


class RPCEndpoint:
    """Message endpoint bound to one node."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        mesh: Mesh,
        monitor: Optional[Monitor] = None,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        self.env = env
        self.node = node
        self.mesh = mesh
        self.monitor = monitor or NULL_MONITOR
        self.faults = faults
        self.tracer = get_tracer(monitor)
        if faults is not None:
            #: This node's name as ``rpc_stall`` specs target it.
            self._stall_target = f"node{node.node_id}"
        #: The order-key root slot the serves of this endpoint hang off.
        self.dispatch_key = env.reserve_order_key()
        self._inbox = _Inbox(self)
        self._handlers: Dict[Type[RPCMessage], Callable[..., Generator]] = {}
        #: request type -> (callback handler, its readiness predicate).
        self._callbacks: Dict[Type[RPCMessage], Tuple[Callable[..., None], Callable]] = {}
        #: Idempotency log: (source node, msg_id) -> state.  Only
        #: populated when a fault plan is active (no cost otherwise).
        self._request_log: Dict[Tuple[int, int], Dict] = {}
        #: Optional ``() -> bool`` predicate: True while this endpoint's
        #: node is crashed.  Checked in the retry loop so a dead node's
        #: in-flight calls raise :class:`NodeCrashed` instead of
        #: retrying, and late replies to a dead node are ignored.
        self.halted_fn: Optional[Callable[[], bool]] = None

    def register(self, request_type: Type[RPCMessage], handler: Callable[..., Generator]) -> None:
        """Register *handler* (a generator function) for *request_type*.

        The handler is called as ``handler(request)`` and must return the
        reply message.
        """
        self._handlers[request_type] = handler

    def register_callback(
        self,
        request_type: Type[RPCMessage],
        handler: Callable[[RPCMessage, Any, Callable[[Any, Any], None]], None],
        ready: Callable[[RPCMessage], bool],
    ) -> None:
        """Register a callback form of *request_type*'s handler.

        A request for which ``ready(request)`` holds when its serve is
        due is served without a process (:class:`_CallbackServe`), traced
        or not: on the event that would have started the serve (after
        the request-log and ``rpc_stall`` steps under a fault plan),
        ``handler(request, key, then)`` runs, with *key* the serve's
        order key, and must call ``then(reply, None)`` once -- or
        ``then(None, error)``, which fails the call with the
        :class:`RPCError` :meth:`register`'s handler would have raised.
        Every other request of the type goes to the generator handler.
        """
        self._callbacks[request_type] = (handler, ready)

    # -- client side -----------------------------------------------------------

    def call(self, target: "RPCEndpoint", request: RPCMessage):
        """Generator: send *request* to *target*, wait for and return the reply."""
        span = self._open_call(target, request)
        if self.faults is None:
            reply = yield from self._call_once(target, request, span)
        else:
            # One resume: the retried call runs on callbacks.
            done = Event(self.env)
            _RetriedCall(self, target, request, self.env._active_process.order_key, done, span)
            reply = yield done
        self.monitor.counter("rpc.calls").add(1)
        return reply

    def _open_call(self, target: "RPCEndpoint", request: RPCMessage):
        """Open the ``rpc_call`` span of a call and thread its context
        into *request*, so downstream work (server handler, disk)
        parents under the call."""
        if not self.tracer.enabled:
            return NOOP_SPAN
        span = self.tracer.begin(
            "rpc_call",
            ctx=request.ctx,
            node_id=self.node.node_id,
            msg=type(request).__name__,
            target=target.node.node_id,
        )
        if span.ctx is not None:
            request.ctx = span.ctx
        return span

    # fast-path: requires=faults -- single attempt with no retry timer; only legal when no fault plan can stall or drop the call
    def _call_once(self, target: "RPCEndpoint", request: RPCMessage, span):
        """Fault-free call: single attempt, wait forever.  The request
        worm admits the envelope on delivery; the caller resumes once,
        when the reply worm lands, which ends the call's *span*."""
        env = self.env
        envelope = _Envelope(request, Event(env), self, env._active_process.order_key)
        if span is not NOOP_SPAN:
            envelope.reply_event.callbacks.append(partial(_end_call_span, self.tracer, span))
        self._post_envelope(target, envelope)
        return (yield envelope.reply_event)

    def post(
        self,
        target: "RPCEndpoint",
        request: RPCMessage,
        key: Any,
        on_reply: Callable[[Event], None],
    ) -> None:
        """Callback form of :meth:`call`, for a caller that is not a process.

        The request is admitted into *target*'s inbox under *key* (the
        order key a calling process would have had).  ``on_reply(event)``
        runs when the reply lands: on the pop of the reply worm's final
        grant, or under a fault plan on the pop of the reply event that
        wins its attempt (see :class:`_RetriedCall`).  If the call fails
        it runs instead with a failed event whose value is the exception
        :meth:`call` would raise: the handler's :class:`RPCError`, or
        under a fault plan :class:`~repro.faults.plan.NodeCrashed` or
        :class:`~repro.faults.plan.FaultBudgetExceeded`.  A callback that
        does not take over the failure must leave the event un-defused,
        so the error still stops the run.  The call's spans open and end
        as :meth:`call`'s do.
        """
        span = self._open_call(target, request)
        reply_event = Event(self.env)
        reply_event.callbacks.append(self._count_call)
        if self.faults is None and span is not NOOP_SPAN:
            # A retried call ends its spans itself.
            reply_event.callbacks.append(partial(_end_call_span, self.tracer, span))
        reply_event.callbacks.append(on_reply)
        if self.faults is None:
            self._post_envelope(target, _Envelope(request, reply_event, self, key))
        else:
            _RetriedCall(self, target, request, key, reply_event, span)

    def _count_call(self, event: Event) -> None:
        if event._ok:
            self.monitor.counter("rpc.calls").add(1)

    def _post_envelope(
        self,
        target: "RPCEndpoint",
        envelope: _Envelope,
        then: Optional[Callable[[Event], None]] = None,
    ) -> None:
        """Send *envelope*'s request worm; its delivery admits the
        envelope into *target*'s inbox (see :meth:`_admit`), then calls
        ``then(delivered)`` if given."""
        delivered = Event(self.env)
        delivered.callbacks.append(target._admit)
        if then is not None:
            delivered.callbacks.append(then)
        message = self._request_message(target, envelope)
        self.mesh.post(message, delivered, message)

    def _admit(self, delivered: Event) -> None:
        """Put a delivered request into the inbox under the caller's key:
        not at all if the mesh dropped it, and a second time one settle
        round later if it was duplicated."""
        message = delivered._value
        if message.dropped:
            # Lost after occupying its route; the retry timer recovers.
            return
        envelope = message.payload
        put = self._inbox.put(envelope, envelope.key)
        if message.duplicated:
            put.callbacks.append(lambda _put: self._inbox.put(envelope, envelope.key))

    def _budget_exceeded(self, target: "RPCEndpoint", request: RPCMessage, timeouts, chain):
        from repro.faults.plan import FaultBudgetExceeded

        return FaultBudgetExceeded(
            f"RPC {type(request).__name__} msg_id={request.msg_id} from node "
            f"{self.node.node_id} to node {target.node.node_id} got no reply "
            f"after {len(timeouts)} attempts (timeouts: {timeouts})",
            span_chain=chain,
            attempts=timeouts,
        )

    def _node_crashed(self, request: RPCMessage):
        from repro.faults.plan import NodeCrashed

        return NodeCrashed(
            f"node {self.node.node_id} crashed with RPC "
            f"{type(request).__name__} msg_id={request.msg_id} in flight"
        )

    def _request_message(self, target: "RPCEndpoint", envelope: _Envelope) -> MeshMessage:
        request = envelope.request
        return MeshMessage(
            src=self.node.position,
            dst=target.node.position,
            size_bytes=request.wire_bytes,
            payload=envelope,
            ctx=request.ctx,
        )

    # -- server side -------------------------------------------------------------

    def _start_serve(self, envelope: _Envelope, n: int) -> None:
        """Start serve *n* of this endpoint, for *envelope*: a callback
        serve when a ready callback handler is registered for it,
        otherwise a process."""
        key = self.dispatch_key + (n,)
        request = envelope.request
        callback = self._callbacks.get(type(request))
        if callback is not None and callback[1](request):
            _CallbackServe(self, envelope, key, callback[0])
            return
        self.env.process(
            self._serve(envelope),
            name=f"rpc-serve-{self.node.node_id}-{envelope.request.msg_id}",
            order_key=key,
        )

    def _serve(self, envelope: _Envelope):
        # Started by the inbox's settle; the next waiting request gets
        # its serve in the next settle round.
        self._inbox.rearm()
        request = envelope.request
        handler = self._handlers.get(type(request))
        if handler is None:
            envelope.reply_event.fail(
                RPCError(
                    f"node {self.node.node_id} has no handler for "
                    f"{type(request).__name__}"
                )
            )
            return
        entry = None
        if self.faults is not None:
            verdict, entry = self._consult_log(envelope)
            if verdict == "coalesced":
                return
            if verdict == "replay":
                _ReplyShipper(self, [envelope], entry["reply"], served=False)
                return
            stall_s = self._stall_s()
            if stall_s is not None:
                yield self.env.timeout(stall_s)
        try:
            reply = yield from handler(request)
        except Exception as exc:  # propagate handler failure to the caller
            self._fail_serve(envelope, entry, exc)
            return
        self._reply(envelope, entry, reply)

    def _reply(self, envelope: _Envelope, entry: Optional[Dict], reply) -> None:
        """Send a served request's *reply*: fault-free, one reply worm
        that resumes the caller on its final grant; under a fault plan,
        to every envelope of its request-log *entry*
        (:class:`_ReplyShipper`)."""
        if entry is not None:
            entry["state"] = "done"
            entry["reply"] = reply
            _ReplyShipper(self, entry["envelopes"], reply, served=True)
            return
        self.mesh.post(self._reply_message(envelope, reply), envelope.reply_event, reply)
        self.monitor.counter("rpc.served").add(1)

    def _consult_log(self, envelope: _Envelope) -> Tuple[str, Dict]:
        """A serve's request-log step under a fault plan, keyed by
        ``(source node, msg_id)``.

        Returns ``(verdict, entry)``: ``"coalesced"`` when a retransmit
        (or duplicate) of a running request joined its in-flight entry,
        whose handler will reply to it too; ``"replay"`` when the request
        already completed, so the entry's cached reply is shipped again
        and the handler never re-runs (side effects apply at most once);
        ``"new"`` when the serve logged a new in-flight entry and runs
        the handler.
        """
        key = (envelope.source.node.node_id, envelope.request.msg_id)
        entry = self._request_log.get(key)
        if entry is None:
            entry = {"state": "in-flight", "envelopes": [envelope], "reply": None}
            self._request_log[key] = entry
            return "new", entry
        if entry["state"] == "in-flight":
            if envelope not in entry["envelopes"]:
                entry["envelopes"].append(envelope)
            self.monitor.counter("rpc.duplicates_coalesced").add(1)
            return "coalesced", entry
        self.monitor.counter("rpc.replays").add(1)
        return "replay", entry

    def _stall_s(self) -> Optional[float]:
        """Seconds a new logged request waits before its handler runs,
        if an ``rpc_stall`` spec fires for this node."""
        stall = self.faults.decide("rpc_stall", self._stall_target)
        if stall is None:
            return None
        self.monitor.counter("rpc.stalls").add(1)
        return stall.duration_s

    def _fail_serve(self, envelope: _Envelope, entry: Optional[Dict], exc: BaseException) -> None:
        """Fail a serve's caller(s) with the handler's error.  A handler
        error is a deterministic outcome, not a lost message: a logged
        request's entry is dropped, so a retransmit re-raises, and every
        waiting envelope it coalesced fails."""
        if entry is None:
            envelope.reply_event.fail(RPCError(str(exc)))
            return
        del self._request_log[(envelope.source.node.node_id, envelope.request.msg_id)]
        for env_ in entry["envelopes"]:
            if not env_.reply_event.triggered:
                env_.reply_event.fail(RPCError(str(exc)))

    def _reply_message(self, envelope: _Envelope, reply) -> MeshMessage:
        return MeshMessage(
            src=self.node.position,
            dst=envelope.source.node.position,
            size_bytes=reply.wire_bytes if reply is not None else 0,
            payload=reply,
            ctx=envelope.request.ctx,
        )

    def __repr__(self) -> str:
        return f"<RPCEndpoint node={self.node.node_id}>"
