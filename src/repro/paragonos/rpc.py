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

Without a fault plan, a call is two callback transmissions
(:meth:`~repro.hardware.mesh.Mesh.post`) and one serve, traced or not:
the request worm's delivery puts the envelope into the inbox under the
caller's order key, and the reply worm's delivery resumes the caller
directly.  :meth:`RPCEndpoint.post` is the callback form of a call, for
a caller that is not a process.  When the tracer is off too, the serve
itself need not be a process either: a request type with a callback
handler (:meth:`RPCEndpoint.register_callback`, which the PFS server
registers for Fast Path reads and writes) is served by a callback chain,
started by the same urgent event a serve process would have been started
by and arbitrating under the same key ``dispatch_key + (n,)``.  Its
reply is posted as a serve process's would be, and a handler error fails
the call with the same :class:`RPCError`.

Fault tolerance (active only when the machine runs with a
:class:`~repro.faults.plan.FaultPlan`): calls carry a per-request reply
timeout with bounded exponential backoff; on timeout the *same* request
object -- hence the same idempotent ``msg_id`` -- is retransmitted.  The
server deduplicates by ``(source node, msg_id)``: a retransmit of an
in-flight request coalesces onto the running handler, and a retransmit
of a completed one replays the cached reply without re-executing the
handler (so side-effectful work is applied at most once).  A call whose
budget is exhausted raises
:class:`~repro.faults.plan.FaultBudgetExceeded` carrying the trace span
chain.  Handler *errors* are not retried -- they are deterministic
outcomes, not lost messages -- preserving the fault-free semantics.

The inbox is an :class:`~repro.sim.ArbitratedStore`: same-timestamp
request arrivals (natural under retry storms) are admitted in canonical
key order, keeping faulty runs bit-identical under either tie-break.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional, Tuple, Type

from repro.hardware.mesh import Mesh, MeshMessage
from repro.hardware.node import Node
from repro.obs.trace import get_tracer
from repro.paragonos.messages import RPCMessage
from repro.sim import ArbitratedStore, Environment
from repro.sim.events import Event
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


# fast-path: requires=faults,tracer -- a serve with no process; only an unobserved, fault-free endpoint starts one
class _CallbackServe:
    """One request served by a callback handler (see
    :meth:`RPCEndpoint.register_callback`): the serve's first step, then
    its reply or handler error, as :meth:`RPCEndpoint._serve` does them."""

    __slots__ = ("endpoint", "envelope", "key", "handler")

    def __init__(self, endpoint: "RPCEndpoint", envelope: _Envelope, key: Any, handler) -> None:
        self.endpoint = endpoint
        self.envelope = envelope
        self.key = key
        self.handler = handler
        # The start event a serve process would have been kicked off
        # by, with this serve's first step as its callback.
        env = endpoint.env
        start = Event(env)
        start._ok = True
        start._value = None
        start.callbacks.append(self.start)
        env.schedule(start, priority_urgent=True)

    def start(self, _event: Event) -> None:
        self.endpoint._inbox.rearm()
        try:
            self.handler(self.envelope.request, self.key, self.done)
        except Exception as exc:
            self.done(None, exc)

    def done(self, reply: Any, error: Optional[BaseException]) -> None:
        envelope = self.envelope
        if error is not None:
            envelope.reply_event.fail(RPCError(str(error)))
            return
        endpoint = self.endpoint
        # The reply worm resumes the caller on its final grant.
        endpoint.mesh.post(endpoint._reply_message(envelope, reply), envelope.reply_event, reply)
        endpoint.monitor.counter("rpc.served").add(1)


def _defuse_late_failure(event) -> None:
    """Keep an abandoned reply event's late failure from crashing the sim.

    A timed-out attempt's reply event may still be failed by the server
    afterwards; nobody waits on it any more, so mark it defused.  Added
    at creation time, this callback runs before any later-constructed
    condition's check -- and defusing does not stop a *pending* AnyOf
    from failing, so handler errors raised before the timeout still
    propagate to the caller.
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
        #: Callback calls (see :meth:`post`) and callback serves: legal
        #: only when nothing can observe or perturb a call's interior --
        #: no fault plan (retries, drops, the idempotency log), no trace
        #: spans (a callback serve opens none).
        self._fast = faults is None and not self.tracer.enabled
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

        On an endpoint with callback calls (no fault plan or tracer), a
        request for which ``ready(request)`` holds when its serve is due
        is served without a process: on the event that
        would have started the serve, ``handler(request, key, then)``
        runs, with *key* the serve's order key, and must call
        ``then(reply, None)`` once -- or ``then(None, error)``, which
        fails the call with the :class:`RPCError` :meth:`register`'s
        handler would have raised.  Every other request of the type
        goes to the generator handler.
        """
        self._callbacks[request_type] = (handler, ready)

    # -- client side -----------------------------------------------------------

    def call(self, target: "RPCEndpoint", request: RPCMessage):
        """Generator: send *request* to *target*, wait for and return the reply."""
        span = self.tracer.begin(
            "rpc_call",
            ctx=request.ctx,
            node_id=self.node.node_id,
            msg=type(request).__name__,
            target=target.node.node_id,
        )
        if span.ctx is not None:
            # Downstream work (server handler, disk) parents under the call.
            request.ctx = span.ctx
        if self.faults is None:
            reply = yield from self._call_once(target, request)
            self.tracer.end(span)
        else:
            reply = yield from self._call_with_retries(target, request, span)
        self.monitor.counter("rpc.calls").add(1)
        return reply

    # fast-path: requires=faults -- single attempt with no retry timer; only legal when no fault plan can stall or drop the call
    def _call_once(self, target: "RPCEndpoint", request: RPCMessage):
        """Fault-free call: single attempt, wait forever.  The request
        worm admits the envelope on delivery; the caller resumes once,
        when the reply worm lands."""
        env = self.env
        envelope = _Envelope(request, Event(env), self, env._active_process.order_key)
        self._post_envelope(target, envelope)
        return (yield envelope.reply_event)

    # fast-path: requires=faults,tracer -- callback call: no process waits on either transmission
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
        runs when the reply lands, on the pop of the reply worm's final
        grant; if the handler failed it runs instead with a failed event
        whose value is the :class:`RPCError` :meth:`call` would raise.
        A callback that does not take over the failure must leave the
        event un-defused, so the error still stops the run.
        """
        reply_event = Event(self.env)
        reply_event.callbacks.append(self._count_call)
        reply_event.callbacks.append(on_reply)
        self._post_envelope(target, _Envelope(request, reply_event, self, key))

    def _count_call(self, event: Event) -> None:
        if event._ok:
            self.monitor.counter("rpc.calls").add(1)

    # fast-path: requires=faults -- the request worm's delivery admits the envelope by callback; nothing can drop or duplicate it
    def _post_envelope(self, target: "RPCEndpoint", envelope: _Envelope) -> None:
        delivered = Event(self.env)
        delivered.callbacks.append(target._admit)
        self.mesh.post(self._request_message(target, envelope), delivered, envelope)

    def _admit(self, delivered: Event) -> None:
        envelope = delivered._value
        self._inbox.put(envelope, envelope.key)

    def _call_with_retries(self, target: "RPCEndpoint", request: RPCMessage, span):
        """Timeout + bounded exponential backoff with idempotent msg_id."""
        policy = self.faults.plan.retry
        timeouts: List[float] = []
        for attempt in range(policy.max_attempts):
            if self.halted_fn is not None and self.halted_fn():
                self.tracer.end(span, attempts=attempt, outcome="node_crashed")
                raise self._node_crashed(request)
            attempt_span = self.tracer.begin(
                "rpc_attempt",
                ctx=span.ctx,
                node_id=self.node.node_id,
                msg=type(request).__name__,
                attempt=attempt,
            )
            reply_event = self.env.event()
            # The server may fail this event after we have timed out and
            # moved on; defuse such late failures (see helper docstring).
            reply_event.callbacks.append(_defuse_late_failure)
            envelope = _Envelope(request, reply_event, self, self.env._active_process.order_key)
            yield from self._transmit(target, envelope)
            limit = policy.timeout_for(attempt)
            timeouts.append(limit)
            timeout_event = self.env.timeout(limit)
            outcome = yield self.env.any_of([reply_event, timeout_event])
            if reply_event in outcome:
                if self.halted_fn is not None and self.halted_fn():
                    # The reply arrived while the node was down: a dead
                    # node cannot consume it.  The server's idempotency
                    # log replays it when the restarted node re-asks.
                    self.tracer.end(attempt_span, outcome="node_crashed")
                    self.tracer.end(span, attempts=attempt + 1, outcome="node_crashed")
                    raise self._node_crashed(request)
                reply = outcome[reply_event]
                self.tracer.end(attempt_span, outcome="reply")
                self.tracer.end(span, attempts=attempt + 1)
                return reply
            self.tracer.end(attempt_span, outcome="timeout")
            self.monitor.counter("rpc.retries").add(1)
        self.tracer.end(span, attempts=policy.max_attempts, outcome="budget_exceeded")
        from repro.faults.plan import FaultBudgetExceeded
        from repro.obs.trace import NOOP_SPAN

        chain = [] if span is NOOP_SPAN else [span] + self.tracer.ancestors(span)
        raise FaultBudgetExceeded(
            f"RPC {type(request).__name__} msg_id={request.msg_id} from node "
            f"{self.node.node_id} to node {target.node.node_id} got no reply "
            f"after {policy.max_attempts} attempts (timeouts: {timeouts})",
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

    def _transmit(self, target: "RPCEndpoint", envelope: _Envelope):
        """Carry one attempt of a retried call across the mesh, which may
        drop or duplicate it, and into the target inbox."""
        message = self._request_message(target, envelope)
        yield from self.mesh.send(message)
        if message.dropped:
            # Lost after occupying its route; the retry timeout recovers.
            return
        yield target._inbox.put(envelope, envelope.key)
        if message.duplicated:
            yield target._inbox.put(envelope, envelope.key)

    # -- server side -------------------------------------------------------------

    def _start_serve(self, envelope: _Envelope, n: int) -> None:
        """Start serve *n* of this endpoint, for *envelope*: a callback
        serve when a ready callback handler is registered for it,
        otherwise a process."""
        key = self.dispatch_key + (n,)
        if self._fast:
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
            key = (envelope.source.node.node_id, request.msg_id)
            entry = self._request_log.get(key)
            if entry is not None:
                if entry["state"] == "in-flight":
                    # Retransmit (or duplicate) of a running request:
                    # coalesce onto the in-flight handler's reply.
                    if envelope not in entry["envelopes"]:
                        entry["envelopes"].append(envelope)
                    self.monitor.counter("rpc.duplicates_coalesced").add(1)
                    return
                # Completed: replay the cached reply, never re-execute.
                self.monitor.counter("rpc.replays").add(1)
                yield from self._send_reply(envelope, entry["reply"])
                return
            entry = {"state": "in-flight", "envelopes": [envelope], "reply": None}
            self._request_log[key] = entry
            stall = self.faults.decide("rpc_stall", self._stall_target)
            if stall is not None:
                self.monitor.counter("rpc.stalls").add(1)
                yield self.env.timeout(stall.duration_s)
        try:
            reply = yield from handler(request)
        except Exception as exc:  # propagate handler failure to the caller
            if entry is not None:
                # A handler error is a deterministic outcome, not a lost
                # message: drop the log entry so a retransmit re-raises.
                del self._request_log[(envelope.source.node.node_id, request.msg_id)]
                for env_ in entry["envelopes"]:
                    if not env_.reply_event.triggered:
                        env_.reply_event.fail(RPCError(str(exc)))
            else:
                envelope.reply_event.fail(RPCError(str(exc)))
            return
        if entry is not None:
            entry["state"] = "done"
            entry["reply"] = reply
            for env_ in entry["envelopes"]:
                yield from self._send_reply(env_, reply)
        else:
            # Fault-free: the reply worm resumes the caller on its final
            # grant; this serve has nothing left to wait for.
            self.mesh.post(self._reply_message(envelope, reply), envelope.reply_event, reply)
        self.monitor.counter("rpc.served").add(1)

    def _reply_message(self, envelope: _Envelope, reply) -> MeshMessage:
        return MeshMessage(
            src=self.node.position,
            dst=envelope.source.node.position,
            size_bytes=reply.wire_bytes if reply is not None else 0,
            payload=reply,
            ctx=envelope.request.ctx,
        )

    def _send_reply(self, envelope: _Envelope, reply):
        """Ship a retried call's reply back across the mesh (which may
        drop it) before waking the caller."""
        message = self._reply_message(envelope, reply)
        yield from self.mesh.send(message)
        if message.dropped:
            # Reply lost in the mesh; the caller times out and the
            # retransmit is answered from the idempotency log.
            return
        if not envelope.reply_event.triggered:
            envelope.reply_event.succeed(reply)

    def __repr__(self) -> str:
        return f"<RPCEndpoint node={self.node.node_id}>"
