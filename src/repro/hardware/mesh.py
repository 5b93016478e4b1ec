"""2D wormhole-routed mesh interconnect.

The Paragon backplane is a 2D mesh with XY (dimension-ordered) routing.
We model each directed link as a one-slot
:class:`~repro.sim.resources.Arbiter` owned by the mesh.  A message
reserves the links along its XY route one at a time in path order (the
way a worm's header flit advances), then holds the whole path while the
body streams through at link bandwidth.  Dimension-ordered acquisition
keeps the model deadlock-free, exactly as it does for the hardware.

Every transmission is one worm (:meth:`Mesh.post`), and the worm is
itself the event the kernel schedules: after its software overhead,
then after each hop grant, each grant merged with the hop's hold (the
last also with the body's streaming time).  The worm is the link's
waiter: same-instant contenders are ordered by ``(arrival time, route
key, sequence)``, and the settle schedules the granted worm itself.
When the settle would grant a link to the worm alone (the link is
free, no arbiter is dirty and no other event is due now), the worm
books the grant itself; when no other event is due at or before its
next pop either, it moves the clock there in place, so one kernel pop
may carry a worm through several hops.  It counts each event it skips,
so later event ids are those the pops would have had.  The worm
releases its links on delivery and books each one's busy seconds from
its grant.  The sender is woken once, on delivery.
Traced and faulted runs take the same worm: the ``mesh_xfer`` span
opens at send and closes at delivery, and ``mesh_drop``/``mesh_dup``
are decided at delivery.

On the real machine the mesh (175 MB/s links) is never the I/O
bottleneck -- the disks are three orders of magnitude slower -- but
modelling it keeps scaling studies honest and charges the per-message
software overhead that makes many small requests expensive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.hardware.params import MeshParams

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
from repro.obs.trace import get_tracer
from repro.sim import Arbiter, Environment
from repro.sim.events import Event
from repro.obs.monitor import NULL_MONITOR, Monitor

Coord = Tuple[int, int]
Link = Tuple[Coord, Coord]

_INF = float("inf")


def _link_label(link: Link) -> str:
    (ax, ay), (bx, by) = link
    return f"{ax},{ay}->{bx},{by}"


@dataclass(slots=True)
class MeshMessage:
    """A message in flight on the mesh."""

    src: Coord
    dst: Coord
    size_bytes: int
    payload: Any = None
    enqueued_at: float = 0.0
    delivered_at: float = field(default=0.0)
    #: Trace context of the causing span (None when untraced).
    ctx: Any = None
    #: Set by fault injection: the message occupied its route but was
    #: lost (the sender must not act on it having arrived).
    dropped: bool = False
    #: Set by fault injection: the message was delivered twice.
    duplicated: bool = False


class _Worm(Event):
    """One mesh transmission, scheduled as its own event.

    The kernel pops the worm after its software overhead and after hop
    grants; each pop runs :meth:`_advance`, which takes the worm through
    its next links in XY order, granting itself those it provably wins
    alone and queueing on the first it does not.  After the last grant
    it runs :meth:`_finish`, which releases the route, decides any
    ``mesh_drop``/``mesh_dup`` fault, closes the ``mesh_xfer`` span and
    fires ``proxy`` with ``wake_value`` -- the sender's one wake-up.  The
    proxy is an event that is never scheduled, so delivery costs no
    event of its own.

    Nothing here looks inside a hop: the span covers [send, delivery],
    and mesh faults are time-window predicates decided at delivery.  The
    worm belongs to no process and, like every process and hold, runs to
    completion: it holds its links until the body has streamed through.
    A crash is taken at call entry (``NodeCrashed``) and the call
    replayed, never by cutting a worm short.
    """

    __slots__ = (
        "mesh",
        "message",
        "links",
        "hops",
        "route_key",
        "seconds",
        "tail",
        "body_time",
        "idx",
        "proxy",
        "wake_value",
        "span",
    )

    def __init__(
        self, mesh: "Mesh", message: MeshMessage, proxy: Event, value: Any, span: Any
    ) -> None:
        env = mesh.env
        self.env = env
        # Born triggered, like a Timeout; the kernel re-runs _ADVANCE on
        # every pop (a shared list of the plain function, so the worm
        # holds no bound method of itself).
        self.callbacks = _ADVANCE
        self._value = None
        self._ok = True
        self._defused = False
        self.mesh = mesh
        self.message = message
        self.proxy = proxy
        self.wake_value = value
        self.span = span
        p = mesh.params
        self.route_key = route_key = (message.src, message.dst)
        self.links = links = mesh._route_links(route_key)
        self.hops = len(links)
        #: Each link's hold before the worm moves on (read by the
        #: arbiter at the grant), and what the grant adds after it: the
        #: body's streaming time on the last hop, else nothing.
        self.seconds = p.per_hop_s
        self.tail = 0.0
        self.body_time = message.size_bytes / p.link_bandwidth_bps
        #: Links requested so far (1 once a zero-hop body is streaming).
        self.idx = 0
        # Software send overhead (charged regardless of distance).
        env.schedule(self, p.sw_overhead_s)

    def _advance(self) -> None:
        """Run by each pop of the worm: request the next link, or finish.

        When the settle would grant the link to this worm alone -- the
        link is free, no arbiter is dirty (a free link with waiters is
        always dirty, so its queue is empty too) and no event is queued
        at ``now`` -- the worm books the grant itself, as
        :meth:`Arbiter._settle` would.  If its next pop would also be the
        kernel's next one (every queued event is strictly later), it
        counts the event it skips and moves the clock there in place.
        """
        env = self.env
        queue = env._queue
        now = env._now
        # Nothing below pushes an event or dirties an arbiter before it
        # returns, so both hold at every hop the worm runs ahead to.
        next_at = queue[0][0] if queue else _INF
        alone = next_at > now and not env._dirty_arbiters
        hops = self.hops
        idx = self.idx
        while idx < hops:
            link = self.links[idx]
            self.idx = idx = idx + 1
            if idx == hops:
                self.tail = self.body_time
            if alone and link.free:
                link.free = 0
                link.granted_at = now
                link.holder = self
                self._value = now
                when = now + self.seconds + self.tail
                if next_at <= when:
                    self.callbacks = _ADVANCE
                    env.schedule_at(self, when)
                    return
                env._eid += 1
                env._now = now = when
                continue
            self.callbacks = _ADVANCE
            seq = link._seq + 1
            link._seq = seq
            link.queue.append((now, self.route_key, seq, self))
            if not link._settle_queued:
                link._settle_queued = True
                env._dirty_arbiters.append(link)
            return
        if idx == 0 and self.body_time > 0:
            # Zero-hop message: stream the body as one more pop, by the
            # same rule.
            self.idx = 1
            when = now + self.body_time
            if not alone or next_at <= when:
                self.callbacks = _ADVANCE
                env.schedule_at(self, when)
                return
            env._eid += 1
            env._now = when
        self._finish()

    def _finish(self) -> None:
        mesh = self.mesh
        env = self.env
        released_at = env._now
        for link in self.links:
            link.busy_s += released_at - link.granted_at
            link.free += 1
            link.holder = None
            if link.queue and not link._settle_queued:
                link._settle_queued = True
                env._dirty_arbiters.append(link)
        message = self.message
        message.delivered_at = released_at
        faults = mesh.faults
        if faults is not None:
            if faults.watches_mesh:
                # Window-triggered only (see repro.faults.plan): same-time
                # sends have no canonical global order, so drop/dup
                # decisions depend on sim time alone and are
                # tie-break-invariant.  The worm still paid full route
                # occupancy + streaming time.
                pair = f"{message.src[0]},{message.src[1]}->{message.dst[0]},{message.dst[1]}"
                if faults.decide("mesh_drop", pair) is not None:
                    message.dropped = True
                elif faults.decide("mesh_dup", pair) is not None:
                    message.duplicated = True
            if self.span is not None:
                mesh.tracer.end(self.span, dropped=message.dropped, duplicated=message.duplicated)
        elif self.span is not None:
            mesh.tracer.end(self.span)
        mesh._c_messages.add(1)
        mesh._c_bytes.add(message.size_bytes)
        # Wake the sender on this same event pop (no extra event).
        self.proxy.fire(self.wake_value)


#: The callbacks of every worm pop: the kernel calls ``_Worm._advance(worm)``.
_ADVANCE = [_Worm._advance]


class Mesh:
    """A ``width`` x ``height`` 2D mesh of nodes."""

    def __init__(
        self,
        env: Environment,
        width: int,
        height: int,
        params: Optional[MeshParams] = None,
        monitor: Optional[Monitor] = None,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("mesh dimensions must be positive")
        self.env = env
        self.width = width
        self.height = height
        self.params = params or MeshParams()
        self.monitor = monitor = monitor or NULL_MONITOR
        self.faults = faults
        self.tracer = get_tracer(monitor)
        self._links: Dict[Link, Arbiter] = {}
        #: (src, dst) -> the links along the XY route -- routes are
        #: static, so each pair's route is computed and resolved once.
        self._route_cache: Dict[Tuple[Coord, Coord], Tuple[Arbiter, ...]] = {}
        # Hot-path monitor objects, resolved once instead of per message.
        self._c_messages = monitor.counter("mesh.messages")
        self._c_bytes = monitor.counter("mesh.bytes")

    # -- topology ---------------------------------------------------------

    def contains(self, coord: Coord) -> bool:
        x, y = coord
        return 0 <= x < self.width and 0 <= y < self.height

    def route(self, src: Coord, dst: Coord) -> List[Link]:
        """XY (dimension-ordered) route: X first, then Y."""
        if not self.contains(src):
            raise ValueError(f"source {src} outside {self.width}x{self.height} mesh")
        if not self.contains(dst):
            raise ValueError(f"destination {dst} outside {self.width}x{self.height} mesh")
        links: List[Link] = []
        x, y = src
        dx = 1 if dst[0] > x else -1
        while x != dst[0]:
            nxt = (x + dx, y)
            links.append(((x, y), nxt))
            x += dx
        dy = 1 if dst[1] > y else -1
        while y != dst[1]:
            nxt = (x, y + dy)
            links.append(((x, y), nxt))
            y += dy
        return links

    def hops(self, src: Coord, dst: Coord) -> int:
        return abs(src[0] - dst[0]) + abs(src[1] - dst[1])

    def _link(self, link: Link) -> Arbiter:
        res = self._links.get(link)
        if res is None:
            res = self._links[link] = Arbiter(self.env, name=f"mesh link {_link_label(link)}")
        return res

    def link_busy_s(self) -> Dict[str, float]:
        """Seconds each directed link was held by a worm, by link label."""
        links = self._links
        return {_link_label(link): links[link].busy_s for link in links}

    def _route_links(self, key: Tuple[Coord, Coord]) -> Tuple[Arbiter, ...]:
        """Cached links along the XY route from ``key[0]`` to ``key[1]``."""
        links = self._route_cache.get(key)
        if links is None:
            links = tuple(self._link(link) for link in self.route(*key))
            self._route_cache[key] = links
        return links

    # -- transmission -------------------------------------------------------

    def transfer_time(self, src: Coord, dst: Coord, size_bytes: int) -> float:
        """Uncontended latency of a message."""
        p = self.params
        return (
            p.sw_overhead_s + self.hops(src, dst) * p.per_hop_s + size_bytes / p.link_bandwidth_bps
        )

    def post(self, message: MeshMessage, proxy: Event, value: Any) -> None:
        """Transmit *message*; fire *proxy* with *value* on delivery.

        Reserves the XY route link-by-link (header flit), then streams
        the body while holding the path, then releases every link.  No
        process waits on the transmission, so the sender may be a
        callback chain (an RPC request delivered straight into the
        target's inbox, a reply resuming its caller).  The proxy fires
        on the final grant's pop, after any drop/duplicate decision has
        been written onto *message*.
        """
        if message.size_bytes < 0:
            raise ValueError("message size must be non-negative")
        message.enqueued_at = self.env._now
        tracer = self.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin(
                "mesh_xfer",
                ctx=message.ctx,
                bytes=message.size_bytes,
                src=message.src,
                dst=message.dst,
            )
        _Worm(self, message, proxy, value, span)

    def send(self, message: MeshMessage):
        """Generator: transmit *message*; returns it once delivered."""
        proxy = Event(self.env)
        self.post(message, proxy, message)
        return (yield proxy)

    def __repr__(self) -> str:
        return f"<Mesh {self.width}x{self.height}>"
