"""2D wormhole-routed mesh interconnect.

The Paragon backplane is a 2D mesh with XY (dimension-ordered) routing.
We model each directed link as a unit-capacity resource.  A message
reserves the links along its XY route one at a time in path order (the
way a worm's header flit advances), then holds the whole path while the
body streams through at link bandwidth.  Dimension-ordered acquisition
keeps the model deadlock-free, exactly as it does for the hardware.

Every transmission is one callback worm (:meth:`Mesh.post`): the hop
grants drive it without resuming the sender, who is woken once, on
delivery.  Traced and faulted runs take the same worm: the
``mesh_xfer`` span opens at send and closes at delivery, and
``mesh_drop``/``mesh_dup`` are decided at delivery.

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
from repro.sim import ArbitratedResource, Environment
from repro.sim.events import Event, Timeout
from repro.obs.monitor import NULL_MONITOR, Monitor

Coord = Tuple[int, int]
Link = Tuple[Coord, Coord]


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


class _Worm:
    """One mesh transmission, driven by event callbacks.

    The software-overhead timeout and each hop's merged grant run
    :meth:`advance`, which requests the next link in XY order; the final
    grant's pop runs :meth:`_finish`, which releases the route, decides
    any ``mesh_drop``/``mesh_dup`` fault, closes the ``mesh_xfer`` span
    and fires ``proxy`` with ``value`` -- the sender's one wake-up.  The
    proxy is an event that is never scheduled, so delivery costs no
    event of its own.

    Nothing here looks inside a hop: the span covers [send, delivery],
    and mesh faults are time-window predicates decided at delivery.  The
    worm belongs to no process, so an interrupted sender does not cut it
    short: it holds its links until the body has streamed through.
    """

    __slots__ = (
        "mesh",
        "message",
        "pairs",
        "route_key",
        "per_hop",
        "body_time",
        "idx",
        "requests",
        "granted",
        "body_waited",
        "proxy",
        "value",
        "span",
    )

    def __init__(
        self, mesh: "Mesh", message: MeshMessage, proxy: Event, value: Any, span: Any
    ) -> None:
        self.mesh = mesh
        self.message = message
        self.proxy = proxy
        self.value = value
        self.span = span
        p = mesh.params
        self.pairs = mesh._route_pairs(message.src, message.dst)
        self.route_key = (message.src, message.dst)
        self.per_hop = p.per_hop_s
        self.body_time = message.size_bytes / p.link_bandwidth_bps
        self.idx = -1
        self.requests: list = []
        self.granted: list = []
        self.body_waited = False
        # Software send overhead (charged regardless of distance), with
        # the worm itself as the continuation.
        sw = Timeout(mesh.env, p.sw_overhead_s)
        sw.callbacks.append(self.advance)

    def advance(self, event: Event) -> None:
        """Continuation run by each hop's merged grant (and the sw timeout)."""
        mesh = self.mesh
        env = mesh.env
        idx = self.idx
        if idx >= 0:
            granted_at = event._value
            if granted_at is None:
                granted_at = env._now
            self.granted.append(granted_at)
        pairs = self.pairs
        nxt = idx + 1
        self.idx = nxt
        last = len(pairs) - 1
        if nxt <= last:
            res = pairs[nxt][1]
            # Each link's grant + hold timeout is one merged event; the
            # last link also absorbs the body streaming time.  The tuple
            # makes the resume time's float arithmetic identical to
            # successive per-hop + body timeouts.
            delay = (self.per_hop, self.body_time) if nxt == last else self.per_hop
            req = res.request(  # sim-ok: R005 -- every hold is released in _finish, which runs on the final grant of this same worm
                key=self.route_key, resume_delay=delay
            )
            self.requests.append(req)
            req.callbacks.append(self.advance)
            return
        if last < 0 and self.body_time > 0 and not self.body_waited:
            # Zero-hop message: stream the body with a plain timeout.
            self.body_waited = True
            body = Timeout(env, self.body_time)
            body.callbacks.append(self.advance)
            return
        self._finish(env)

    def _finish(self, env: Environment) -> None:
        mesh = self.mesh
        pairs = self.pairs
        released_at = env._now
        requests = self.requests
        for i in range(len(pairs)):
            pairs[i][1].release(requests[i])
        busy = mesh._link_busy_s
        granted = self.granted
        for i in range(len(pairs)):
            link = pairs[i][0]
            busy[link] = busy.get(link, 0.0) + (released_at - granted[i])
        message = self.message
        message.delivered_at = released_at
        faults = mesh.faults
        if faults is not None:
            # Window-triggered only (see repro.faults.plan): same-time
            # sends have no canonical global order, so drop/dup decisions
            # depend on sim time alone and are tie-break-invariant.  The
            # worm still paid full route occupancy + streaming time.
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
        self.proxy.fire(self.value)


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
        self._links: Dict[Link, ArbitratedResource] = {}
        #: (src, dst) -> [(link, link resource), ...] -- XY routes are
        #: static, so each pair's route is computed and resolved once.
        self._route_cache: Dict[Tuple[Coord, Coord], List[Tuple[Link, ArbitratedResource]]] = {}
        #: Per-directed-link seconds held by a streaming worm.
        self._link_busy_s: Dict[Link, float] = {}
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

    def _link(self, link: Link) -> ArbitratedResource:
        res = self._links.get(link)
        if res is None:
            # Arbitrated: two worms requesting the same link at the same
            # simulated time are ordered by (src, dst), not by event
            # insertion order -- port arbitration must not be a race.
            res = self._links[link] = ArbitratedResource(self.env, capacity=1)
        return res

    def link_busy_s(self) -> Dict[str, float]:
        """Seconds each directed link was held by a worm, by link label."""
        return {_link_label(link): self._link_busy_s.get(link, 0.0) for link in self._links}

    def _route_pairs(self, src: Coord, dst: Coord) -> List[Tuple[Link, ArbitratedResource]]:
        """Cached [(link, resource), ...] along the XY route."""
        key = (src, dst)
        pairs = self._route_cache.get(key)
        if pairs is None:
            pairs = [(link, self._link(link)) for link in self.route(src, dst)]
            self._route_cache[key] = pairs
        return pairs

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
