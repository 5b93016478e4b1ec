"""Request tracing: typed spans causally linked across the whole stack.

A :class:`Tracer` records :class:`Span` objects -- named intervals of
simulated time, each belonging to a *trace* (one user-visible request)
and optionally nested under a parent span.  The PFS client opens a root
``client_call`` span per read/write call and threads a
:class:`TraceContext` down through stripe declustering, the RPC layer,
the ART machinery, the UFS, and the disk hardware, so every
``disk_service`` span can be walked back to the user call (or prefetch
issue) that caused it.

Design constraints:

- **Zero overhead when disabled.**  A disabled tracer returns a shared
  no-op span from :meth:`Tracer.begin`; no objects are allocated, no
  simulated time is consumed either way.  Tracing never schedules
  events, so enabling it cannot perturb the simulation timeline.
- **Explicit context threading.**  Instrumented calls accept a
  ``ctx: Optional[TraceContext]`` argument instead of relying on
  ambient state; concurrent processes (prefetches in flight during a
  demand read) therefore parent correctly.

Span kinds used by the stack (see ``docs/observability.md``):

``client_call``, ``coordinate``, ``stripe_piece``, ``rpc_call``,
``rpc_attempt``, ``mesh_xfer``, ``server_io``, ``disk_service``,
``scsi_xfer``, ``art_setup``, ``art_io``, ``prefetch_issue``,
``prefetch_land``, ``prefetch_wait``, ``prefetch_hit_copy``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


class TraceContext(NamedTuple):
    """Causal coordinates carried between layers.

    ``trace_id`` identifies the originating request (monotonically
    assigned per root span); ``span_id`` is the immediate parent span.
    """

    trace_id: int
    span_id: int


class Span:
    """One named interval of simulated time."""

    __slots__ = ("span_id", "trace_id", "parent_id", "kind", "node_id", "start", "end", "attrs")

    def __init__(
        self,
        span_id: int,
        trace_id: int,
        parent_id: Optional[int],
        kind: str,
        node_id: Optional[int],
        start: float,
        attrs: Optional[Dict[str, Any]],
    ) -> None:
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.kind = kind
        self.node_id = node_id
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    @property
    def ctx(self) -> TraceContext:
        """Context for children of this span."""
        return TraceContext(self.trace_id, self.span_id)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def __repr__(self) -> str:
        end = f"{self.end:.6f}" if self.end is not None else "…"
        return (
            f"<Span {self.span_id} {self.kind} trace={self.trace_id} "
            f"parent={self.parent_id} [{self.start:.6f}, {end}]>"
        )


class _NoopSpan:
    """Shared do-nothing span returned by a disabled tracer."""

    __slots__ = ()

    ctx = None
    span_id = -1
    duration = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<NoopSpan>"


#: The singleton no-op span; ``tracer.end`` recognises it by identity.
NOOP_SPAN = _NoopSpan()


class Tracer:
    """Span recorder bound to one simulation environment.

    Disabled by default; flip :attr:`enabled` (or construct with
    ``enabled=True``) to start recording.  Spans are kept in memory in
    creation order -- exporters in :mod:`repro.obs.export` turn them
    into Chrome traces, per-layer breakdowns and critical-path reports.
    """

    def __init__(self, env: Optional["Environment"] = None, enabled: bool = False) -> None:
        self.env = env
        self.enabled = enabled
        self.spans: List[Span] = []
        self._next_span_id = 0
        self._next_trace_id = 0

    # -- recording -------------------------------------------------------

    def begin(
        self,
        kind: str,
        ctx: Optional[TraceContext] = None,
        node_id: Optional[int] = None,
        **attrs: Any,
    ):
        """Open a span of *kind* at the current simulated time.

        With ``ctx=None`` the span starts a new trace (a fresh request
        ID); otherwise it joins ``ctx.trace_id`` under ``ctx.span_id``.
        Returns the :class:`Span`, or the shared no-op span when
        disabled -- callers never need to branch.
        """
        if not self.enabled:
            return NOOP_SPAN
        self._next_span_id += 1
        if ctx is None:
            self._next_trace_id += 1
            trace_id, parent_id = self._next_trace_id, None
        else:
            trace_id, parent_id = ctx.trace_id, ctx.span_id
        span = Span(
            self._next_span_id,
            trace_id,
            parent_id,
            kind,
            node_id,
            self.env.now if self.env is not None else 0.0,
            attrs or None,
        )
        self.spans.append(span)
        return span

    def record(self, kind: str, start: float, end: float, ctx=None, **attrs: Any) -> None:
        """Record a span of *kind* over ``[start, end]``: an interval
        timed ahead of the clock (a RAID access's bus transfers are timed
        at its arm grant).  Otherwise as :meth:`begin`."""
        span = self.begin(kind, ctx, **attrs)
        if span is not NOOP_SPAN:
            span.start, span.end = start, end

    def end(self, span, **attrs: Any) -> None:
        """Close *span* at the current simulated time."""
        if span is NOOP_SPAN:
            return
        span.end = self.env.now if self.env is not None else span.start
        if attrs:
            if span.attrs is None:
                span.attrs = attrs
            else:
                span.attrs.update(attrs)

    # -- queries -----------------------------------------------------------

    def clear(self) -> None:
        """Drop all recorded spans (trace IDs keep increasing)."""
        self.spans.clear()

    def by_kind(self, kind: str) -> List[Span]:
        return [s for s in self.spans if s.kind == kind]

    def span_index(self) -> Dict[int, Span]:
        return {s.span_id: s for s in self.spans}

    def ancestors(self, span: Span) -> List[Span]:
        """Chain of parents from *span* (exclusive) up to its root."""
        index = self.span_index()
        out: List[Span] = []
        current = span
        while current.parent_id is not None:
            parent = index.get(current.parent_id)
            if parent is None:
                break
            out.append(parent)
            current = parent
        return out

    def roots(self, kind: Optional[str] = None) -> List[Span]:
        """Spans with no parent, optionally filtered by kind."""
        return [s for s in self.spans if s.parent_id is None and (kind is None or s.kind == kind)]

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"<Tracer {state} spans={len(self.spans)}>"


#: Shared disabled tracer handed to components built without observability.
NULL_TRACER = Tracer(env=None, enabled=False)


def get_tracer(monitor: Any) -> Tracer:
    """Resolve the tracer behind a ``monitor`` constructor argument.

    Components across the stack take ``monitor=`` (a
    :class:`~repro.obs.monitor.Monitor` or ``None``).
    :class:`~repro.obs.observability.Observability` is a Monitor that
    also carries a tracer; this helper lets every component resolve its
    tracer once at construction time without caring which it was given.
    """
    tracer = getattr(monitor, "tracer", None)
    return tracer if isinstance(tracer, Tracer) else NULL_TRACER
