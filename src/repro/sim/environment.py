"""The simulation environment: clock and event loop."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, Iterable, List, Optional, Tuple, Union

from repro.sim.events import (
    PENDING,
    AllOf,
    Event,
    Timeout,
)
from repro.sim.process import Process


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


#: Heap entries are ``(time, key, event)`` with ``key`` packing priority
#: and tie-break rank into one integer: ``priority * 2**53 +
#: tie_sign * eid``.  Urgent events (priority 0) sort below normal ones
#: (priority 1) at the same time regardless of eid, and within a
#: priority the eid term reproduces fifo (+eid) or lifo (-eid) popping
#: exactly as the old ``(time, priority, tie_sign*eid, event)`` 4-tuple
#: did -- one tuple slot and one comparison fewer per push/pop.  2**53
#: leaves room for 9e15 events, far beyond any run.
_NORMAL_BASE = 1 << 53


class StopSimulation(Exception):
    """Raised to stop the event loop when the ``until`` event fires."""

    @classmethod
    def callback(cls, event: Event) -> None:
        if event._ok:
            raise cls(event._value)
        raise event._value


class Environment:
    """Discrete-event simulation environment.

    The environment owns the simulated clock (:attr:`now`, in seconds) and
    the pending-event queue.  Time only advances inside :meth:`run`.
    """

    #: Valid tie-breaking orders for same-(time, priority) events.
    TIE_BREAKS = ("fifo", "lifo")

    def __init__(self, initial_time: float = 0.0, tie_break: str = "fifo") -> None:
        if tie_break not in self.TIE_BREAKS:
            raise ValueError(f"tie_break must be one of {self.TIE_BREAKS}, got {tie_break!r}")
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, Event]] = []
        self._eid = 0
        #: Tie-breaking among events with equal (time, priority).  The
        #: default ("fifo") pops them in scheduling order; "lifo" pops
        #: them in reverse.  The tie-order race sanitizer runs the same
        #: experiment under both orders: a mechanism-faithful simulation
        #: must produce bit-identical reports either way, because
        #: same-timestamp arbitration is settled by canonical keys
        #: (:class:`~repro.sim.resources.Arbiter`), never by event
        #: insertion order.
        self.tie_break = tie_break
        self._tie_sign = 1 if tie_break == "fifo" else -1
        self._active_process: Optional[Process] = None
        #: Arbiters and arbitrated stores with undecided grants, settled
        #: when the current timestep has no events left (see :meth:`step`).
        self._dirty_arbiters: List[Any] = []
        #: Every resource ever constructed on this environment, in
        #: creation order -- the runtime leak sanitizer walks this.
        self._resources: List[Any] = []
        #: Root-process counter used to assign causal order keys (see
        #: :attr:`~repro.sim.process.Process.order_key`).
        self._root_processes = 0

    # -- introspection --------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between events)."""
        return self._active_process

    @property
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def __len__(self) -> int:
        return len(self._queue)

    # -- factories -------------------------------------------------------

    def event(self) -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing after *delay* seconds."""
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
        order_key: Optional[tuple] = None,
    ) -> Process:
        """Start a new :class:`Process` running *generator*.

        ``order_key`` overrides the causal spawn-tree key (see
        :attr:`~repro.sim.process.Process.order_key`) -- use it when the
        spawner's identity is itself tie-order-dependent.
        """
        return Process(self, generator, name=name, order_key=order_key)

    def reserve_order_key(self) -> tuple:
        """Take the causal order key the next spawned process would get.

        Root context (no active process) takes the next root slot ``(n,)``;
        inside a running process it takes the next child slot
        ``parent.order_key + (i,)``.  :class:`Process` draws its key from
        here; callback chains that stand in for a process (an RPC
        endpoint's serves, a client's fan-out of stripe pieces) reserve
        the same key so arbitration sees the same contenders.
        """
        parent = self._active_process
        if parent is None:
            self._root_processes += 1
            return (self._root_processes,)
        parent._children += 1
        return parent.order_key + (parent._children,)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all *events* have fired."""
        return AllOf(self, events)

    def register_resource(self, resource: Any) -> None:
        """Record *resource* for end-of-run leak checking.

        Called by the constructors in :mod:`repro.sim.resources`.  The
        list is append-only and in creation order, so walking it is
        deterministic.
        """
        self._resources.append(resource)

    @property
    def resources(self) -> Tuple[Any, ...]:
        """All resources constructed on this environment (creation order)."""
        return tuple(self._resources)

    def _mark_arbiter_dirty(self, arbiter: Any) -> None:
        """Queue *arbiter* for settlement at the end of this timestep."""
        if not arbiter._settle_queued:
            arbiter._settle_queued = True
            self._dirty_arbiters.append(arbiter)

    def _settle_arbiters(self) -> None:
        """Settle every dirty arbiter (canonical grant order).

        Settling may schedule waiters at the current time, which may
        dirty further arbiters; :meth:`step` loops until the timestep is
        quiescent before letting the clock advance.  :meth:`run` inlines
        the same loop.
        """
        while self._dirty_arbiters:
            # Swap the batch out so settles that re-dirty arbiters append
            # to a fresh list; processing order matches the one-at-a-time
            # FIFO exactly (current batch in order, then the new batch).
            batch = self._dirty_arbiters
            self._dirty_arbiters = []
            for arbiter in batch:
                arbiter._settle_queued = False
                arbiter._settle()

    # -- scheduling -------------------------------------------------------

    def schedule(
        self,
        event: Event,
        delay: float = 0.0,
        priority_urgent: bool = False,
    ) -> None:
        """Put *event* on the queue to be processed after *delay*."""
        eid = self._eid + 1
        self._eid = eid
        key = self._tie_sign * eid
        if not priority_urgent:
            key += _NORMAL_BASE
        heappush(self._queue, (self._now + delay, key, event))

    def schedule_at(
        self,
        event: Event,
        when: float,
        priority_urgent: bool = False,
    ) -> None:
        """Put *event* on the queue at absolute time *when* (>= now).

        Merged grants use this to reproduce the *exact* float
        a chain of successive timeouts would have produced (``(g + a) +
        b`` is not bit-identical to ``g + (a + b)``); callers pass the
        successively-added absolute time rather than a summed delay.
        """
        eid = self._eid + 1
        self._eid = eid
        key = self._tie_sign * eid
        if not priority_urgent:
            key += _NORMAL_BASE
        heappush(self._queue, (when, key, event))

    def step(self) -> None:
        """Process the next scheduled event, advancing the clock.

        Before the clock may advance past the current time (or the queue
        runs dry), pending arbiter grants are settled so that
        same-timestamp acquisition order is decided by canonical keys,
        never by event insertion order.

        One step may carry a mesh worm through several hops: a worm that
        is provably the next event books its own link grant and moves
        the clock to its next pop in place, counting the event it skips
        (see :class:`~repro.hardware.mesh._Worm`).
        """
        queue = self._queue
        if self._dirty_arbiters and (not queue or queue[0][0] > self._now):
            self._settle_arbiters()
        try:
            when, _key, event = heappop(queue)
        except IndexError:
            raise EmptySchedule() from None

        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # An un-waited-for event failed: crash the simulation so bugs
            # do not pass silently.
            exc = event._value
            raise exc

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` -- run until the event queue is empty.
            number -- run until the clock reaches that time.
            :class:`Event` -- run until that event is processed and return
            its value.
        """
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    # Already processed.
                    if stop_event._ok:
                        return stop_event._value
                    raise stop_event._value
                stop_event.callbacks.append(StopSimulation.callback)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until ({at}) must not be before the current time ({self._now})"
                    )
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                stop_event.callbacks = [StopSimulation.callback]
                self.schedule(stop_event, delay=at - self._now, priority_urgent=True)

        # Inlined event loop: identical to calling step() repeatedly (the
        # settle loop of _settle_arbiters included) but without the
        # per-event method calls and re-resolved globals.
        queue = self._queue
        pop = heappop
        try:
            while True:
                if self._dirty_arbiters and (not queue or queue[0][0] > self._now):
                    while self._dirty_arbiters:
                        batch = self._dirty_arbiters
                        self._dirty_arbiters = []
                        for arbiter in batch:
                            arbiter._settle_queued = False
                            arbiter._settle()
                if not queue:
                    raise EmptySchedule()
                when, _key, event = pop(queue)
                self._now = when
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            return stop.args[0]
        except EmptySchedule:
            if stop_event is not None and stop_event._value is PENDING:
                raise RuntimeError(
                    f"no scheduled events left but {stop_event!r} was not triggered"
                ) from None
        return None

    def __repr__(self) -> str:
        return f"<Environment t={self._now:.6f} queued={len(self._queue)}>"
