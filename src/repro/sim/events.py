"""Event primitives for the simulation kernel.

An :class:`Event` moves through three states:

1. *pending* -- created, not yet triggered.
2. *triggered* -- given a value (or failure) and scheduled on the event
   queue; ``event.triggered`` is True.
3. *processed* -- the environment has popped it and run its callbacks;
   ``event.processed`` is True.

Processes wait on events by ``yield``-ing them; the kernel resumes the
process with the event's value (or throws the event's exception into it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.environment import Environment

#: Scheduling priorities.  Lower runs earlier at the same simulated time.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1

#: Sentinel for "no value yet".
PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    env:
        The environment the event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks run when the event is processed.  ``None`` once
        #: processed (guards double-processing).
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._value

    @property
    def defused(self) -> bool:
        """True if a failure was caught by a waiter (suppresses crash)."""
        return self._defused

    @defused.setter
    def defused(self, value: bool) -> None:
        self._defused = bool(value)

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with *exception*."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def fire(self, value: Any = None) -> None:
        """Succeed with *value* and run the callbacks now, unscheduled.

        For callback chains that stand in for a process: the waiters run
        on the event pop that is being processed, at the same simulated
        time and before the timestep's next arbiter settle -- the same
        settle round a scheduled :meth:`succeed` would have reached one
        pop later -- without the extra event.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:
            callback(self)

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (callback helper)."""
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined Event.__init__ -- timeouts are the hottest event type,
        # and they are born already triggered.
        self.env = env
        self.callbacks = []
        self._defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Completion(Event):
    """An event that is also a callback chain's ``then(value, error)``:
    a process passes it as *then* and yields it.  Success fires it
    (:meth:`fire`), resuming the process on the pop that finished the
    chain; an error fails it, seen one pop later at the same time."""

    __slots__ = ()

    def __call__(self, value: Any, error: Optional[BaseException]) -> None:
        if error is None:
            self.fire(value)
        else:
            self.fail(error)


class ConditionValue:
    """Ordered mapping of events to values for fired conditions."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def keys(self) -> List[Event]:
        return list(self.events)

    def values(self) -> List[Any]:
        return [e._value for e in self.events]

    def items(self):
        return [(e, e._value) for e in self.events]

    def todict(self) -> dict:
        return {e: e._value for e in self.events}

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"


class AllOf(Event):
    """Waits for every one of *events*: succeeds with their values once
    all have fired, or fails as soon as one fails."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("events belong to different environments")

        if not self._events:
            self.succeed(ConditionValue())
            return

        for event in self._events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _populate_value(self, value: ConditionValue) -> None:
        for event in self._events:
            if isinstance(event, AllOf):
                event._populate_value(value)
            elif event.callbacks is None and event._value is not PENDING:
                value.events.append(event)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            # Fail the condition; mark the inner failure defused.
            event.defused = True
            self.fail(event._value)
        elif self._count == len(self._events):
            value = ConditionValue()
            self._populate_value(value)
            self.succeed(value)
