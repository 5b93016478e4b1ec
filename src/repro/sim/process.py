"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  Each ``yield``-ed value must
be an :class:`~repro.sim.events.Event`; the process sleeps until the event
fires and is resumed with the event's value (or, on failure, the event's
exception is thrown into the generator).

A process is itself an event: it triggers when the generator finishes
(value = the generator's return value) or raises.

Nothing interrupts a process: every process, hold and mesh worm runs to
completion once started.  A node crash is taken where a client path
checks the fault plan -- call entry, the RPC retry loop, the delivery
check -- as :class:`~repro.faults.plan.NodeCrashed`, and the workload
replays the call after the restart.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


class Process(Event):
    """An active component executing a generator function."""

    __slots__ = ("_generator", "name", "order_key", "_children")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
        order_key: Optional[tuple] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: Causal order key: a tuple path in the spawn tree.  Root
        #: processes (spawned outside any process context) get ``(n,)``
        #: in spawn order; a process spawned by a running process gets
        #: ``parent.order_key + (child_index,)``.  Because the key is
        #: derived from causal structure -- never from event-queue
        #: insertion order -- it is stable under permuted tie-breaking
        #: and is the default arbitration key of an
        #: :class:`~repro.sim.resources.Arbiter` hold.
        #:
        #: An explicit ``order_key`` bypasses both counters: neither the
        #: parent's child index nor the root counter advances, so a
        #: process whose *spawner identity* is tie-order-dependent (e.g.
        #: a rebuild kicked off lazily from whichever access noticed the
        #: repair time had passed) can still carry a canonical key
        #: without perturbing its accidental parent's future children.
        self._children = 0
        self.order_key = order_key if order_key is not None else env.reserve_order_key()
        # Kick off the process via an initialisation event.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks = [self._resume]
        env.schedule(init, priority_urgent=True)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def _resume(self, event: Event) -> None:
        """Advance the generator with *event*'s value or exception."""
        env = self.env
        env._active_process = self

        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The waited-on event failed; throw into the generator.
                    event._defused = True
                    exc = event._value
                    next_event = self._generator.throw(type(exc), exc, None)
            except StopIteration as stop:
                # Process finished normally.
                self._ok = True
                self._value = stop.value
                if self.callbacks:
                    # Someone is waiting: deliver the terminal event normally.
                    env.schedule(self)
                else:
                    # Un-joined process: mark processed without an event.
                    # A later ``yield proc`` sees the processed state and
                    # resumes immediately -- same sim time either way.
                    self.callbacks = None
                break
            except BaseException as exc:
                # Process crashed; fail the process event.
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                # Invalid yield: feed the error back into the generator.
                event = Event(env)
                event._ok = False
                event._value = TypeError(f"process {self.name!r} yielded non-event {next_event!r}")
                event._defused = False
                continue

            if next_event.callbacks is not None:
                # Event not yet processed: subscribe and go to sleep.
                next_event.callbacks.append(self._resume)
                break

            # Event already processed: resume immediately with its value.
            event = next_event

        env._active_process = None

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"
