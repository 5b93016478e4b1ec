"""Shared resources for simulation processes.

- :class:`Arbiter` -- *capacity* slots granted at the end of each
  timestep in canonical order (the node CPUs, the message co-processor,
  a mesh link).  Its waiters are events it schedules itself.
- :class:`Hold` -- one fixed-length hold of an :class:`Arbiter` slot: a
  process ``yield``-s it, or a callback chain passes ``then``.
- :class:`ArbitratedStore` -- holds discrete items (the RPC inbox, the
  ART active list), puts and gets settled in the same canonical order.

Nothing grants synchronously: a request made at simulated time *t* is
decided once every event at *t* has run, by ``(arrival time, key,
sequence)``, where the key is model content (by default the requesting
process's causal :attr:`~repro.sim.process.Process.order_key`).  So a
same-instant tie is won by content, never by event-pop order.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.sim.events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


#: The native sort key of a queued request or store put/get.
_native_order = attrgetter("arrived_at", "key", "_seq")


def _canonical_order(waiter: Any) -> Any:
    """Best-effort natural sort key of a queued request or store put/get.

    Keys at one resource are normally homogeneous (all process order
    keys, or all caller-supplied tuples) and compare natively; if a
    resource ever sees mixed shapes, fall back to a stable textual
    order so settlement remains deterministic rather than raising.
    """
    return (waiter.arrived_at, _CanonKey(waiter.key), waiter._seq)


def _canonical_sort(queue: List[Any]) -> None:
    """Sort *queue* by ``(arrival time, key, sequence number)``.

    Natively first; only a queue whose keys do not compare natively
    (mixed shapes raise ``TypeError``) is re-sorted through
    :class:`_CanonKey`.  The result is the same either way: where native
    comparison succeeds, ``_CanonKey`` gives the same answer, and the
    unique sequence number makes the order total, so the re-sort does
    not depend on the order the failed sort left behind.
    """
    try:
        queue.sort(key=_native_order)
    except TypeError:
        queue.sort(key=_canonical_order)


class _CanonKey:
    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __lt__(self, other: "_CanonKey") -> bool:
        try:
            return self.key < other.key
        except TypeError:
            return repr(self.key) < repr(other.key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _CanonKey) and self.key == other.key


def _canonical_entry(entry: Tuple[float, Any, int, Event]) -> Any:
    """The canonical sort key of a queued arbiter entry, for a queue
    whose keys do not compare natively (see :func:`_canonical_sort`)."""
    return (entry[0], _CanonKey(entry[1]), entry[2])


class Arbiter:
    """*capacity* slots, granted at the end of a timestep in canonical order.

    A waiter is an event with a hold length ``seconds`` and a ``tail``.
    Requesting a slot appends ``(arrival time, key, sequence, waiter)``
    to :attr:`queue` and puts the arbiter on the environment's dirty
    arbiters (unless it is already there).  Once the timestep has no
    events left, :meth:`_settle` sorts the queue -- natively, the unique
    sequence number keeps the waiter itself out of the comparison -- and
    hands each free slot to the next waiter: the waiter's value becomes
    the grant time and the arbiter schedules the waiter itself at
    ``now + seconds + tail``.  Grants never advance the clock, so the
    arbitration decides *who wins a tie*, never *how long anything
    takes*.

    A :class:`Hold` releases its slot when it pops and books its
    ``seconds`` into :attr:`busy_s`.  A waiter of another kind releases
    the slot itself, as a mesh worm does when its body has streamed
    through (``tail`` is the body time on the worm's last hop): it
    books ``released_at - granted_at``, increments :attr:`free`, clears
    :attr:`holder` and re-dirties the arbiter if waiters are queued.

    A request runs to completion: nothing cancels a queued waiter or
    revokes a grant.
    """

    __slots__ = (
        "env",
        "name",
        "capacity",
        "free",
        "holder",
        "granted_at",
        "busy_s",
        "queue",
        "_seq",
        "_settle_queued",
    )

    def __init__(self, env: "Environment", capacity: int = 1, name: str = "arbiter") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.env = env
        self.name = name
        self.capacity = capacity
        #: Slots not held.
        self.free = capacity
        #: The waiter granted last, until a slot is released (on a
        #: capacity-1 arbiter, the holder).  Cleared at the release, so
        #: a finished waiter and what it references are not kept alive.
        self.holder: Optional[Event] = None
        #: The instant of the last grant.
        self.granted_at = 0.0
        #: Seconds the slots were held, summed over every release.
        self.busy_s = 0.0
        self.queue: List[Tuple[float, Any, int, Event]] = []
        self._seq = 0
        #: Set while queued for settlement (managed by the environment).
        self._settle_queued = False
        env.register_resource(self)

    @property
    def users(self) -> Tuple[Optional[Event], ...]:
        """One entry per held slot, read by
        :func:`~repro.analysis.sanitizers.leaked_resources`, so a slot
        still held once the event queue drains reports as a leak.  On a
        capacity-1 arbiter the entry is the holder."""
        return (self.holder,) * (self.capacity - self.free)

    def _settle(self) -> None:
        """Grant free slots to waiters in canonical order (called by the
        Environment)."""
        queue = self.queue
        free = self.free
        if not queue or not free:
            return
        if len(queue) > 1:
            try:
                queue.sort()
            except TypeError:
                # Keys of mixed shapes: the same order, through _CanonKey.
                queue.sort(key=_canonical_entry)
        env = self.env
        now = env._now
        self.granted_at = now
        while queue and free:
            waiter = queue.pop(0)[3]
            free -= 1
            # The grant and the waiter's resume are one event; the tail
            # is added after the hold, so the float is the one
            # successive timeouts would give.
            waiter._value = now
            env.schedule_at(waiter, now + waiter.seconds + waiter.tail)
        self.free = free
        self.holder = waiter

    def __repr__(self) -> str:
        return f"<{self.name}>"


class Hold(Event):
    """Hold one slot of *arbiter* for *seconds* from its grant.

    The hold is its own waiter: granted at the settle, it pops
    *seconds* later (a zero-second hold pops at its grant instant),
    releases the slot, books *seconds* into the arbiter's ``busy_s`` and
    calls ``then()`` if one was given.  A process ``yield``-s a hold
    made without ``then`` and resumes after the release with the grant
    time; a callback chain passes ``then`` and keeps no reference.
    *key* defaults to the active process's causal order key.
    """

    __slots__ = ("arbiter", "seconds", "then")

    #: Added after ``seconds`` at the grant (see :meth:`Arbiter._settle`).
    tail = 0.0

    def __init__(
        self,
        arbiter: Arbiter,
        seconds: float,
        key: Any = None,
        then: Optional[Callable[[], None]] = None,
    ) -> None:
        if seconds < 0:
            raise ValueError(f"negative hold {seconds}")
        # Inlined Event.__init__ and queue insertion: holds are the
        # hottest waiters (every CPU and co-processor grant).
        env = arbiter.env
        self.env = env
        self.callbacks = [_release_hold] if then is None else _RELEASE_THEN
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.arbiter = arbiter
        self.seconds = seconds
        self.then = then
        if key is None:
            proc = env._active_process
            key = proc.order_key if proc is not None else ()
        seq = arbiter._seq + 1
        arbiter._seq = seq
        arbiter.queue.append((env._now, key, seq, self))
        if not arbiter._settle_queued:
            arbiter._settle_queued = True
            env._dirty_arbiters.append(arbiter)


def _release_hold(hold: Hold) -> None:
    """Run by a hold's pop: book it, release its slot, call ``then``."""
    arbiter = hold.arbiter
    arbiter.busy_s += hold.seconds
    arbiter.free += 1
    arbiter.holder = None
    if arbiter.queue and not arbiter._settle_queued:
        arbiter._settle_queued = True
        arbiter.env._dirty_arbiters.append(arbiter)
    then = hold.then
    if then is not None:
        then()


#: The callbacks of every hold made with ``then``: one shared list, as
#: nothing else subscribes to such a hold.
_RELEASE_THEN = [_release_hold]


class ArbitratedStorePut(Event):
    """A request to place *item* into an :class:`ArbitratedStore`."""

    __slots__ = ("store", "item", "key", "arrived_at", "_seq")

    def __init__(self, store: "ArbitratedStore", item: Any, key: Any) -> None:
        super().__init__(store.env)
        self.store = store
        self.item = item
        self.key = key
        self.arrived_at = store.env.now
        store._do_put(self)

    def cancel(self) -> None:
        """Withdraw an unfulfilled put from the wait queue."""
        if self._value is PENDING:
            try:
                self.store._put_queue.remove(self)
            except ValueError:
                pass


class ArbitratedStoreGet(Event):
    """A request to take the oldest item from an :class:`ArbitratedStore`."""

    __slots__ = ("store", "key", "arrived_at", "_seq")

    def __init__(self, store: "ArbitratedStore", key: Any) -> None:
        super().__init__(store.env)
        self.store = store
        self.key = key
        self.arrived_at = store.env.now
        store._do_get(self)

    def cancel(self) -> None:
        """Withdraw an unfulfilled get from the wait queue."""
        if self._value is PENDING:
            try:
                self.store._get_queue.remove(self)
            except ValueError:
                pass


class ArbitratedStore:
    """Store whose same-timestamp puts and gets settle canonically.

    A store that admitted puts and served gets synchronously would order
    same-instant items by event pop -- the tie-order race an
    :class:`Arbiter` closes for slots.  An ``ArbitratedStore`` stages
    both sides during the timestep and settles when the environment has
    processed every event at the current time: queued puts are admitted
    ordered by ``(arrival time, key)`` and queued gets are served in the
    same canonical order, each taking the oldest admitted item.  Keys
    default to the calling process's causal
    :attr:`~repro.sim.process.Process.order_key`.  Settlement never
    advances the clock.  The admitted items live in ``.items``.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.env = env
        self._capacity = capacity
        self.items: List[Any] = []
        self._put_queue: List[ArbitratedStorePut] = []
        self._get_queue: List[ArbitratedStoreGet] = []
        self._seq = 0
        #: Set while queued for settlement (managed by the environment).
        self._settle_queued = False
        env.register_resource(self)

    @property
    def capacity(self) -> float:
        return self._capacity

    def _default_key(self, key: Any) -> Any:
        if key is None:
            proc = self.env.active_process
            key = proc.order_key if proc is not None else ()
        return key

    def put(self, item: Any, key: Any = None) -> ArbitratedStorePut:
        return ArbitratedStorePut(self, item, self._default_key(key))

    def get(self, key: Any = None) -> ArbitratedStoreGet:
        return ArbitratedStoreGet(self, self._default_key(key))

    # -- internals -------------------------------------------------------

    def _do_put(self, event: ArbitratedStorePut) -> None:
        self._seq += 1
        event._seq = self._seq
        self._put_queue.append(event)
        self.env._mark_arbiter_dirty(self)

    def _do_get(self, event: ArbitratedStoreGet) -> None:
        self._seq += 1
        event._seq = self._seq
        self._get_queue.append(event)
        self.env._mark_arbiter_dirty(self)

    def _settle(self) -> None:
        """Admit queued puts and serve queued gets in canonical order."""
        progressed = True
        while progressed:
            progressed = False
            if self._put_queue and len(self.items) < self._capacity:
                if len(self._put_queue) > 1:
                    _canonical_sort(self._put_queue)
                while self._put_queue and len(self.items) < self._capacity:
                    put = self._put_queue.pop(0)
                    self.items.append(put.item)
                    if put.callbacks:
                        put.succeed()
                    else:
                        # Fire-and-forget put (nobody yielded it): admit
                        # without scheduling a wake-up event.
                        put._ok = True
                        put._value = None
                        put.callbacks = None
                    progressed = True
            if self._get_queue and self.items:
                if len(self._get_queue) > 1:
                    _canonical_sort(self._get_queue)
                while self._get_queue and self.items:
                    get = self._get_queue.pop(0)
                    get.succeed(self.items.pop(0))
                    progressed = True
