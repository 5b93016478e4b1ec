"""Shared resources for simulation processes.

- :class:`Resource` -- a semaphore with *capacity* slots and a FIFO wait
  queue (e.g. a disk head, a SCSI bus, a file-pointer token).
- :class:`PriorityResource` -- like :class:`Resource` but the wait queue is
  ordered by a priority key.
- :class:`Container` -- holds a continuous quantity (e.g. bytes of memory).
- :class:`Store` / :class:`FilterStore` -- hold discrete items (e.g. message
  queues between nodes).

Requests are events; processes ``yield`` them and may use them as context
managers for automatic release::

    with resource.request() as req:
        yield req
        ... hold the resource ...
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, List

from repro.sim.events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


def _deferred_grant(event: Event, delay: float) -> None:
    """Trigger *event* as a merged grant resuming after *delay*.

    The slot is held from now (``users.append`` happened in the caller);
    the waiter's frame runs later.  The event's value is set to the
    grant time so the waiter's bookkeeping stays bit-identical.
    """
    env = event.env
    now = env.now
    event._ok = True
    event._value = now
    env.schedule_at(event, now + delay)


class Request(Event):
    """A request to hold one slot of a :class:`Resource`.

    ``resume_delay`` makes a merged grant: a request carrying a
    positive delay is granted at the same instant it would otherwise be
    (the slot is held from the grant time), but the requester is resumed
    after the delay -- one scheduled event instead of a grant event plus
    a follow-on :class:`~repro.sim.events.Timeout`.  The event's value
    is the grant time, so the resumed process can do its wait/hold
    bookkeeping bit-identically to the stepped path; a plain (unmerged)
    grant yields ``None`` and the grant time is simply ``env.now``.
    """

    __slots__ = ("resource", "resume_delay")

    def __init__(self, resource: "Resource", resume_delay: float = 0.0) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.resume_delay = resume_delay
        resource._do_request(self)

    def _grant(self) -> None:
        """Trigger the grant, deferring the resume by ``resume_delay``."""
        delay = self.resume_delay
        if delay:
            _deferred_grant(self, delay)
        else:
            self.succeed()

    def cancel(self) -> None:
        """Withdraw an unfulfilled request from the wait queue."""
        if self._value is PENDING:
            self.resource._cancel(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.resource.release(self)


class PriorityRequest(Request):
    """A resource request with an explicit priority (lower = earlier)."""

    __slots__ = ("priority", "time", "_key")

    def __init__(self, resource: "PriorityResource", priority: float = 0.0) -> None:
        self.priority = priority
        self.time = resource.env.now
        self._key = (priority, resource._next_seq())
        super().__init__(resource)


class Resource:
    """Semaphore with *capacity* slots and a FIFO wait queue."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.users: List[Request] = []
        self.queue: List[Request] = []
        env.register_resource(self)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self, resume_delay: float = 0.0) -> Request:
        return Request(self, resume_delay)

    def release(self, request: Request) -> None:
        """Release a slot previously granted to *request*."""
        try:
            self.users.remove(request)
        except ValueError:
            # Releasing an unfulfilled or already-released request is a
            # no-op (e.g. context-manager exit after cancellation).
            if request._value is PENDING:
                self._cancel(request)
            return
        self._grant_waiters()

    # -- internals -------------------------------------------------------

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self.users.append(request)
            request._grant()
        else:
            self.queue.append(request)

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _grant_waiters(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            nxt = self.queue.pop(0)
            self.users.append(nxt)
            nxt._grant()


class PriorityResource(Resource):
    """Resource whose wait queue is ordered by request priority."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        super().__init__(env, capacity)
        self._heap: List[tuple] = []
        self._seq = 0

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def request(self, priority: float = 0.0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority)

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self.users.append(request)
            request.succeed()
        else:
            assert isinstance(request, PriorityRequest)
            heapq.heappush(self._heap, (request._key, request))

    def _cancel(self, request: Request) -> None:
        self._heap = [(k, r) for (k, r) in self._heap if r is not request]
        heapq.heapify(self._heap)

    def _grant_waiters(self) -> None:
        while self._heap and len(self.users) < self._capacity:
            _key, nxt = heapq.heappop(self._heap)
            self.users.append(nxt)
            nxt.succeed()


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


class ArbitratedRequest(Event):
    """A request to hold one slot of an :class:`ArbitratedResource`.

    ``resume_delay`` works exactly as on :class:`Request`: the slot is
    held from the (canonically settled) grant instant, but the waiter's
    frame resumes after the delay -- merging the grant and its
    follow-on timeout into one scheduled event.  The event's
    value is the exact grant time (``None`` for a plain grant).
    """

    __slots__ = ("resource", "key", "arrived_at", "resume_delay", "_seq")

    def __init__(
        self,
        resource: "ArbitratedResource",
        key: Any,
        resume_delay: float = 0.0,
    ) -> None:
        # Inlined Event.__init__ + queue insertion -- arbitrated requests
        # are the hottest request type (node CPU and SCSI bus grants).
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self.key = key
        self.arrived_at = env._now
        self.resume_delay = resume_delay
        seq = resource._seq + 1
        resource._seq = seq
        self._seq = seq
        resource.queue.append(self)
        if not resource._settle_queued:
            resource._settle_queued = True
            env._dirty_arbiters.append(resource)

    def cancel(self) -> None:
        """Withdraw an unfulfilled request from the wait queue."""
        if self._value is PENDING:
            self.resource._cancel(self)

    def __enter__(self) -> "ArbitratedRequest":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.resource.release(self)


class ArbitratedResource:
    """Semaphore whose same-timestamp grants are settled canonically.

    A plain :class:`Resource` grants a free slot synchronously, so when
    two processes request it at the same simulated time the winner is
    whichever *event* happened to pop first -- a tie-order race.  An
    ``ArbitratedResource`` never grants synchronously: requests collect
    during the timestep, and when the environment has processed every
    event at the current time it settles the resource, granting free
    slots to waiters ordered by ``(arrival time, key)``.  The key is
    model content (defaulting to the requesting process's causal
    :attr:`~repro.sim.process.Process.order_key`), so the outcome is
    identical under any tie-breaking permutation of the event queue.

    Grants still happen at the same simulated time the request was made
    (settlement never advances the clock), so switching a model from
    ``Resource`` to ``ArbitratedResource`` changes *who wins a tie*,
    never *how long anything takes*.

    API mirrors :class:`Resource`: ``request()`` returns an event to
    ``yield``, usable as a context manager; ``release()`` frees a slot.
    ``request(key=...)`` overrides the arbitration key; two requests with
    equal arrival time and equal keys fall back to insertion order (give
    contenders distinct keys to keep settlement canonical).
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.users: List[ArbitratedRequest] = []
        self.queue: List[ArbitratedRequest] = []
        self._seq = 0
        #: Set while queued for settlement (managed by the environment).
        self._settle_queued = False
        env.register_resource(self)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self, key: Any = None, resume_delay: float = 0.0) -> ArbitratedRequest:
        if key is None:
            proc = self.env._active_process
            key = proc.order_key if proc is not None else ()
        return ArbitratedRequest(self, key, resume_delay)

    def release(self, request: ArbitratedRequest) -> None:
        """Release a slot previously granted to *request*."""
        try:
            self.users.remove(request)
        except ValueError:
            if request._value is PENDING:
                self._cancel(request)
            return
        if self.queue:
            self.env._mark_arbiter_dirty(self)

    # -- internals -------------------------------------------------------

    def _cancel(self, request: ArbitratedRequest) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _settle(self) -> None:
        """Grant free slots to waiters in canonical order."""
        queue = self.queue
        if not queue:
            return
        users = self.users
        free = self._capacity - len(users)
        if free <= 0:
            return
        if len(queue) > 1:
            _canonical_sort(queue)
        env = self.env
        now = env._now
        while queue and free > 0:
            nxt = queue.pop(0)
            users.append(nxt)
            free -= 1
            delay = nxt.resume_delay
            if delay:
                # Merged grant (as _deferred_grant, inlined): hold the
                # slot from now and resume the waiter after the delay
                # with one scheduled event whose value is the grant time.
                nxt._ok = True
                nxt._value = now
                env.schedule_at(nxt, now + delay)
            else:
                nxt.succeed()


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

    A plain :class:`Store` admits puts and serves gets synchronously in
    event-pop order, so when two processes put (or get) at the same
    simulated time the item order is whichever event happened to pop
    first -- the same tie-order race :class:`ArbitratedResource` closes
    for semaphores.  An ``ArbitratedStore`` stages both sides during the
    timestep and settles when the environment has processed every event
    at the current time: queued puts are admitted ordered by ``(arrival
    time, key)`` and queued gets are served in the same canonical order,
    each taking the oldest admitted item.  Keys default to the calling
    process's causal :attr:`~repro.sim.process.Process.order_key`.

    Settlement never advances the clock, so switching a model from
    ``Store`` to ``ArbitratedStore`` changes *which same-timestamp put
    lands first*, never *how long anything takes*.  The admitted items
    live in ``.items`` (same attribute as :class:`Store`, so pool scans
    keep working).
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


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError(f"amount must be > 0, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        container._put_queue.append(self)
        container._trigger()


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError(f"amount must be > 0, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        container._get_queue.append(self)
        container._trigger()


class Container:
    """Holds a continuous quantity between 0 and *capacity*."""

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        if init < 0 or init > capacity:
            raise ValueError("init must be within [0, capacity]")
        self.env = env
        self._capacity = capacity
        self._level = init
        self._put_queue: List[ContainerPut] = []
        self._get_queue: List[ContainerGet] = []

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerPut:
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        return ContainerGet(self, amount)

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_queue:
                put = self._put_queue[0]
                if self._level + put.amount <= self._capacity:
                    self._put_queue.pop(0)
                    self._level += put.amount
                    put.succeed()
                    progressed = True
            if self._get_queue:
                get = self._get_queue[0]
                if self._level >= get.amount:
                    self._get_queue.pop(0)
                    self._level -= get.amount
                    get.succeed()
                    progressed = True


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        store._get_queue.append(self)
        store._trigger()


class FilterStoreGet(StoreGet):
    __slots__ = ("filter",)

    def __init__(self, store: "FilterStore", filter: Callable[[Any], bool]) -> None:
        self.filter = filter
        super().__init__(store)


class Store:
    """FIFO store of discrete items with optional capacity."""

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.env = env
        self._capacity = capacity
        self.items: List[Any] = []
        self._put_queue: List[StorePut] = []
        self._get_queue: List[StoreGet] = []

    @property
    def capacity(self) -> float:
        return self._capacity

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self._capacity:
            self.items.append(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(self.items.pop(0))
            return True
        return False

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            idx = 0
            while idx < len(self._put_queue):
                put = self._put_queue[idx]
                if self._do_put(put):
                    self._put_queue.pop(idx)
                    progressed = True
                else:
                    idx += 1
            idx = 0
            while idx < len(self._get_queue):
                get = self._get_queue[idx]
                if self._do_get(get):
                    self._get_queue.pop(idx)
                    progressed = True
                else:
                    idx += 1


class FilterStore(Store):
    """Store whose ``get`` takes a predicate selecting which item to take."""

    def get(self, filter: Callable[[Any], bool] = lambda item: True) -> FilterStoreGet:  # type: ignore[override]
        return FilterStoreGet(self, filter)

    def _do_get(self, event: StoreGet) -> bool:
        assert isinstance(event, FilterStoreGet)
        for i, item in enumerate(self.items):
            if event.filter(item):
                self.items.pop(i)
                event.succeed(item)
                return True
        return False
