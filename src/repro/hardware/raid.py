"""RAID-3 array model.

RAID-3 byte-interleaves data across N spindle-synchronised data disks
with one dedicated parity disk.  Because the spindles are synchronised
and dedicated to the array, they position and stream in lockstep: the
array behaves like a single mechanism with N times the media rate of one
spindle.  Reads engage the data disks; writes engage data + parity
(which streams concurrently, adding no time).

The array streams onto a :class:`~repro.hardware.scsi.SCSIBus`; media
read and bus transfer are pipelined, so a transfer is governed by the
*slower* of total media rate and bus bandwidth (the bus, on the default
calibration).

An access is timed at its arm grant.  The arm serialises every reader
and writer of the head, track-cache and jitter state, so once granted
an access is a fixed chain of waits: the controller overhead,
positioning, the bus stream and, to reconstruct, the parity share and
the XOR pass.  Its fault decisions (a scheduled disk failure now due,
an injected error, a media error, a slow sector) are taken at the grant
plus the controller overhead, so an access that something can act
inside pops there first; any other pops once, at its completion.
"""

from __future__ import annotations

import math
import zlib
from typing import TYPE_CHECKING, Any, Callable, Optional, Set, Tuple

from repro.hardware.params import DiskParams, RAIDParams

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
from repro.hardware.scsi import SCSIBus
from repro.obs.trace import get_tracer
from repro.sim import Environment
from repro.sim.events import Completion, Event
from repro.obs.monitor import NULL_MONITOR, Monitor


class RAIDError(Exception):
    """Raised for invalid array requests."""


class RAID3Array:
    """A RAID-3 array of spindle-synchronised disks behind one SCSI bus.

    Two pieces of drive/controller realism matter for parallel
    workloads:

    - **Elevator scheduling** (default on): queued requests are served
      nearest-LBA-first, so interleaved arrivals from many compute nodes
      at consecutive offsets still stream near-sequentially.
    - **Track cache**: a request falling entirely inside the most
      recently transferred region is served from the drive buffer with
      no positioning cost (several clients reading the *same* region --
      e.g. M_ASYNC with all private pointers at the same offset -- only
      pay the disk once).
    """

    def __init__(
        self,
        env: Environment,
        bus: SCSIBus,
        name: str = "raid",
        disk_params: Optional[DiskParams] = None,
        raid_params: Optional[RAIDParams] = None,
        elevator: bool = True,
        monitor: Optional[Monitor] = None,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        self.env = env
        self.bus = bus
        self.name = name
        self.disk_params = disk_params or DiskParams()
        self.raid_params = raid_params or RAIDParams()
        self.monitor = monitor = monitor or NULL_MONITOR
        self.faults = faults
        self.tracer = get_tracer(monitor)
        self.elevator = elevator
        if self.raid_params.data_disks <= 0:
            raise ValueError("a RAID-3 array needs at least one data disk")
        #: Requests waiting for the (ganged) arm, written only by
        #: :meth:`_enqueue` and popped only by :meth:`_grant_next`:
        #: (lba, causal key, arrived_at, access) entries.  LOOK picks nearest-to-head in the sweep
        #: direction, tie-broken by (lba, key); FIFO picks by
        #: (arrived_at, key, position).  Neither lets same-timestamp
        #: event-pop order decide the winner.
        self._pending: list = []
        self._busy = False
        #: Arbiter-settlement hook (see Environment._mark_arbiter_dirty):
        #: grants are issued when the clock is about to advance, after all
        #: same-timestamp arrivals are queued.
        self._settle_queued = False
        self._sweep_up = True
        self._head_lba = 0
        #: Seeded LCG for rotational-latency jitter: real positioning is
        #: uniform over a revolution, which keeps multiple synchronous
        #: clients from phase-locking into artificial perfect schedules.
        #: (zlib.crc32, not hash(): runs must be reproducible across
        #: processes regardless of PYTHONHASHSEED.)
        self._rng_state = (zlib.crc32(name.encode()) & 0xFFFFFFFF) | 1
        self._last_end_lba: Optional[int] = None
        #: The most recently transferred region (drive track cache).
        self._cached_start = 0
        self._cached_end = 0
        #: Fault injection: number of upcoming accesses that will fail.
        self._fail_next = 0
        #: Spindle indices currently failed (0..data_disks-1 are data,
        #: index ``data_disks`` is the parity spindle).  RAID-3 survives
        #: any single failure; a second concurrent failure loses data.
        self._failed_disks: Set[int] = set()
        #: Latched when redundancy was exceeded; all later accesses fail.
        self._data_lost = False
        #: Copy-back rebuild state.  While a rebuild runs, the stripe
        #: region below ``_rebuild_frontier`` has been copied onto the
        #: replacement spindle and reads there are served at full speed;
        #: reads above it still pay degraded reconstruction.
        self._rebuilding = False
        self._rebuild_frontier = 0
        self._rebuild_target = 0
        self._rebuild_index = 0
        self._rebuild_rate = 1.0
        #: Bytes written onto the replacement spindle (the failed
        #: spindle's share of the live stripe region).
        self.rebuild_copied_bytes = 0
        #: Completed rebuild count (also the completion flag tests
        #: assert on).
        self.rebuilds_completed = 0
        #: Live-region oracle wired by the Machine (bytes of allocated
        #: stripe content on this array); the rebuild only copies this
        #: region.  Falls back to the access high-water mark.
        self.live_bytes_fn = None
        self._high_water = 0
        #: Accumulated time the arm was held (utilisation).
        self.busy_s = 0.0
        # Leak-checked like any acquire/release resource (see users).
        env.register_resource(self)
        # Hot-path monitor objects, resolved once instead of per access.
        self._c_reads = monitor.counter(f"{name}.reads")
        self._c_writes = monitor.counter(f"{name}.writes")
        self._c_bytes_read = monitor.counter(f"{name}.bytes_read")
        self._c_bytes_write = monitor.counter(f"{name}.bytes_write")
        self._c_sequential = monitor.counter(f"{name}.sequential_hits")
        self._c_cache_hits = monitor.counter(f"{name}.track_cache_hits")

    # -- geometry ------------------------------------------------------------

    @property
    def data_disks(self) -> int:
        return self.raid_params.data_disks

    @property
    def capacity_bytes(self) -> int:
        """Logical capacity (data disks only; parity is not addressable)."""
        return self.disk_params.capacity_bytes * self.data_disks

    @property
    def media_rate_bps(self) -> float:
        """Aggregate media rate of the synchronised data spindles."""
        return self.disk_params.media_rate_bps * self.data_disks

    # -- service-time model ---------------------------------------------------

    def seek_time(self, from_lba: int, to_lba: int) -> float:
        """Ganged seek: all spindles cover 1/N of the logical distance."""
        p = self.disk_params
        distance = abs(to_lba - from_lba) / self.data_disks
        if distance == 0:
            return 0.0
        frac = min(1.0, distance / p.capacity_bytes)
        return p.min_seek_s + (p.full_seek_s - p.min_seek_s) * math.sqrt(frac)

    def cached(self, lba: int, nbytes: int) -> bool:
        """True if the range is inside the most recent transfer (track cache)."""
        return self._cached_start <= lba and lba + nbytes <= self._cached_end

    def _rotational_latency(self) -> float:
        """Jittered rotational latency: uniform over one revolution."""
        self._rng_state = (self._rng_state * 1103515245 + 12345) & 0x7FFFFFFF
        frac = self._rng_state / 0x7FFFFFFF
        return frac * self.disk_params.rotation_s

    def estimate_service_time(self, lba: int, nbytes: int) -> float:
        """Uncontended estimate for planning/tests (non-sequential)."""
        stream = nbytes / min(self.media_rate_bps, self.bus.params.bandwidth_bps)
        return (
            self.raid_params.controller_overhead_s
            + (self.seek_time(self._head_lba, lba) + self._rotational_latency())
            + self.bus.params.arbitration_s
            + stream
        )

    # -- operations ------------------------------------------------------------

    def _validate(self, lba: int, nbytes: int) -> None:
        if nbytes < 0:
            raise RAIDError(f"negative transfer size {nbytes}")
        if lba < 0 or lba + nbytes > self.capacity_bytes:
            raise RAIDError(
                f"request [{lba}, {lba + nbytes}) outside array capacity " f"{self.capacity_bytes}"
            )

    def _grant_next(self) -> None:
        """Dispatch the next pending request.

        Elevator mode is a proper LOOK sweep: serve the nearest request
        *in the current direction*, reversing only when none remain
        ahead.  (Greedy nearest-first -- SSTF -- starves distant
        requests under saturation.)  FIFO mode serves in arrival order,
        with same-timestamp arrivals ordered by causal key.

        The grant times the access.  When nothing can act inside it --
        no injected error is pending, no spindle is failed, and the
        fault plan, if any, spares the array
        (:meth:`FaultInjector.spares`) -- its whole service is computed
        here (:meth:`_serve`) and it pops once, at its completion.  Any
        other access pops first at its decision instant, the grant plus
        the controller overhead (:meth:`_CallbackAccess._decide`).  A
        rebuild chunk makes no fault decision, so it is timed here too.
        """
        pending = self._pending
        if self._busy or not pending:
            return
        if len(pending) == 1:
            # Sole entry always wins; only the LOOK sweep-direction flip
            # (which steers future multi-entry picks) must still happen.
            if self.elevator:
                lba0 = pending[0][0]
                head = self._head_lba
                if not (lba0 >= head if self._sweep_up else lba0 <= head):
                    self._sweep_up = not self._sweep_up
            best = 0
        elif self.elevator:
            head = self._head_lba
            ahead = [
                i
                for i, entry in enumerate(pending)
                if (entry[0] >= head if self._sweep_up else entry[0] <= head)
            ]
            if not ahead:
                self._sweep_up = not self._sweep_up
                ahead = list(range(len(pending)))
            best = min(
                ahead,
                key=lambda i: (
                    abs(pending[i][0] - head),
                    pending[i][0],
                    pending[i][1],
                ),
            )
        else:
            best = min(
                range(len(pending)),
                key=lambda i: (pending[i][2], pending[i][1], i),
            )
        access = pending.pop(best)[3]
        self._busy = True
        now = access.started_at = self.env._now
        when = now + self.raid_params.controller_overhead_s
        kind = access.kind
        if kind == "rebuild":
            self._serve(access, when, False, True, False)
        elif (
            not self._fail_next
            and not self._failed_disks
            and (self.faults is None or self.faults.spares(self.name))
        ):
            cache_hit = kind == "read" and self.cached(access.lba, access.nbytes)
            self._serve(access, when, cache_hit, False, False)
        else:
            access.callbacks = _DECIDE
            self.env.schedule_at(access, when)

    def _serve(
        self, access: "_CallbackAccess", at: float, cache_hit: bool, reconstruct: bool, xor: bool
    ) -> None:
        """Time the rest of a granted *access* from *at*, the instant its
        decisions are taken, and schedule its completion pop: positioning
        (unless it is a track-cache hit or sequential), the data stream
        through the bus at the slower of bus and media rate, then, to
        *reconstruct*, the parity spindle's share across the bus and the
        controller's XOR pass, or, for *xor* alone (a degraded write),
        the XOR pass.  Each instant is the float that waiting out each
        step in turn gives (``(a + b) + c``, never ``a + (b + c)``)."""
        nbytes = access.nbytes
        bus = self.bus.params
        rate = bus.bandwidth_bps
        access.cache_hit = cache_hit
        if not cache_hit:
            lba = access.lba
            access.sequential = sequential = self._last_end_lba == lba
            if not sequential:
                # Positioning: seek plus rotational latency, one sum.
                at += self.seek_time(self._head_lba, lba) + self._rotational_latency()
            media = self.media_rate_bps
            if media < rate:
                rate = media
        access.xfer_at = at
        access.data_s = data_s = bus.arbitration_s + nbytes / rate
        end = at + data_s
        if reconstruct:
            share = -(-nbytes // self.raid_params.data_disks)
            rate = bus.bandwidth_bps
            spindle = self.disk_params.media_rate_bps
            if spindle < rate:
                rate = spindle
            access.parity = share
            access.parity_s = parity_s = bus.arbitration_s + share / rate
            end += parity_s
            end += nbytes / self.raid_params.xor_rate_bps
        elif xor:
            end += nbytes / self.raid_params.xor_rate_bps
        access.callbacks = _FINISH
        self.env.schedule_at(access, end)

    def _settle(self) -> None:
        """End-of-timestep arbitration hook (called by the Environment)."""
        self._grant_next()

    def _degraded_range(self, lba: int, nbytes: int) -> bool:
        """Does an access to ``[lba, lba + nbytes)`` pay reconstruction?

        During a copy-back rebuild the replacement spindle already holds
        everything below the rebuild frontier, so accesses entirely
        inside the rebuilt region run at full speed; anything touching
        the un-rebuilt tail still reconstructs from parity.
        """
        if not self.degraded:
            return False
        if self._rebuilding and lba + nbytes <= self._rebuild_frontier:
            return False
        return True

    def _enqueue(self, access: "_CallbackAccess", key: Any) -> None:
        """Queue *access* for the arm under *key*."""
        env = self.env
        self._pending.append((access.lba, key, env._now, access))
        env._mark_arbiter_dirty(self)

    def access_then(
        self, kind: str, lba: int, nbytes: int, key: Any, then: Callable, ctx=None
    ) -> None:
        """Read (all data spindles engage) or write (the parity spindle
        streams concurrently) *nbytes* at logical *lba*, by *kind*: the
        one form of an access.  A process waits on it by passing a
        :class:`~repro.sim.events.Completion` as *then*.

        The access queues for the arm under *key* (a calling process's
        order key) and is timed at its grant (see :meth:`_grant_next`);
        ``then(nbytes, None)`` runs on the pop of its completion, and an
        error it meets arrives as ``then(None, error)`` on the pop that
        meets it.  Traced, it opens a ``disk_service`` span, which
        covers queueing, positioning and transfer: the full time the
        request spent at the storage layer.  Validation errors raise
        here.
        """
        self._validate(lba, nbytes)
        if lba + nbytes > self._high_water:
            self._high_water = lba + nbytes
        if self.faults is not None:
            self.faults.tick()
        span = None
        if self.tracer.enabled:
            span = self.tracer.begin(
                "disk_service", ctx=ctx, device=self.name, op=kind, lba=lba, bytes=nbytes
            )
        self._enqueue(_CallbackAccess(self, kind, lba, nbytes, then, span), key)

    def inject_failures(self, count: int = 1) -> None:
        """Fault injection: make the next *count* accesses fail with
        :class:`RAIDError` (failure-path testing)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._fail_next += count

    # -- degraded mode ---------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while at least one spindle is failed (parity covers it)."""
        return bool(self._failed_disks)

    def fail_disk(self, index: int = 0) -> None:
        """A spindle dies.  One failure degrades the array (every access
        from now on pays parity reconstruction); a second concurrent
        failure exceeds RAID-3 redundancy and loses data."""
        if index < 0 or index > self.data_disks:
            raise RAIDError(
                f"disk index {index} outside array (0..{self.data_disks}, "
                f"where {self.data_disks} is the parity spindle)"
            )
        if index in self._failed_disks:
            return
        if self._failed_disks:
            self._data_lost = True
        self._failed_disks.add(index)
        self.monitor.counter(f"{self.name}.disk_failures").add(1)

    def repair_disk(self, index: int = 0, rebuild_rate: float = 1.0) -> None:
        """The spindle is replaced; a copy-back rebuild starts.

        The replacement is reconstructed stripe-chunk by stripe-chunk
        over the *live* region of the array: each chunk queues in the
        same LOOK elevator as demand/prefetch requests, reads the
        surviving spindles plus the parity share across the SCSI bus,
        pays the controller XOR pass, and writes the failed spindle's
        share onto the replacement.  The array stays degraded (for the
        un-rebuilt tail) until the frontier reaches the live high-water
        mark, so foreground bandwidth dips while rebuild traffic
        competes for the arm and bus.

        ``rebuild_rate`` throttles the copy-back: after each chunk the
        rebuilder idles ``hold * (1 - rate) / rate``, leaving that
        fraction of arm time to foreground I/O.
        """
        if not (0.0 < rebuild_rate <= 1.0):
            raise RAIDError(f"rebuild_rate must be in (0, 1], got {rebuild_rate}")
        if index not in self._failed_disks:
            return
        if self._data_lost or self._rebuilding:
            # Nothing a single replacement can recover / one at a time.
            return
        if self.live_bytes_fn is not None:
            target = int(self.live_bytes_fn())
        else:
            target = self._high_water
        self._rebuilding = True
        self._rebuild_index = index
        self._rebuild_frontier = 0
        self._rebuild_target = min(target, self.capacity_bytes)
        self._rebuild_rate = rebuild_rate
        # The spawner is whichever access happened to notice the repair
        # time had passed -- a tie-order-dependent identity.  An explicit
        # canonical order key keeps every downstream arbitration (arm
        # grants, SCSI bus) independent of which leg spawned us, and
        # leaves the accidental parent's child counter untouched.
        self.env.process(
            self._rebuild_process(),
            name=f"rebuild-{self.name}",
            order_key=(-1, zlib.crc32(self.name.encode()) & 0xFFFFFFFF),
        )
        self.monitor.counter(f"{self.name}.rebuilds_started").add(1)

    def _rebuild_process(self):
        """Background copy-back: drain the live region chunk by chunk.

        A chunk queues in the LOOK queue like an access and is timed at
        its grant, as a reconstructing read is (positioning, the
        surviving spindles' stream, the parity share, the XOR pass), but
        it consults no fault spec (rebuild traffic must not advance
        count-trigger spec counters -- those count *foreground*
        operations) and leaves the track cache alone (the drive buffer
        serves host reads, not copy-back internals).
        """
        chunk_bytes = self.disk_params.track_cache_bytes * self.data_disks
        chunk_seq = 0
        try:
            while self._rebuild_frontier < self._rebuild_target:
                if self._data_lost:
                    return  # a second failure killed the rebuild source
                lba = self._rebuild_frontier
                nbytes = min(chunk_bytes, self._rebuild_target - lba)
                chunk_seq += 1
                done = Completion(self.env)
                # (-1, seq): sorts before every causal process key, so an
                # exact (distance, lba) tie goes to the rebuild
                # deterministically.
                chunk = _CallbackAccess(self, "rebuild", lba, nbytes, done, None)
                self._enqueue(chunk, (-1, chunk_seq))
                hold_s = yield done
                self._rebuild_frontier = lba + nbytes
                if self._rebuild_rate < 1.0 and hold_s > 0:
                    # Throttle: idle so the rebuild consumes only
                    # rebuild_rate of the arm's time.
                    yield self.env.timeout(hold_s * (1.0 - self._rebuild_rate) / self._rebuild_rate)
            self._failed_disks.discard(self._rebuild_index)
            self.rebuilds_completed += 1
            self.monitor.counter(f"{self.name}.rebuilds_completed").add(1)
        finally:
            self._rebuilding = False

    def _leave_arm(self, started_at: float) -> None:
        """The one way out of the arm for every access and rebuild
        chunk: book the hold from *started_at* and release the arm to
        the next waiter."""
        self.busy_s += self.env._now - started_at
        self._busy = False
        if self._pending:
            self.env._mark_arbiter_dirty(self)

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    @property
    def users(self) -> Tuple[str, ...]:
        """Holders of the (ganged) arm: one while a request holds it.
        Read by :func:`~repro.analysis.sanitizers.leaked_resources`, so an
        arm still held once the event queue drains reports as a leak."""
        return ("arm",) if self._busy else ()

    def __repr__(self) -> str:
        return (
            f"<RAID3Array {self.name} {self.data_disks}+1 disks, "
            f"{self.capacity_bytes / 2**20:.0f}MB>"
        )


class _CallbackAccess(Event):
    """One :meth:`RAID3Array.access_then` access or rebuild chunk
    (``kind="rebuild"``), queued for the arm, and its own event: the
    grant schedules it at its decision instant (:meth:`_decide`, for an
    access something can act inside) or straight at its completion
    (:meth:`_finish`).  Traced, it carries its ``disk_service`` span."""

    __slots__ = (
        "array",
        "kind",
        "lba",
        "nbytes",
        "then",
        "span",
        "started_at",
        "media_error",
        "degraded",
        "cache_hit",
        "sequential",
        "xfer_at",
        "data_s",
        "parity",
        "parity_s",
    )

    def __init__(self, array: RAID3Array, kind: str, lba: int, nbytes: int, then, span) -> None:
        self.env = array.env
        self._value = None
        self._ok = True
        self._defused = False
        self.array = array
        self.kind = kind
        self.lba = lba
        self.nbytes = nbytes
        self.then = then
        self.span = span
        self.media_error = False
        self.degraded = False
        self.sequential = False
        #: Bytes of the parity share that crossed the bus (0: none).
        self.parity = 0

    def _decide(self) -> None:
        """The decision pop, at the grant plus the controller overhead:
        the scheduled fault specs due by now, a pending injected error,
        lost data, then the plan's ``media_error`` and ``slow_sector``
        decisions."""
        array = self.array
        faults = array.faults
        if faults is not None:
            faults.tick()
        if array._fail_next > 0:
            array._fail_next -= 1
            array.monitor.counter(f"{array.name}.injected_errors").add(1)
            self._fail(RAIDError(f"injected media error on {array.name} at lba {self.lba}"))
            return
        if array._data_lost:
            self._fail(
                RAIDError(
                    f"data lost on {array.name}: more than one spindle failed "
                    "(RAID-3 redundancy exceeded)"
                )
            )
            return
        if faults is not None:
            self.media_error = faults.decide("media_error", array.name) is not None
            slow = faults.decide("slow_sector", array.name)
            if slow is not None:
                # Marginal sector: positioning retries before the
                # transfer succeeds.  The checks below wait for the end
                # of the retries, since a spindle may fail meanwhile.
                array.monitor.counter(f"{array.name}.slow_sectors").add(1)
                self.callbacks = _CHECK
                array.env.schedule(self, slow.duration_s)
                return
        self._check()

    def _check(self) -> None:
        """After any slow-sector wait: an unrecoverable error, the track
        cache and degraded reconstruction; then time the rest."""
        array = self.array
        media_error = self.media_error
        if media_error and array.degraded:
            # The bad sector's spindle has no redundancy left behind it
            # -- this access is unrecoverable at the array layer.
            self._fail(
                RAIDError(f"unrecoverable media error on degraded {array.name} at lba {self.lba}")
            )
            return
        kind = self.kind
        nbytes = self.nbytes
        # A transient media error forces a platter re-read plus parity
        # reconstruction, so it bypasses the track cache.
        cache_hit = kind == "read" and not media_error and array.cached(self.lba, nbytes)
        self.degraded = degraded = array._degraded_range(self.lba, nbytes)
        reconstruct = xor = False
        if not cache_hit and nbytes > 0:
            monitor = array.monitor
            if kind == "read" and (degraded or media_error):
                # Parity reconstruction: the parity spindle's share
                # crosses the bus as an extra transfer (it is not part
                # of the data stream in normal mode), then the
                # controller XORs the missing spindle back.
                reconstruct = True
                monitor.counter(f"{array.name}.reconstructed_bytes").add(nbytes)
                if degraded:
                    monitor.counter(f"{array.name}.degraded_reads").add(1)
                if media_error:
                    monitor.counter(f"{array.name}.media_errors_recovered").add(1)
            elif kind == "write" and degraded:
                # Degraded write: parity absorbs the missing spindle's
                # contribution (XOR only; the parity stream itself is
                # concurrent, as in normal mode).
                xor = True
                monitor.counter(f"{array.name}.degraded_writes").add(1)
        array._serve(self, array.env._now, cache_hit, reconstruct, xor)

    def _fail(self, error: RAIDError) -> None:
        """The access ends with *error* now: the arm is released and the
        span ended with the error."""
        array = self.array
        array._leave_arm(self.started_at)
        if self.span is not None:
            array.tracer.end(self.span, error=str(error))
        self.then(None, error)

    def _finish(self) -> None:
        """The completion pop: book the bus transfers and the arm hold,
        move the head (and, after a read, the track cache), count, end
        the span and hand the result on."""
        array = self.array
        kind = self.kind
        lba = self.lba
        nbytes = self.nbytes
        span = self.span
        ctx = span.ctx if span is not None else None
        cause = "rebuild" if kind == "rebuild" else "io"
        array.bus.book(nbytes, self.xfer_at, self.data_s, ctx, cause)
        if self.parity:
            array.bus.book(self.parity, self.xfer_at + self.data_s, self.parity_s, ctx, cause)
        if not self.cache_hit:
            end = array._head_lba = array._last_end_lba = lba + nbytes
            if kind == "read":
                window = array.disk_params.track_cache_bytes * array.data_disks
                array._cached_start = max(lba, end - window)
                array._cached_end = end
        array._leave_arm(self.started_at)
        if kind == "rebuild":
            array.rebuild_copied_bytes += self.parity
            array.monitor.counter(f"{array.name}.rebuild_copied_bytes").add(self.parity)
            self.then(array.env._now - self.started_at, None)
            return
        if kind == "read":
            array._c_reads.add(1)
            array._c_bytes_read.add(nbytes)
        else:
            array._c_writes.add(1)
            array._c_bytes_write.add(nbytes)
        if self.sequential:
            array._c_sequential.add(1)
        if self.cache_hit:
            array._c_cache_hits.add(1)
        if span is not None:
            if array.faults is not None or self.degraded:
                array.tracer.end(
                    span,
                    sequential=self.sequential,
                    track_cache_hit=self.cache_hit,
                    degraded=self.degraded,
                )
            else:
                array.tracer.end(span, sequential=self.sequential, track_cache_hit=self.cache_hit)
        self.then(nbytes, None)


#: The callbacks of an access's pops: shared lists of the plain
#: functions, so an access holds no bound method of itself.
_DECIDE = [_CallbackAccess._decide]
_CHECK = [_CallbackAccess._check]
_FINISH = [_CallbackAccess._finish]
