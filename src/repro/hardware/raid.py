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
"""

from __future__ import annotations

import math
import zlib
from typing import TYPE_CHECKING, Any, Callable, Optional, Set, Tuple

from repro.hardware.params import DiskParams, RAIDParams

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
from repro.hardware.scsi import SCSIBus
from repro.obs.trace import TraceContext, get_tracer
from repro.sim import Environment
from repro.sim.events import Event
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
        #: (lba, causal key, arrived_at, grant_event, closed-form
        #: payload) entries.  LOOK picks nearest-to-head in the sweep
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
        #: Closed-form fast path: when no trace span or fault spec can
        #: observe the interior of an access, the whole service
        #: (controller overhead, positioning, pipelined bus stream) is
        #: computed at the arm grant and the requester is resumed once,
        #: at the completion time -- one scheduled event instead of the
        #: stepped timeout/bus chain.  Exact by
        #: construction: the arm hold serialises every reader/writer of
        #: the head, track-cache and RNG state, and the completion time
        #: is built with the same successive float additions the stepped
        #: path performs.  This flag is the part fixed at construction
        #: (no tracer); :attr:`fast_ready` adds the fault plan and the
        #: array's own state, which change during a run.
        self._fast_mode = not self.tracer.enabled
        bus.attach_client()
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

    def positioning_time(self, lba: int, sequential: bool) -> float:
        if sequential:
            return 0.0
        return self.seek_time(self._head_lba, lba) + self._rotational_latency()

    def estimate_service_time(self, lba: int, nbytes: int) -> float:
        """Uncontended estimate for planning/tests (non-sequential)."""
        stream = nbytes / min(self.media_rate_bps, self.bus.params.bandwidth_bps)
        return (
            self.raid_params.controller_overhead_s
            + self.positioning_time(lba, sequential=False)
            + self.bus.params.arbitration_s
            + stream
        )

    # -- operations ------------------------------------------------------------

    @property
    def fast_ready(self) -> bool:
        """True when an access queued now would be served in closed form:
        no tracer observes the array (see ``_fast_mode``), it is its
        bus's only client, no injected, failed or rebuilding state needs
        the stepped path, and the fault plan, if any, can act inside no
        access to this array (:meth:`FaultInjector.spares`: no pending
        disk failure or repair, no media-error or slow-sector spec
        aimed at it).  A crash plan for a compute node leaves every
        array in closed form."""
        faults = self.faults
        return (
            self._fast_mode
            and self.bus.clients == 1
            and not self._fail_next
            and not self._failed_disks
            and not self._data_lost
            and not self._rebuilding
            and (faults is None or faults.spares(self.name))
        )

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
        lba, _key, _arrived_at, grant, fast = pending.pop(best)
        self._busy = True
        if fast is not None and self.fast_ready:
            # Closed-form service: the arm is held for the whole interval
            # and nothing observable happens inside it, so the completion
            # time is computed here and the requester resumed once.  Every
            # addition below mirrors a timeout the stepped path would have
            # taken, in the same order, so the resulting float is
            # bit-identical (successive addition, never summed deltas).
            nbytes, kind = fast
            env = self.env
            now = env._now
            when = now + self.raid_params.controller_overhead_s
            bus_params = self.bus.params
            bandwidth = bus_params.bandwidth_bps
            sequential = False
            if kind == "read" and self._cached_start <= lba \
                    and lba + nbytes <= self._cached_end:
                cache_hit = True
                duration = bus_params.arbitration_s + nbytes / bandwidth
            else:
                cache_hit = False
                sequential = self._last_end_lba == lba
                if not sequential:
                    # Same single-expression sum (and same RNG draw
                    # order) as positioning_time in the stepped path.
                    positioning = self.seek_time(self._head_lba, lba) + self._rotational_latency()
                    when += positioning
                media = self.disk_params.media_rate_bps * self.raid_params.data_disks
                if media < bandwidth:
                    bandwidth = media
                duration = bus_params.arbitration_s + nbytes / bandwidth
            # Head and track-cache state is committed at completion
            # (_finish_closed_form), as the stepped path does.
            grant._ok = True
            grant._value = (now, duration, sequential, cache_hit, lba)
            # sim-ok: R006 -- fast payloads are attached in _enqueue only under the fast_ready gate (tracer off, no fault spec that can act inside this array's accesses)
            env.schedule_at(grant, when + duration)
            return
        grant.succeed()

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

    def _admit(self, lba: int, nbytes: int) -> None:
        """Validate an access and raise the high-water mark (both forms)."""
        self._validate(lba, nbytes)
        if lba + nbytes > self._high_water:
            self._high_water = lba + nbytes

    def _enqueue(self, lba: int, key: Any, fast: Optional[Tuple[int, str]] = None) -> Event:
        """Queue a request for the arm under *key*; returns its grant
        event.  *fast* is the ``(nbytes, kind)`` closed-form payload of
        an access queued under :attr:`fast_ready`, else ``None``."""
        env = self.env
        grant = Event(env)
        self._pending.append((lba, key, env._now, grant, fast))
        env._mark_arbiter_dirty(self)
        return grant

    def _finish_closed_form(self, nbytes: int, kind: str, done: tuple) -> int:
        """Book a closed-form completion (see :meth:`_grant_next`): the
        head and track-cache state and the accounting the stepped path
        would have accrued between the arm grant and now (both forms)."""
        started_at, duration, sequential, cache_hit, lba = done
        if not cache_hit:
            self._commit_transfer(lba, nbytes, kind)
        # sim-ok: R006 -- a closed-form grant value exists only for accesses queued under the fast_ready gate (tracer off, no fault spec that can act inside this array's accesses)
        self.bus.account_bypass(nbytes, duration)
        self._leave_arm(started_at)
        self._count(nbytes, kind, sequential, cache_hit)
        return nbytes

    def _commit_transfer(self, lba: int, nbytes: int, kind: str) -> None:
        """A platter transfer ended: move the head past it and, for a
        read, leave its tail in the track cache (both forms)."""
        end = lba + nbytes
        self._head_lba = end
        self._last_end_lba = end
        if kind == "read":
            window = self.disk_params.track_cache_bytes * self.data_disks
            self._cached_start = max(lba, end - window)
            self._cached_end = end

    def _count(self, nbytes: int, kind: str, sequential: bool, cache_hit: bool) -> None:
        if kind == "read":
            self._c_reads.add(1)
            self._c_bytes_read.add(nbytes)
        else:
            self._c_writes.add(1)
            self._c_bytes_write.add(nbytes)
        if sequential:
            self._c_sequential.add(1)
        if cache_hit:
            self._c_cache_hits.add(1)

    def _access(self, lba: int, nbytes: int, kind: str, ctx: Optional[TraceContext] = None):
        self._admit(lba, nbytes)
        if self.faults is not None:
            self.faults.tick()
        env = self.env
        span, span_ctx = self._open_span(lba, nbytes, kind, ctx)
        proc = env._active_process
        fast = (nbytes, kind) if self.fast_ready else None
        grant = self._enqueue(lba, proc.order_key if proc is not None else (), fast)
        if fast is not None:
            done = yield grant
            if done is not None:
                return self._finish_closed_form(nbytes, kind, done)
            # State changed while queued; the grant fell back to the
            # stepped path (already held -- do not yield again).
            grant = None
        return (yield from self._stepped(grant, lba, nbytes, kind, span, span_ctx))

    def _open_span(self, lba: int, nbytes: int, kind: str, ctx: Optional[TraceContext]):
        """Open an access's ``disk_service`` span (both forms), which
        covers queueing, positioning and transfer: the full time the
        request spent at the storage layer.  Returns the span and the
        context of its bus transfers; untraced, ``(None, ctx)``."""
        if not self.tracer.enabled:
            return None, ctx
        span = self.tracer.begin(
            "disk_service", ctx=ctx, device=self.name, op=kind, lba=lba, bytes=nbytes
        )
        return span, (span.ctx if span.ctx is not None else ctx)

    def _stepped(self, grant, lba: int, nbytes: int, kind: str, span, span_ctx):
        """Generator: the stepped service of one access, after waiting
        for *grant* (``None`` when the arm is already held)."""
        sequential = False
        cache_hit = False
        if grant is not None:
            yield grant
        started_at = self.env.now
        try:
            yield self.env.timeout(self.raid_params.controller_overhead_s)
            if self.faults is not None:
                # Re-check the schedule: the failure may be due between
                # queueing and the arm grant.
                self.faults.tick()
            if self._fail_next > 0:
                self._fail_next -= 1
                self.monitor.counter(f"{self.name}.injected_errors").add(1)
                raise RAIDError(f"injected media error on {self.name} at lba {lba}")
            if self._data_lost:
                raise RAIDError(
                    f"data lost on {self.name}: more than one spindle failed "
                    "(RAID-3 redundancy exceeded)"
                )
            media_error = None
            if self.faults is not None:
                media_error = self.faults.decide("media_error", self.name)
                slow = self.faults.decide("slow_sector", self.name)
                if slow is not None:
                    # Marginal sector: positioning retries before the
                    # transfer succeeds.
                    self.monitor.counter(f"{self.name}.slow_sectors").add(1)
                    yield self.env.timeout(slow.duration_s)
            if media_error is not None and self.degraded:
                # The bad sector's spindle has no redundancy left behind
                # it -- this access is unrecoverable at the array layer.
                raise RAIDError(
                    f"unrecoverable media error on degraded {self.name} " f"at lba {lba}"
                )
            # A transient media error forces a platter re-read plus
            # parity reconstruction, so it bypasses the track cache.
            cache_hit = kind == "read" and media_error is None and self.cached(lba, nbytes)
            degraded_now = self._degraded_range(lba, nbytes)
            if cache_hit:
                # Served from the drive buffer: bus transfer only.
                yield from self.bus.transfer(nbytes, ctx=span_ctx)
            else:
                sequential = self._last_end_lba == lba
                positioning = self.positioning_time(lba, sequential)
                if positioning > 0:
                    yield self.env.timeout(positioning)
                # Stream through the bus while the spindles feed it.
                yield from self.bus.transfer(
                    nbytes, stream_rate_bps=self.media_rate_bps, ctx=span_ctx
                )
                reconstruct = kind == "read" and (degraded_now or media_error)
                if reconstruct and nbytes > 0:
                    # Parity reconstruction: the parity spindle's share
                    # crosses the SCSI bus as an extra transfer (it is
                    # not part of the data stream in normal mode), then
                    # the controller XORs the missing spindle back.
                    share = -(-nbytes // self.data_disks)
                    yield from self.bus.transfer(
                        share,
                        stream_rate_bps=self.disk_params.media_rate_bps,
                        ctx=span_ctx,
                    )
                    yield self.env.timeout(nbytes / self.raid_params.xor_rate_bps)
                    self.monitor.counter(f"{self.name}.reconstructed_bytes").add(nbytes)
                    if degraded_now:
                        self.monitor.counter(f"{self.name}.degraded_reads").add(1)
                    if media_error is not None:
                        self.monitor.counter(f"{self.name}.media_errors_recovered").add(1)
                elif kind == "write" and degraded_now and nbytes > 0:
                    # Degraded write: parity must absorb the missing
                    # spindle's contribution (XOR only; the parity
                    # stream itself is concurrent as in normal mode).
                    yield self.env.timeout(nbytes / self.raid_params.xor_rate_bps)
                    self.monitor.counter(f"{self.name}.degraded_writes").add(1)
                self._commit_transfer(lba, nbytes, kind)
        finally:
            # A RAIDError raised above still gives the arm back.
            self._leave_arm(started_at)
        if span is not None:
            if self.faults is not None or degraded_now:
                self.tracer.end(
                    span,
                    sequential=sequential,
                    track_cache_hit=cache_hit,
                    degraded=degraded_now,
                )
            else:
                self.tracer.end(span, sequential=sequential, track_cache_hit=cache_hit)
        self._count(nbytes, kind, sequential, cache_hit)
        return nbytes

    def read(self, lba: int, nbytes: int, ctx: Optional[TraceContext] = None):
        """Generator: read *nbytes* at logical *lba*; all data spindles engage."""
        return self._access(lba, nbytes, "read", ctx=ctx)

    def write(self, lba: int, nbytes: int, ctx: Optional[TraceContext] = None):
        """Generator: write *nbytes*; parity spindle streams concurrently."""
        return self._access(lba, nbytes, "write", ctx=ctx)

    def access_then(
        self, kind: str, lba: int, nbytes: int, key: Any, then: Callable, ctx=None
    ) -> None:
        """Callback form of :meth:`read` / :meth:`write` (*kind*), for a
        caller that is not a process, under a ``disk_service`` span.

        The access queues for the arm under *key* (the order key a
        calling process would have had).  Queued in closed form
        (:attr:`fast_ready`), ``then(nbytes, None)`` runs on the pop of
        its completion.  Otherwise the arm grant comes back stepped --
        every access under a tracer or to an array the plan does not
        spare, or one queued in closed form when :meth:`inject_failures`
        or :meth:`fail_disk` was called outside a fault plan while it
        waited -- and the access finishes on the stepped path, in a
        process under *key*; an error it raises arrives as
        ``then(None, error)``.  Validation errors raise here.
        """
        self._admit(lba, nbytes)
        if self.faults is not None:
            self.faults.tick()
        span, span_ctx = self._open_span(lba, nbytes, kind, ctx)
        access = _CallbackAccess(self, kind, lba, nbytes, key, then, span, span_ctx)
        grant = self._enqueue(lba, key, (nbytes, kind) if self.fast_ready else None)
        grant.callbacks.append(access.granted)

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
        """Background copy-back: drain the live region chunk by chunk."""
        chunk_bytes = self.disk_params.track_cache_bytes * self.data_disks
        chunk_seq = 0
        try:
            while self._rebuild_frontier < self._rebuild_target:
                if self._data_lost:
                    return  # a second failure killed the rebuild source
                lba = self._rebuild_frontier
                nbytes = min(chunk_bytes, self._rebuild_target - lba)
                chunk_seq += 1
                hold_s = yield from self._rebuild_chunk(lba, nbytes, chunk_seq)
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

    def _rebuild_chunk(self, lba: int, nbytes: int, chunk_seq: int):
        """One copy-back pass through the LOOK queue; returns arm hold time.

        Mirrors ``_access``'s arm discipline (queue entry, canonical
        grant, controller overhead, positioning, pipelined bus streams)
        but never consults ``faults.decide`` (rebuild traffic must not
        advance count-trigger spec counters -- those count *foreground*
        operations) and never updates the track cache (the drive buffer
        serves host reads, not copy-back internals).
        """
        # (-1, seq): sorts before every causal process key, so an exact
        # (distance, lba) tie goes to the rebuild deterministically.
        yield self._enqueue(lba, (-1, chunk_seq))
        started_at = self.env.now
        yield self.env.timeout(self.raid_params.controller_overhead_s)
        sequential = self._last_end_lba == lba
        positioning = self.positioning_time(lba, sequential)
        if positioning > 0:
            yield self.env.timeout(positioning)
        # Surviving spindles stream their shares across the bus...
        yield from self.bus.transfer(nbytes, stream_rate_bps=self.media_rate_bps, cause="rebuild")
        # ... plus the parity spindle's share, then the controller
        # XORs the missing spindle's content and writes it back.
        share = -(-nbytes // self.data_disks)
        yield from self.bus.transfer(
            share,
            stream_rate_bps=self.disk_params.media_rate_bps,
            cause="rebuild",
        )
        yield self.env.timeout(nbytes / self.raid_params.xor_rate_bps)
        self._head_lba = lba + nbytes
        self._last_end_lba = lba + nbytes
        self.rebuild_copied_bytes += share
        self.monitor.counter(f"{self.name}.rebuild_copied_bytes").add(share)
        self._leave_arm(started_at)
        return self.env.now - started_at

    def _leave_arm(self, started_at: float) -> None:
        """The one way out of the arm for every request -- stepped,
        rebuild or closed form: book the hold from *started_at* and
        release the arm to the next waiter."""
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


class _CallbackAccess:
    """One :meth:`RAID3Array.access_then` access, waiting for its grant,
    with its ``disk_service`` span and the span's context."""

    __slots__ = ("array", "kind", "lba", "nbytes", "key", "then", "span", "span_ctx")

    def __init__(self, array: RAID3Array, kind, lba, nbytes, key, then, span, span_ctx) -> None:
        self.array = array
        self.kind = kind
        self.lba = lba
        self.nbytes = nbytes
        self.key = key
        self.then = then
        self.span = span
        self.span_ctx = span_ctx

    def granted(self, grant: Event) -> None:
        done = grant._value
        array = self.array
        if done is not None:
            self.then(array._finish_closed_form(self.nbytes, self.kind, done), None)
            return
        # A stepped grant: finish as the process form would, under the
        # caller's key (the arm is already held).
        stepped = array.env.process(
            array._stepped(None, self.lba, self.nbytes, self.kind, self.span, self.span_ctx),
            name=f"{array.name}-stepped-{self.kind}",
            order_key=self.key,
        )
        stepped.callbacks.append(self.finished)

    def finished(self, stepped: Event) -> None:
        if stepped._ok:
            self.then(stepped._value, None)
        else:
            stepped._defused = True
            self.then(None, stepped._value)
