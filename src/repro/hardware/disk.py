"""Single-spindle disk model.

Service time of a request = controller overhead + seek + rotational
latency + media transfer.  Sequential accesses (starting exactly where
the previous request ended) hit the drive's track cache / read-ahead and
skip both seek and rotational latency, which is what makes the PFS's
block coalescing and contiguous UFS allocation pay off.  A re-read
falling entirely inside the most recently transferred region is served
from the track cache with no positioning at all.

Rotational latency is jittered uniformly over one revolution by default
(a seeded LCG keeps runs reproducible); pass ``jitter=False`` for the
constant-average model.

Requests are served strictly in arrival order (FIFO); an optional
elevator (LOOK) policy can be enabled to study scheduling effects.
Both policies dispatch through arbitrated grants settled at the end of
each timestep: FIFO orders same-timestamp arrivals by causal process
key, and the elevator breaks exact distance ties by ``(lba, key)`` --
never by event-pop order -- so runs are bit-identical under either
kernel tie-break.
"""

from __future__ import annotations

import math
import zlib
from typing import TYPE_CHECKING, Optional

from repro.hardware.params import DiskParams

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
from repro.obs.trace import TraceContext, get_tracer
from repro.sim import Environment
from repro.obs.monitor import NULL_MONITOR, Monitor


class DiskError(Exception):
    """Raised for invalid disk requests (out-of-range, negative size)."""


class Disk:
    """One spindle.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Identifier used in statistics.
    params:
        Mechanical/electrical constants.
    elevator:
        If True, pending requests are served in LOOK order (by LBA
        distance direction) instead of FIFO.
    """

    def __init__(
        self,
        env: Environment,
        name: str = "disk",
        params: Optional[DiskParams] = None,
        elevator: bool = False,
        jitter: bool = True,
        monitor: Optional[Monitor] = None,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.params = params or DiskParams()
        self.monitor = monitor or NULL_MONITOR
        self.faults = faults
        self.tracer = get_tracer(monitor)
        self.elevator = elevator
        self.jitter = jitter
        #: Pending requests waiting for the arm: list of
        #: (arrived_at, lba, causal key, seq, grant_event) entries.
        #: FIFO dispatches by (arrival, key, seq); the elevator runs a
        #: LOOK sweep with exact distance ties broken by (lba, key, seq).
        self._pending: list = []
        self._busy = False
        #: Arbiter-settlement hook (see Environment._mark_arbiter_dirty):
        #: grants are issued when the clock is about to advance, after
        #: all same-timestamp arrivals are queued.
        self._settle_queued = False
        self._sweep_up = True
        self._seq = 0
        #: Head position (LBA) after the last completed request.
        self._head_lba = 0
        #: End LBA of the last completed transfer, for sequential detection.
        self._last_end_lba: Optional[int] = None
        #: Most recently read region (track cache window).
        self._cached_start = 0
        self._cached_end = 0
        self._rng_state = (zlib.crc32(name.encode()) & 0xFFFFFFFF) | 1
        #: Accumulated time the arm was held (utilisation).
        self.busy_s = 0.0

    # -- service-time model -------------------------------------------------

    def seek_time(self, from_lba: int, to_lba: int) -> float:
        """Seek time as a concave function of LBA distance."""
        p = self.params
        distance = abs(to_lba - from_lba)
        if distance == 0:
            return 0.0
        frac = min(1.0, distance / p.capacity_bytes)
        return p.min_seek_s + (p.full_seek_s - p.min_seek_s) * math.sqrt(frac)

    def _rotational_latency(self) -> float:
        if not self.jitter:
            return self.params.avg_rotational_latency_s
        self._rng_state = (self._rng_state * 1103515245 + 12345) & 0x7FFFFFFF
        return (self._rng_state / 0x7FFFFFFF) * self.params.rotation_s

    def cached(self, lba: int, nbytes: int) -> bool:
        """True if the range sits inside the track cache window."""
        return self._cached_start <= lba and lba + nbytes <= self._cached_end

    def service_time(self, lba: int, nbytes: int, sequential: bool) -> float:
        """Uncontended service time for one request."""
        p = self.params
        transfer = nbytes / p.media_rate_bps
        if sequential:
            # Track cache streaming: no positioning cost.
            return p.controller_overhead_s + transfer
        positioning = self.seek_time(self._head_lba, lba) + self._rotational_latency()
        return p.controller_overhead_s + positioning + transfer

    # -- arm arbitration -----------------------------------------------------

    def _grant_next(self) -> None:
        """Dispatch the next pending request.

        Elevator mode is a proper LOOK sweep: serve the nearest request
        *in the current direction*, reversing only when none remain
        ahead (greedy nearest-first -- SSTF -- starves distant requests
        under saturation).  FIFO mode serves in arrival order, with
        same-timestamp arrivals ordered by causal process key.
        """
        if self._busy or not self._pending:
            return
        if self.elevator:
            head = self._head_lba
            ahead = [
                i
                for i, (_a, lba, _k, _s, _g) in enumerate(self._pending)
                if (lba >= head if self._sweep_up else lba <= head)
            ]
            if not ahead:
                self._sweep_up = not self._sweep_up
                ahead = list(range(len(self._pending)))
            best = min(
                ahead,
                key=lambda i: (
                    abs(self._pending[i][1] - head),
                    self._pending[i][1],
                    self._pending[i][2],
                    self._pending[i][3],
                ),
            )
        else:
            best = min(
                range(len(self._pending)),
                key=lambda i: (
                    self._pending[i][0],
                    self._pending[i][2],
                    self._pending[i][3],
                ),
            )
        *_rest, grant = self._pending.pop(best)
        self._busy = True
        grant.succeed()

    def _settle(self) -> None:
        """End-of-timestep arbitration hook (called by the Environment)."""
        self._grant_next()

    # -- operations ----------------------------------------------------------

    def _validate(self, lba: int, nbytes: int) -> None:
        if nbytes < 0:
            raise DiskError(f"negative transfer size {nbytes}")
        if lba < 0 or lba + nbytes > self.params.capacity_bytes:
            raise DiskError(
                f"request [{lba}, {lba + nbytes}) outside disk capacity "
                f"{self.params.capacity_bytes}"
            )

    def _access(self, lba: int, nbytes: int, kind: str, ctx: Optional[TraceContext] = None):
        self._validate(lba, nbytes)
        span = self.tracer.begin(
            "disk_service",
            ctx=ctx,
            device=self.name,
            op=kind,
            lba=lba,
            bytes=nbytes,
        )
        grant = self.env.event()
        proc = self.env.active_process
        key = proc.order_key if proc is not None else ()
        self._seq += 1
        self._pending.append((self.env.now, lba, key, self._seq, grant))
        self.env._mark_arbiter_dirty(self)
        sequential = False
        cache_hit = False
        started_at = None
        try:
            yield grant
            started_at = self.env.now
            if self.faults is not None:
                media_error = self.faults.decide("media_error", self.name)
                slow = self.faults.decide("slow_sector", self.name)
                if slow is not None:
                    self.monitor.counter(f"{self.name}.slow_sectors").add(1)
                    yield self.env.timeout(slow.duration_s)
                if media_error is not None:
                    # A lone spindle has no parity to reconstruct from:
                    # the error surfaces to the caller (transient -- a
                    # retry re-reads the sector successfully).
                    self.monitor.counter(f"{self.name}.media_errors").add(1)
                    raise DiskError(f"media error on {self.name} at lba {lba} (transient)")
            cache_hit = kind == "read" and self.cached(lba, nbytes)
            if cache_hit:
                # Served from the drive buffer: controller time only.
                yield self.env.timeout(self.params.controller_overhead_s)
            else:
                sequential = self._last_end_lba == lba
                service = self.service_time(lba, nbytes, sequential)
                yield self.env.timeout(service)
                self._head_lba = lba + nbytes
                self._last_end_lba = lba + nbytes
                if kind == "read":
                    self._cached_start = max(lba, lba + nbytes - self.params.track_cache_bytes)
                    self._cached_end = lba + nbytes
        finally:
            if started_at is not None:
                self.busy_s += self.env.now - started_at
                self._busy = False
                if self._pending:
                    self.env._mark_arbiter_dirty(self)
        self.tracer.end(span, sequential=sequential, track_cache_hit=cache_hit)
        self.monitor.counter(f"{self.name}.{kind}s").add(1)
        self.monitor.counter(f"{self.name}.bytes_{kind}").add(nbytes)
        if sequential:
            self.monitor.counter(f"{self.name}.sequential_hits").add(1)
        if cache_hit:
            self.monitor.counter(f"{self.name}.track_cache_hits").add(1)
        return nbytes

    def read(self, lba: int, nbytes: int, ctx: Optional[TraceContext] = None):
        """Generator: read *nbytes* starting at *lba*."""
        return (yield from self._access(lba, nbytes, "read", ctx=ctx))

    def write(self, lba: int, nbytes: int, ctx: Optional[TraceContext] = None):
        """Generator: write *nbytes* starting at *lba*."""
        return (yield from self._access(lba, nbytes, "write", ctx=ctx))

    @property
    def queue_depth(self) -> int:
        """Requests waiting for the arm (excluding the one in service)."""
        return len(self._pending)

    def __repr__(self) -> str:
        return f"<Disk {self.name} head={self._head_lba}>"
