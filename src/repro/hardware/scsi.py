"""SCSI bus model.

The bus connecting an I/O node to its RAID array.  On the calibrated
machine this is the streaming bottleneck (~3.5 MB/s effective, SCSI-8),
matching the paper's note that SCSI-16 hardware "effectively quadruples
the bandwidth available on each I/O node".

The bus is a one-slot :class:`~repro.sim.resources.Arbiter`; each
transfer is one :class:`~repro.sim.resources.Hold` of it, paying an
arbitration overhead plus size / bandwidth.
"""

from __future__ import annotations

from typing import Optional

from repro.hardware.params import SCSIParams
from repro.obs.trace import TraceContext, get_tracer
from repro.sim import Arbiter, Environment, Hold
from repro.obs.monitor import NULL_MONITOR, Monitor


class SCSIBus:
    """A shared SCSI bus."""

    def __init__(
        self,
        env: Environment,
        name: str = "scsi",
        params: Optional[SCSIParams] = None,
        monitor: Optional[Monitor] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.params = params or SCSIParams()
        self.monitor = monitor = monitor or NULL_MONITOR
        self.tracer = get_tracer(monitor)
        # Arbitrated: simultaneous transfer requests are granted in
        # canonical (causal process key) order, not event-pop order.
        self._bus = Arbiter(env, name=f"scsi bus {name}")
        #: Devices attached via :meth:`attach_client`.  The RAID
        #: closed-form fast path requires being the sole client: only
        #: then is a transfer during the arm hold provably uncontended.
        self.clients = 0
        # Hot-path counter objects, resolved once instead of per transfer.
        self._c_transfers = monitor.counter(f"{name}.transfers")
        self._c_bytes = monitor.counter(f"{name}.bytes")
        self._cause_counters = {}

    @property
    def busy_s(self) -> float:
        """Accumulated time the bus spent transferring (utilisation)."""
        return self._bus.busy_s

    def transfer_time(self, nbytes: int) -> float:
        """Uncontended time to move *nbytes* across the bus."""
        return self.params.arbitration_s + nbytes / self.params.bandwidth_bps

    def transfer(
        self,
        nbytes: int,
        stream_rate_bps: Optional[float] = None,
        ctx: Optional[TraceContext] = None,
        cause: str = "io",
    ):
        """Generator: hold the bus while *nbytes* stream across it.

        If *stream_rate_bps* is given (the media rate of the device
        feeding the bus), the transfer proceeds at the slower of the two
        rates -- the device and the bus stream concurrently, so the time
        is governed by the bottleneck, not the sum.

        *cause* labels what the transfer served (``io`` for demand /
        prefetch traffic, ``rebuild`` for RAID copy-back passes); the
        non-default causes get their own counters so rebuild competition
        for the bus is visible in the monitor.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        rate = self.params.bandwidth_bps
        if stream_rate_bps is not None:
            rate = min(rate, stream_rate_bps)
        tracer = self.tracer
        traced = tracer.enabled
        if traced:
            span = tracer.begin("scsi_xfer", ctx=ctx, bus=self.name, bytes=nbytes)
        duration = self.params.arbitration_s + nbytes / rate
        # One event: the bus is held for [grant, grant + duration] and
        # the hold books the duration when it releases the bus.
        yield Hold(self._bus, duration)
        if traced:
            tracer.end(span)
        self._c_transfers.add(1)
        self._c_bytes.add(nbytes)
        if cause != "io":
            counters = self._cause_counters.get(cause)
            if counters is None:
                counters = (
                    self.monitor.counter(f"{self.name}.{cause}_transfers"),
                    self.monitor.counter(f"{self.name}.{cause}_bytes"),
                )
                self._cause_counters[cause] = counters
            counters[0].add(1)
            counters[1].add(nbytes)
        return nbytes

    def attach_client(self) -> int:
        """Register a device on this bus; returns the new client count."""
        self.clients += 1
        return self.clients

    # fast-path: requires=tracer -- bookkeeping-only transfer; grant must be provably uncontended and unobserved
    def account_bypass(self, nbytes: int, duration: float) -> None:
        """Book an exclusive transfer of known *duration* without events.

        Used by the RAID closed-form fast path: when the array is the
        bus's only client (``clients == 1``; its own rebuild traffic
        runs only while the array is rebuilding, which keeps it off the
        closed form) and no trace span can observe the interval, the
        grant is provably uncontended and the transfer's accounting can
        be applied directly.  A fault plan does not gate it: the closed
        form runs under a plan whenever no spec can act inside the
        array's accesses.  Counter and ``busy_s`` totals come out
        identical to :meth:`transfer`.
        """
        self._bus.busy_s += duration
        self._c_transfers.add(1)
        self._c_bytes.add(nbytes)

    def __repr__(self) -> str:
        return f"<SCSIBus {self.name} bw={self.params.bandwidth_bps / 2**20:.1f}MB/s>"
