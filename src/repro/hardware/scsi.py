"""SCSI bus model.

The bus connecting an I/O node to its one RAID array.  On the calibrated
machine this is the streaming bottleneck (~3.5 MB/s effective, SCSI-8),
matching the paper's note that SCSI-16 hardware "effectively quadruples
the bandwidth available on each I/O node".

Each I/O node drives its array over its own bus, and the array's arm
serialises every transfer, so a transfer never waits for the bus: the
array times it (an arbitration overhead plus size / rate) and books it
with :meth:`SCSIBus.book`.
"""

from __future__ import annotations

from typing import Optional

from repro.hardware.params import SCSIParams
from repro.obs.monitor import NULL_MONITOR, Monitor
from repro.obs.trace import TraceContext, get_tracer
from repro.sim import Environment


class SCSIBus:
    """The SCSI bus of one RAID array."""

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
        #: Accumulated time the bus spent transferring (utilisation).
        self.busy_s = 0.0
        # Hot-path counter objects, resolved once instead of per transfer.
        self._c_transfers = monitor.counter(f"{name}.transfers")
        self._c_bytes = monitor.counter(f"{name}.bytes")
        self._cause_counters = {}

    def transfer_time(self, nbytes: int) -> float:
        """Uncontended time to move *nbytes* across the bus."""
        return self.params.arbitration_s + nbytes / self.params.bandwidth_bps

    def book(
        self,
        nbytes: int,
        start: float,
        duration: float,
        ctx: Optional[TraceContext] = None,
        cause: str = "io",
    ) -> None:
        """Book a transfer of *nbytes* that held the bus for *duration*
        from *start*; traced, record its ``scsi_xfer`` span under *ctx*.

        *cause* labels what the transfer served (``io`` for demand /
        prefetch traffic, ``rebuild`` for RAID copy-back passes); the
        non-default causes get their own counters so rebuild traffic on
        the bus is visible in the monitor.
        """
        self.busy_s += duration
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
        if self.tracer.enabled:
            self.tracer.record(
                "scsi_xfer", start, start + duration, ctx=ctx, bus=self.name, bytes=nbytes
            )

    def __repr__(self) -> str:
        return f"<SCSIBus {self.name} bw={self.params.bandwidth_bps / 2**20:.1f}MB/s>"
