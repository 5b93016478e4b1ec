"""Paragon node model.

A node bundles a CPU (a unit-capacity resource used to charge software
path and memory-copy time), a :class:`~repro.hardware.memory.MemoryRegion`,
and a mesh position.  Compute nodes additionally host the PFS client and
the prefetch buffer lists; I/O nodes host the PFS server, buffer cache,
UFS and disk hardware.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

from repro.hardware.memory import MemoryRegion
from repro.hardware.params import NodeParams
from repro.sim import ArbitratedResource, Environment

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event


class NodeKind(enum.Enum):
    """Functional classification of Paragon nodes (paper section 2)."""

    COMPUTE = "compute"
    IO = "io"
    SERVICE = "service"


class Node:
    """One Paragon node.

    Parameters
    ----------
    env:
        Simulation environment.
    node_id:
        Globally unique integer id.
    kind:
        Functional classification.
    position:
        (x, y) coordinates in the mesh.
    params:
        Hardware constants for the node.
    """

    def __init__(
        self,
        env: Environment,
        node_id: int,
        kind: NodeKind,
        position: Tuple[int, int],
        params: Optional[NodeParams] = None,
    ) -> None:
        self.env = env
        self.node_id = int(node_id)
        self.kind = kind
        self.position = position
        self.params = params or NodeParams()
        #: The CPU(s): software path costs and memory copies serialise
        #: here (SMP nodes have capacity > 1).  Arbitrated so that two
        #: same-timestamp contenders are ordered by their causal process
        #: keys, not by event insertion order.
        self.cpu = ArbitratedResource(env, capacity=self.params.cpu_count)
        #: The message co-processor (the Paragon's second i860): incoming
        #: mesh data is landed into destination buffers here, *without*
        #: occupying the application CPU -- which is what lets a prefetch
        #: land while the application computes.
        self.msgproc = ArbitratedResource(env, capacity=1)
        self.memory = MemoryRegion(self.params.memory_bytes)
        #: Accumulated busy time (utilisation accounting).
        self.cpu_busy_s = 0.0
        self.msgproc_busy_s = 0.0

    # -- CPU time helpers (generators to be yielded from processes) ------

    def busy(self, seconds: float):
        """Occupy the CPU for *seconds* (software path, bookkeeping).

        Uses a merged grant (``resume_delay``): the CPU is held for the
        same window as a grant-then-timeout pair, with one scheduled
        event instead of two.
        """
        with self.cpu.request(resume_delay=seconds) as req:
            yield req
            if seconds > 0:
                self.cpu_busy_s += seconds

    def busy_then(self, seconds: float, key: Any, then: Callable[[], None]) -> None:
        """Callback form of :meth:`busy`, for a caller that is not a
        process: hold the CPU for *seconds* under the arbitration *key*,
        then call ``then()`` once it is released -- the same hold window,
        grant order and busy time as :meth:`busy`."""
        cpu = self.cpu
        req = cpu.request(  # sim-ok: R005, R005v2 -- held() releases it; the merged grant always runs it
            key=key, resume_delay=seconds
        )

        def held(req: "Event") -> None:
            if seconds > 0:
                self.cpu_busy_s += seconds
            cpu.release(req)
            then()

        req.callbacks.append(held)

    def memcpy(self, nbytes: int):
        """Copy *nbytes* through the CPU at the calibrated memcpy rate.

        This is the cost the prefetch prototype pays on every hit: the
        prefetched block sits in a prefetch buffer and must be copied into
        the user's buffer (paper section 4.1).
        """
        yield from self.busy(self._copy_seconds(nbytes))

    def memcpy_then(self, nbytes: int, key: Any, then: Callable[[], None]) -> None:
        """Callback form of :meth:`memcpy` (see :meth:`busy_then`)."""
        self.busy_then(self._copy_seconds(nbytes), key, then)

    def _copy_seconds(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError("cannot copy a negative size")
        return nbytes / self.params.memcpy_bps

    def compute(self, seconds: float):
        """Model application computation occupying the CPU."""
        yield from self.busy(seconds)

    def receive(self, nbytes: int):
        """Land *nbytes* of incoming mesh data via the message
        co-processor (serialises with other receptions on this node, but
        not with application compute)."""
        if nbytes < 0:
            raise ValueError("cannot receive a negative size")
        seconds = nbytes / self.params.receive_bps
        with self.msgproc.request(resume_delay=seconds) as req:
            yield req
            if seconds > 0:
                self.msgproc_busy_s += seconds

    def receive_then(self, nbytes: int, key: Any, then: Callable[[], None]) -> None:
        """Callback form of :meth:`receive`, for a caller that is not a
        process: land *nbytes* under the arbitration *key*, then call
        ``then()`` once the co-processor is released -- the same hold
        window, grant order and busy time as :meth:`receive`."""
        if nbytes < 0:
            raise ValueError("cannot receive a negative size")
        seconds = nbytes / self.params.receive_bps
        msgproc = self.msgproc
        req = msgproc.request(  # sim-ok: R005, R005v2 -- landed() releases it; the merged grant always runs it
            key=key, resume_delay=seconds
        )

        def landed(req: "Event") -> None:
            if seconds > 0:
                self.msgproc_busy_s += seconds
            msgproc.release(req)
            then()

        req.callbacks.append(landed)

    def landing_copy(self, nbytes: int):
        """Copy received data into a staging buffer (e.g. a prefetch
        buffer) on the message co-processor at memcpy speed."""
        if nbytes < 0:
            raise ValueError("cannot copy a negative size")
        seconds = nbytes / self.params.memcpy_bps
        with self.msgproc.request(resume_delay=seconds) as req:
            yield req
            if seconds > 0:
                self.msgproc_busy_s += seconds

    def __repr__(self) -> str:
        return f"<Node {self.node_id} {self.kind.value} at {self.position}>"
