"""Paragon node model.

A node bundles a CPU (an :class:`~repro.sim.resources.Arbiter`, one
slot per processor, charged with software path and memory-copy time), a
message co-processor (a one-slot arbiter that lands incoming data), a
:class:`~repro.hardware.memory.MemoryRegion`, and a mesh position.
Compute nodes additionally host the PFS client and the prefetch buffer
lists; I/O nodes host the PFS server, buffer cache, UFS and disk
hardware.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional, Tuple

from repro.hardware.memory import MemoryRegion
from repro.hardware.params import NodeParams
from repro.sim import Arbiter, Environment, Hold


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
        self.cpu = Arbiter(env, self.params.cpu_count, name=f"node{self.node_id} cpu")
        #: The message co-processor (the Paragon's second i860): incoming
        #: mesh data is landed into destination buffers here, *without*
        #: occupying the application CPU -- which is what lets a prefetch
        #: land while the application computes.
        self.msgproc = Arbiter(env, name=f"node{self.node_id} msgproc")
        self.memory = MemoryRegion(self.params.memory_bytes)

    @property
    def cpu_busy_s(self) -> float:
        """Seconds the CPU slots were held (utilisation accounting)."""
        return self.cpu.busy_s

    @property
    def msgproc_busy_s(self) -> float:
        """Seconds the message co-processor was held."""
        return self.msgproc.busy_s

    # -- CPU time helpers ---------------------------------------------------
    #
    # Each is one Hold of the CPU or the co-processor: the process forms
    # (generators to be yielded from processes) yield it, the callback
    # forms pass ``then``.  Either way the hold runs to completion once
    # requested, releases itself and books its seconds.

    def busy(self, seconds: float):
        """Occupy the CPU for *seconds* (software path, bookkeeping)."""
        yield Hold(self.cpu, seconds)

    def busy_then(self, seconds: float, key: Any, then: Callable[[], None]) -> None:
        """Callback form of :meth:`busy`, for a caller that is not a
        process: hold the CPU for *seconds* under the arbitration *key*,
        then call ``then()`` once it is released -- the same hold window,
        grant order and busy time as :meth:`busy`."""
        Hold(self.cpu, seconds, key, then)

    def memcpy(self, nbytes: int):
        """Copy *nbytes* through the CPU at the calibrated memcpy rate.

        This is the cost the prefetch prototype pays on every hit: the
        prefetched block sits in a prefetch buffer and must be copied into
        the user's buffer (paper section 4.1).
        """
        yield Hold(self.cpu, self._copy_seconds(nbytes))

    def memcpy_then(self, nbytes: int, key: Any, then: Callable[[], None]) -> None:
        """Callback form of :meth:`memcpy` (see :meth:`busy_then`)."""
        Hold(self.cpu, self._copy_seconds(nbytes), key, then)

    def _copy_seconds(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError("cannot copy a negative size")
        return nbytes / self.params.memcpy_bps

    def compute(self, seconds: float):
        """Model application computation occupying the CPU."""
        yield Hold(self.cpu, seconds)

    def _receive_seconds(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError("cannot receive a negative size")
        return nbytes / self.params.receive_bps

    def receive(self, nbytes: int):
        """Land *nbytes* of incoming mesh data via the message
        co-processor (serialises with other receptions on this node, but
        not with application compute)."""
        yield Hold(self.msgproc, self._receive_seconds(nbytes))

    def receive_then(self, nbytes: int, key: Any, then: Callable[[], None]) -> None:
        """Callback form of :meth:`receive`, for a caller that is not a
        process: land *nbytes* under the arbitration *key*, then call
        ``then()`` once the co-processor is released -- the same hold
        window, grant order and busy time as :meth:`receive`."""
        Hold(self.msgproc, self._receive_seconds(nbytes), key, then)

    def landing_copy(self, nbytes: int):
        """Copy received data into a staging buffer (e.g. a prefetch
        buffer) on the message co-processor at memcpy speed."""
        yield Hold(self.msgproc, self._copy_seconds(nbytes))

    def __repr__(self) -> str:
        return f"<Node {self.node_id} {self.kind.value} at {self.position}>"
