"""Prefetch buffer structures.

Paper section 3: "Once the asynchronous request is done, the data that
has been read is stored in a buffer along with other details such as
the PFS file offset, the size of the data in bytes etc.  This prefetch
buffer structure is part of a list of all the prefetch buffer
structures of data that have been prefetched from that particular file.
[...] Memory for the prefetch buffers is allocated in the compute node.
At the time the process closes the file, all the prefetch buffers are
freed."

One deviation from the prototype, recorded in DESIGN.md: consumed
buffers release their *memory* immediately (the struct stays on the
list for statistics).  Retaining every consumed buffer until close --
the literal reading of the paper -- overflows a 32MB node on the
paper's own 128MB workloads, so the prototype must have recycled too.
``retain_consumed=True`` restores the literal behaviour for small runs.
"""

from __future__ import annotations

import enum
import itertools
from typing import List, Optional

from repro.hardware.memory import MemoryRegion, OutOfMemoryError
from repro.sim import Environment, Event
from repro.ufs.data import Data

_buffer_ids = itertools.count(1)


class BufferState(enum.Enum):
    """Lifecycle of a prefetch buffer."""

    IN_FLIGHT = "in-flight"  # async request issued, data not yet landed
    READY = "ready"  # data present, waiting to be consumed
    CONSUMED = "consumed"  # served a demand read
    DISCARDED = "discarded"  # freed without ever being used
    FAILED = "failed"  # the asynchronous read errored; no data


class PrefetchBuffer:
    """One prefetched range of one PFS file."""

    __slots__ = (
        "buffer_id",
        "offset",
        "length",
        "state",
        "data",
        "complete",
        "issued_at",
        "ready_at",
        "consumed_at",
    )

    def __init__(self, env: Environment, offset: int, length: int) -> None:
        self.buffer_id = next(_buffer_ids)
        self.offset = offset
        self.length = length
        self.state = BufferState.IN_FLIGHT
        self.data: Optional[Data] = None
        #: Fires when the asynchronous request lands the data.
        self.complete: Event = env.event()
        self.issued_at = env.now
        self.ready_at: Optional[float] = None
        self.consumed_at: Optional[float] = None

    @property
    def end(self) -> int:
        return self.offset + self.length

    def covers(self, offset: int, nbytes: int) -> bool:
        """True if this buffer's range contains [offset, offset+nbytes)."""
        return self.offset <= offset and offset + nbytes <= self.end

    def mark_ready(self, env: Environment, data: Data) -> None:
        if self.state is not BufferState.IN_FLIGHT:
            raise RuntimeError(f"buffer {self.buffer_id} ready twice")
        self.data = data
        self.state = BufferState.READY
        self.ready_at = env.now
        self.complete.succeed()

    def __repr__(self) -> str:
        return (
            f"<PrefetchBuffer {self.buffer_id} [{self.offset}, {self.end}) " f"{self.state.value}>"
        )


class PrefetchBufferList:
    """Per-(handle, file) list of prefetch buffers with memory accounting."""

    def __init__(
        self,
        env: Environment,
        memory: MemoryRegion,
        retain_consumed: bool = False,
        alloc_class: str = "prefetch",
    ) -> None:
        self.env = env
        self.memory = memory
        self.retain_consumed = retain_consumed
        self.alloc_class = alloc_class
        self.buffers: List[PrefetchBuffer] = []

    def __len__(self) -> int:
        return len(self.buffers)

    @property
    def live_buffers(self) -> List[PrefetchBuffer]:
        """Buffers still holding memory (in-flight or ready)."""
        return [b for b in self.buffers if b.state in (BufferState.IN_FLIGHT, BufferState.READY)]

    @property
    def live_bytes(self) -> int:
        """Bytes currently held by live buffers (prefetch-memory pressure)."""
        return sum(b.length for b in self.live_buffers)

    def find_covering(self, offset: int, nbytes: int) -> Optional[PrefetchBuffer]:
        """The first live buffer containing the requested range."""
        for buffer in self.buffers:
            if (
                buffer.state in (BufferState.IN_FLIGHT, BufferState.READY)
                and buffer.covers(offset, nbytes)
            ):
                return buffer
        return None

    def overlaps_range(self, offset: int, nbytes: int) -> bool:
        """True if any live buffer intersects the range (dedup check)."""
        end = offset + nbytes
        for buffer in self.live_buffers:
            if buffer.offset < end and offset < buffer.end:
                return True
        return False

    def issue(self, offset: int, length: int) -> PrefetchBuffer:
        """Allocate memory and register a new in-flight buffer.

        Raises :class:`OutOfMemoryError` if the node cannot hold it.
        """
        if length <= 0:
            raise ValueError("prefetch length must be positive")
        self.memory.allocate(length, self.alloc_class)
        buffer = PrefetchBuffer(self.env, offset, length)
        self.buffers.append(buffer)
        return buffer

    def consume(self, buffer: PrefetchBuffer) -> None:
        """Mark a READY buffer as used by a demand read."""
        if buffer.state is not BufferState.READY:
            raise RuntimeError(f"consuming {buffer!r} in state {buffer.state}")
        buffer.state = BufferState.CONSUMED
        buffer.consumed_at = self.env.now
        if not self.retain_consumed:
            self.memory.free(buffer.length, self.alloc_class)
            buffer.data = None

    def fail(self, buffer: PrefetchBuffer) -> None:
        """Mark an in-flight buffer as failed, releasing its memory.

        Waiters on ``buffer.complete`` are woken (with no data); the
        demand path falls back to a direct read.
        """
        if buffer.state is not BufferState.IN_FLIGHT:
            raise RuntimeError(f"failing {buffer!r} in state {buffer.state}")
        buffer.state = BufferState.FAILED
        self.memory.free(buffer.length, self.alloc_class)
        buffer.data = None
        if not buffer.complete.triggered:
            buffer.complete.succeed()

    def discard_before(self, offset: int) -> int:
        """Free READY buffers entirely behind *offset* (stale); returns count."""
        n = 0
        for buffer in self.buffers:
            if buffer.state is BufferState.READY and buffer.end <= offset:
                buffer.state = BufferState.DISCARDED
                self.memory.free(buffer.length, self.alloc_class)
                buffer.data = None
                n += 1
        return n

    def free_all(self) -> int:
        """Release every buffer still holding memory (file close).

        In-flight buffers are marked discarded; when their data lands the
        prefetcher drops it.  Returns the number of buffers freed.
        """
        n = 0
        for buffer in self.buffers:
            if buffer.state in (BufferState.IN_FLIGHT, BufferState.READY):
                buffer.state = BufferState.DISCARDED
                self.memory.free(buffer.length, self.alloc_class)
                buffer.data = None
                n += 1
            elif buffer.state is BufferState.CONSUMED and self.retain_consumed:
                self.memory.free(buffer.length, self.alloc_class)
                buffer.data = None
        self.buffers.clear()
        return n

    def __repr__(self) -> str:
        live = len(self.live_buffers)
        return f"<PrefetchBufferList {live} live / {len(self.buffers)} total>"


__all__ = [
    "BufferState",
    "OutOfMemoryError",
    "PrefetchBuffer",
    "PrefetchBufferList",
]
