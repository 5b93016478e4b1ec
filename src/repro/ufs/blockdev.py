"""Block-granular device over a RAID array.

Translates block indices into byte LBAs and exposes extent reads/writes
so the UFS can issue one disk request per physically contiguous run
(Fast Path block coalescing: "file system block coalescing is done on
large read and write operations, which reduces the number of required
disk accesses when blocks of the file are contiguous on the disk").
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.hardware.raid import RAID3Array
from repro.obs.trace import TraceContext


class BlockDevice:
    """Fixed-block-size view of a RAID array."""

    def __init__(self, array: RAID3Array, block_size: int) -> None:
        if block_size <= 0:
            raise ValueError("block size must be positive")
        self.array = array
        self.block_size = block_size

    @property
    def total_blocks(self) -> int:
        return self.array.capacity_bytes // self.block_size

    def read_extent(self, start_block: int, nblocks: int, ctx: Optional[TraceContext] = None):
        """Generator: read *nblocks* contiguous blocks in one disk request."""
        self._validate(start_block, nblocks)
        nbytes = nblocks * self.block_size
        yield from self.array.read(start_block * self.block_size, nbytes, ctx=ctx)
        return nbytes

    def write_extent(self, start_block: int, nblocks: int, ctx: Optional[TraceContext] = None):
        """Generator: write *nblocks* contiguous blocks in one disk request."""
        self._validate(start_block, nblocks)
        nbytes = nblocks * self.block_size
        yield from self.array.write(start_block * self.block_size, nbytes, ctx=ctx)
        return nbytes

    def access_then(
        self, kind: str, start_block: int, nblocks: int, key: Any, then: Callable, ctx=None
    ) -> None:
        """Callback form of :meth:`read_extent` / :meth:`write_extent`
        (*kind*): see :meth:`RAID3Array.access_then`."""
        self._validate(start_block, nblocks)
        bs = self.block_size
        self.array.access_then(kind, start_block * bs, nblocks * bs, key, then, ctx)

    def _validate(self, start_block: int, nblocks: int) -> None:
        if nblocks <= 0:
            raise ValueError("extent must contain at least one block")
        if start_block < 0 or start_block + nblocks > self.total_blocks:
            raise ValueError(
                f"extent [{start_block}, {start_block + nblocks}) outside device "
                f"of {self.total_blocks} blocks"
            )

    def __repr__(self) -> str:
        return f"<BlockDevice {self.total_blocks} x {self.block_size}B>"
