"""I/O-node file-system buffer cache.

The Paragon OS server keeps a block cache per I/O node; PFS mounts can
enable or disable it ("Currently supported buffering strategies allow
data buffering on the I/O nodes to be enabled or disabled").  When
buffering is disabled, Fast Path I/O bypasses this cache entirely and
reads stream from the disks straight into the user's buffer.

The cache is an LRU over fixed-size file-system blocks keyed by
``(file_id, block_index)``.  Concurrent misses on the same block are
collapsed: the second requester waits for the first fetch instead of
issuing a duplicate disk read (read-once semantics).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Generator, Optional, Tuple

from repro.sim import Environment, Event
from repro.obs.monitor import NULL_MONITOR, Monitor

BlockKey = Tuple[int, int]  # (file_id, block_index)


class CacheBlock:
    """One cached file-system block."""

    __slots__ = ("key", "data", "dirty")

    def __init__(self, key: BlockKey, data: bytes, dirty: bool = False) -> None:
        self.key = key
        self.data = data
        self.dirty = dirty


class BufferCache:
    """LRU block cache with miss collapsing and write-back dirty blocks."""

    def __init__(
        self,
        env: Environment,
        capacity_blocks: int,
        block_size: int,
        name: str = "bcache",
        monitor: Optional[Monitor] = None,
    ) -> None:
        if capacity_blocks <= 0:
            raise ValueError("cache needs at least one block")
        if block_size <= 0:
            raise ValueError("block size must be positive")
        self.env = env
        self.capacity_blocks = capacity_blocks
        self.block_size = block_size
        self.name = name
        self.monitor = monitor or NULL_MONITOR
        self._blocks: "OrderedDict[BlockKey, CacheBlock]" = OrderedDict()
        #: In-flight fetches: key -> event fired with the block when loaded.
        self._inflight: Dict[BlockKey, Event] = {}
        #: Called with (key, data) to persist a dirty block (wired to the
        #: UFS by the PFS server; used by flush and the sync daemon).
        self.writeback: Optional[Callable[[BlockKey, bytes], Generator]] = None
        #: Events to trigger the next time a block becomes dirty (lets
        #: the sync daemon sleep instead of polling an empty cache).
        self._dirty_waiters: list = []
        #: Always-on event tallies (hits, misses, ...), independent of
        #: the monitor.
        self.counts: Dict[str, int] = {}

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, key: BlockKey) -> bool:
        return key in self._blocks

    def peek(self, key: BlockKey) -> Optional[bytes]:
        """Return cached data without touching LRU order (tests/debug)."""
        block = self._blocks.get(key)
        return block.data if block is not None else None

    @property
    def dirty_keys(self):
        return [k for k, b in self._blocks.items() if b.dirty]

    # -- core operations ----------------------------------------------------------

    def read_block(self, key: BlockKey, fetch: Callable[[], Generator]):
        """Generator: return the block's data, fetching on a miss.

        *fetch* is a generator function performing the actual disk read
        and returning the block bytes; it is only invoked on a miss, and
        only once per concurrently-missed block.
        """
        block = self._blocks.get(key)
        if block is not None:
            self._blocks.move_to_end(key)
            self._count("hits")
            return block.data

        pending = self._inflight.get(key)
        if pending is not None:
            # Someone else is already fetching this block.
            self._count("collapsed_misses")
            data = yield pending
            return data

        self._count("misses")
        event = self.env.event()
        self._inflight[key] = event
        try:
            data = yield from fetch()
        except Exception as exc:
            del self._inflight[key]
            event.defused = True
            event.fail(exc)
            raise
        del self._inflight[key]
        self._insert(CacheBlock(key, data))
        event.succeed(data)
        return data

    def write_block(self, key: BlockKey, data: bytes) -> None:
        """Install *data* for *key* as dirty (write-back caching)."""
        block = self._blocks.get(key)
        if block is not None:
            block.data = data
            block.dirty = True
            self._blocks.move_to_end(key)
        else:
            self._insert(CacheBlock(key, data, dirty=True))
        self._count("writes")
        waiters, self._dirty_waiters = self._dirty_waiters, []
        for event in waiters:
            event.succeed()

    def wait_for_dirty(self) -> Event:
        """Event that fires the next time a block becomes dirty (fires
        immediately if one already is)."""
        event = Event(self.env)
        if self.dirty_keys:
            event.succeed()
        else:
            self._dirty_waiters.append(event)
        return event

    def invalidate(self, key: BlockKey) -> None:
        self._blocks.pop(key, None)

    def invalidate_file(self, file_id: int) -> None:
        for key in [k for k in self._blocks if k[0] == file_id]:
            del self._blocks[key]

    def flush(self):
        """Generator: write back every dirty block via :attr:`writeback`."""
        for key in list(self._blocks):
            block = self._blocks.get(key)
            if block is not None and block.dirty:
                if self.writeback is not None:
                    yield from self.writeback(key, block.data)
                block.dirty = False
                self._count("writebacks")
        # Shed any dirty-pressure overflow now that blocks are clean.
        while len(self._blocks) > self.capacity_blocks:
            self._blocks.popitem(last=False)
            self._count("evictions")
        return None

    # -- internals ---------------------------------------------------------------

    def _insert(self, block: CacheBlock) -> None:
        self._blocks[block.key] = block
        self._blocks.move_to_end(block.key)
        # Evict least-recently-used CLEAN blocks.  Dirty blocks are never
        # dropped synchronously (their data exists nowhere else); if the
        # cache is all dirty it transiently overflows until the sync
        # daemon (or a flush) cleans blocks -- real kernels throttle
        # writers here, we surface it via ``overflow_blocks``.
        while len(self._blocks) > self.capacity_blocks:
            victim_key = None
            # sim-ok: R003v2 -- OrderedDict iterates in LRU (move_to_end) order, deterministic simulation state; sorting would break LRU victim choice
            for key, candidate in self._blocks.items():
                if not candidate.dirty:
                    victim_key = key
                    break
            if victim_key is None:
                self._count("dirty_overflow")
                break
            del self._blocks[victim_key]
            self._count("evictions")

    @property
    def dirty_count(self) -> int:
        return sum(1 for b in self._blocks.values() if b.dirty)

    @property
    def overflow_blocks(self) -> int:
        """Blocks held beyond capacity (only dirty pressure causes this)."""
        return max(0, len(self._blocks) - self.capacity_blocks)

    def _count(self, what: str) -> None:
        self.counts[what] = self.counts.get(what, 0) + 1
        self.monitor.counter(f"{self.name}.{what}").add(1)

    def __repr__(self) -> str:
        return (
            f"<BufferCache {self.name} {len(self._blocks)}/{self.capacity_blocks} "
            f"blocks of {self.block_size}B>"
        )
