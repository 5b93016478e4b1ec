"""Periodic dirty-block write-back (the I/O node's update daemon).

With write-back caching enabled, dirty blocks accumulate in the
I/O-node buffer cache; this daemon -- the Unix ``update``/``bdflush``
analogue -- flushes them to the UFS on a fixed interval so a crash (or
an unmount) never loses more than one interval's writes, and so dirty
pressure cannot permanently overflow the cache.
"""

from __future__ import annotations

from typing import Optional

from repro.paragonos.buffercache import BufferCache
from repro.sim import Environment
from repro.obs.monitor import NULL_MONITOR, Monitor


class SyncDaemon:
    """Flushes one buffer cache every *interval_s* simulated seconds."""

    def __init__(
        self,
        env: Environment,
        cache: BufferCache,
        interval_s: float = 30.0,
        name: str = "syncd",
        monitor: Optional[Monitor] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.env = env
        self.cache = cache
        self.interval_s = interval_s
        self.name = name
        self.monitor = monitor or NULL_MONITOR
        self.flushes = 0
        self._process = env.process(self._loop(), name=name)

    def _loop(self):
        while True:
            # Sleep until something is dirty (keeps the event queue empty
            # on an idle machine), then flush one interval later.
            yield self.cache.wait_for_dirty()
            yield self.env.timeout(self.interval_s)
            if self.cache.dirty_keys:
                yield from self.cache.flush()
                self.flushes += 1
                self.monitor.counter(f"{self.name}.flushes").add(1)

    def __repr__(self) -> str:
        return f"<SyncDaemon {self.name} every {self.interval_s}s>"
