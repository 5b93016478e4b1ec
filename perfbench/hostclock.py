"""Host-speed reference loop and the rescaling of host times.

The host this benchmark runs on changes speed from minute to minute
(shared cores, shared caches and memory bandwidth, frequency scaling),
and CPU time moves with wall time, so raw seconds drift between two runs
of the same code.  Every cell is therefore timed next to a fixed
reference loop whose work never changes, and rescaled to what it would
have taken on a host where one reference loop takes ``NOMINAL_REF_S``:

    rescaled = raw * NOMINAL_REF_S / local_reference_time

The loop has two parts, because contention slows them differently and
the simulator does both kinds of work:

- interpreter work: heap pushes and pops (the event queue), generator
  resumes (simulated processes), dict and attribute access;
- memory work: lookups scattered over a table larger than the caches,
  and fresh numpy buffers that are filled and hashed, as content
  materialisation and the delivery audit do.

On a 2-core VM over 200 passes of fault-recovery, rescaling by the
interpreter part alone took the spread of 5-pass totals from 12% to 8%,
the memory part alone to 7%, and both together to under 4%.  Raw
seconds are kept beside every rescaled number, for information only.

Set-up time is a cold start in a fresh interpreter: mostly loading and
running module code, which the host's file and page-fault costs move as
much as its CPU speed.  The reference loop, in another process, missed
that: on the same host the raw set-up median of ten runs moved by 26%
while the loop's moved by 6% the other way.  A set-up time is therefore
rescaled by the cold import of numpy timed just before it in the same
process (``rescale_setup``); over twelve probes the ratio of the two
stayed within 3% of its median while each moved by up to 18%.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import statistics
import time
from typing import List, Sequence

import numpy as np

#: Reference-loop time, in seconds, of the nominal host that rescaled
#: times are expressed on.  Any fixed value works; this one is close to
#: the loop's time on an idle 2-core x86-64 VM, so rescaled times read
#: like seconds on that machine.
NOMINAL_REF_S = 0.005

#: Cold numpy import, in seconds, of the nominal host (the same host
#: as ``NOMINAL_REF_S``) that rescaled set-up times are expressed on.
NOMINAL_IMPORT_S = 0.075

#: Neighbouring reference samples whose mean rescales one cell.  The
#: mean, not the median: a cell of tens of milliseconds absorbs the
#: host's short stalls in proportion, as the mean of many reference
#: samples does, while the median ignores them.
WINDOW = 31

_EVENTS = 5000
_TABLE_SIZE = 200_000
_LOOKUPS = 10_000
_BUFFER_WORDS = 32_768
_BUFFERS = 2


class _Slot:
    __slots__ = ("value", "hits")

    def __init__(self) -> None:
        self.value = 0
        self.hits = 0


def _process(slots: dict, name: int):
    slot = slots[name % 16]
    while True:
        step = yield slot.value
        slot.value += step
        slot.hits += 1


def _interpreter_work() -> int:
    """A toy event loop over 32 generator processes."""
    slots = {i: _Slot() for i in range(16)}
    procs = [_process(slots, i) for i in range(32)]
    for proc in procs:
        next(proc)
    queue: List[tuple] = []
    for i in range(32):
        heapq.heappush(queue, (i * 0.5, i, procs[i]))
    tallies: dict = {}
    eid = 32
    total = 0
    for _ in range(_EVENTS):
        when, _eid, proc = heapq.heappop(queue)
        total += proc.send(1)
        total += slots[eid & 15].hits
        key = eid & 63
        tallies[key] = tallies.get(key, 0) + 1
        heapq.heappush(queue, (when + 1.0, eid, proc))
        eid += 1
    return total + len(tallies)


class ReferenceLoop:
    """The fixed reference work, with the table it reads built once."""

    def __init__(self) -> None:
        self._table = {i: (i * 7919) % 1_000_003 for i in range(_TABLE_SIZE)}
        self._keys = [(i * 48271) % _TABLE_SIZE for i in range(_LOOKUPS)]

    def _memory_work(self) -> int:
        table = self._table
        total = 0
        for key in self._keys:
            total += table[key]
        for j in range(_BUFFERS):
            words = (np.arange(j, j + _BUFFER_WORDS, dtype=np.int64) * 2654435761) & 0xFF
            total += hashlib.sha256(words.astype(np.uint8).tobytes()).digest()[0]
        return total

    def time(self) -> float:
        """Seconds one reference loop takes now.

        Collects garbage first and keeps the collector off while timing,
        so that a collection of the simulator's heap never lands in the
        sample.
        """
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            _interpreter_work()
            self._memory_work()
            return time.perf_counter() - start
        finally:
            gc.enable()


def local_reference(samples: Sequence[float], index: int) -> float:
    """Mean of the ``WINDOW`` reference samples centred on *index*."""
    lo = max(0, min(index - WINDOW // 2, len(samples) - WINDOW))
    return statistics.fmean(samples[lo : lo + WINDOW])


def rescale(raw_s: float, reference_s: float) -> float:
    """*raw_s* expressed on the nominal host."""
    return raw_s * NOMINAL_REF_S / reference_s


def rescale_setup(raw_s: float, numpy_import_s: float) -> float:
    """Set-up time *raw_s* on the nominal host, by the numpy import of
    the same fresh interpreter."""
    return raw_s * NOMINAL_IMPORT_S / numpy_import_s


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
