"""Prefetching statistics.

Paper section 4: "When a prefetched block is used to serve a future
request from the application, we say that there is a hit on that block.
Although hit ratio serves as a good measure of performance in a
sequential program, in a parallel programming model, overall read
bandwidth seen by an application is a better measure [...]  Another
important measure to consider is the amount of overlap of I/O with
computation."

We therefore track, per handle and aggregated:

- hits (buffer READY when the demand arrived),
- partial hits (buffer IN_FLIGHT: the demand waited only for the
  remainder -- "even if ... the data is not available in the prefetch
  cache (miss when the request is presented), if most of the read is
  already done, the performance benefits can be tremendous"),
- misses, and the wait/overlap times that quantify the benefit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class PrefetchStats:
    """Counters and accumulators for one prefetcher."""

    #: Demand reads served entirely from a READY buffer.
    hits: int = 0
    #: Demand reads that waited for an IN_FLIGHT buffer to land.
    partial_hits: int = 0
    #: Demand reads with no covering buffer.
    misses: int = 0
    #: Prefetch requests issued.
    issued: int = 0
    #: Prefetches skipped because node memory was full.
    skipped_oom: int = 0
    #: Prefetches skipped because an overlapping buffer already existed.
    skipped_duplicate: int = 0
    #: Buffers freed without ever serving a read (wasted work).
    discarded: int = 0
    #: Prefetch transfers that errored (e.g. media failures).
    failed: int = 0
    #: Failed prefetch transfers re-issued within the retry budget (only
    #: non-zero under fault injection).  compare=False: pre-fault-plane
    #: report fingerprints must stay bit-identical, so this counter is
    #: informational -- fault tests compare it explicitly.
    retried: int = field(default=0, compare=False)
    #: Demand reads that waited on a prefetch which then failed and fell
    #: back to a direct read.
    failed_fallbacks: int = 0
    #: Always 0: no policy throttles.  Kept because report fingerprints
    #: hash every compared field, and dropping it would change every
    #: committed golden.
    throttled: int = 0
    #: Bytes fetched by prefetch requests.
    bytes_prefetched: int = 0
    #: Bytes delivered to demand reads from prefetch buffers.
    bytes_served: int = 0
    #: Time demand reads spent waiting on in-flight prefetches.
    partial_wait_time: float = 0.0
    #: Disk/transfer time hidden from the application: for each consumed
    #: buffer, the span between prefetch issue and demand arrival capped
    #: at the prefetch's service time.
    overlap_time: float = 0.0
    #: Per-consumption overlap fractions (1.0 = fully hidden).
    overlap_fractions: List[float] = field(default_factory=list)

    @property
    def demand_reads(self) -> int:
        return self.hits + self.partial_hits + self.misses + self.failed_fallbacks

    @property
    def hit_rate(self) -> float:
        """Fraction of demand reads served fully from a ready buffer.

        Zero-read guarded: 0.0 before any demand read.  The canonical
        rate accessor consumers (benches, reports) should use instead
        of dividing counters ad hoc.
        """
        total = self.demand_reads
        return self.hits / total if total else 0.0

    @property
    def partial_hit_rate(self) -> float:
        """Fraction of demand reads that waited on an in-flight prefetch."""
        total = self.demand_reads
        return self.partial_hits / total if total else 0.0

    @property
    def miss_rate(self) -> float:
        """Fraction of demand reads with no covering buffer (zero-read
        guarded).  Failed fallbacks count as their own category, so
        ``hit_rate + partial_hit_rate + miss_rate`` may fall short of 1
        under fault injection."""
        total = self.demand_reads
        return self.misses / total if total else 0.0

    @property
    def coverage(self) -> float:
        """Fraction of demand reads that touched a prefetch buffer at all."""
        total = self.demand_reads
        return (self.hits + self.partial_hits) / total if total else 0.0

    @property
    def waste_ratio(self) -> float:
        """Fraction of issued prefetches that never served a read."""
        return self.discarded / self.issued if self.issued else 0.0

    @property
    def mean_overlap_fraction(self) -> float:
        if not self.overlap_fractions:
            return 0.0
        return sum(self.overlap_fractions) / len(self.overlap_fractions)

    def merge(self, other: "PrefetchStats") -> "PrefetchStats":
        """Aggregate of two stats objects (for machine-wide reporting)."""
        out = PrefetchStats()
        for name in (
            "hits",
            "partial_hits",
            "misses",
            "issued",
            "skipped_oom",
            "skipped_duplicate",
            "discarded",
            "failed",
            "retried",
            "failed_fallbacks",
            "throttled",
            "bytes_prefetched",
            "bytes_served",
        ):
            setattr(out, name, getattr(self, name) + getattr(other, name))
        out.partial_wait_time = self.partial_wait_time + other.partial_wait_time
        out.overlap_time = self.overlap_time + other.overlap_time
        # Sorted multiset union: concatenation alone would make merge
        # order observable through dataclass equality (a+b != b+a), so
        # merging handles in a different order would yield unequal -- yet
        # semantically identical -- machine-wide stats.  Sorting keeps
        # merge commutative and associative; the mean is unaffected.
        out.overlap_fractions = sorted(self.overlap_fractions + other.overlap_fractions)
        return out

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"reads={self.demand_reads} hits={self.hits} "
            f"partial={self.partial_hits} misses={self.misses} "
            f"hit_rate={self.hit_rate:.2f} coverage={self.coverage:.2f} "
            f"overlap={self.mean_overlap_fraction:.2f} "
            f"issued={self.issued} wasted={self.discarded}"
        )
