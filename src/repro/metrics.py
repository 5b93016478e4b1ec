"""Bandwidth metrics, as the paper defines them.

Paper section 4: "a collective I/O request is considered complete when
the individual I/O requests of all the nodes have been satisfied.  The
read bandwidth is the total amount of data that can be read by all the
nodes per unit time as observed by the application.  For a parallel I/O
mode like M_RECORD, the numerator would be the amount of data read by
all the compute nodes and the time taken is the time taken by a compute
node to complete all the read calls."

With computation between reads, the read-call time *excludes* the
compute delays -- this is what lets prefetching raise the observed
bandwidth: a hit makes "the read access time appear less than it
actually is by reading the block before the read request was issued".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.stats import PrefetchStats
    from repro.pfs.client import PFSFileHandle

MB = 1024 * 1024


@dataclass
class BandwidthReport:
    """Read-performance summary of one collective run."""

    #: Total bytes read by all participating nodes.
    total_bytes: int
    #: Wall-clock span of the run (first call start to last completion).
    elapsed_s: float
    #: Per-rank time spent inside read calls.
    read_call_time_by_rank: Dict[int, float] = field(default_factory=dict)
    #: Per-rank bytes read.
    bytes_by_rank: Dict[int, int] = field(default_factory=dict)
    #: Per-rank read call counts.
    calls_by_rank: Dict[int, int] = field(default_factory=dict)
    #: Merged prefetch statistics, when prefetching was active.
    prefetch: Optional["PrefetchStats"] = None
    #: Per-layer latency breakdown (span kind -> exclusive seconds on the
    #: critical path), attached when the run was traced.  Excluded from
    #: equality: tracing must not change what a run *measures*.
    breakdown: Optional[Dict[str, float]] = field(default=None, compare=False)

    @property
    def read_time_s(self) -> float:
        """Time for "a compute node to complete all the read calls":
        the slowest node's total in-call time."""
        if not self.read_call_time_by_rank:
            return 0.0
        return max(self.read_call_time_by_rank.values())

    @property
    def collective_bandwidth_mbps(self) -> float:
        """The paper's metric: total bytes / slowest node's read-call time."""
        t = self.read_time_s
        return (self.total_bytes / t) / MB if t > 0 else 0.0

    @property
    def elapsed_bandwidth_mbps(self) -> float:
        """Total bytes / wall-clock elapsed (includes compute delays)."""
        return (self.total_bytes / self.elapsed_s) / MB if self.elapsed_s > 0 else 0.0

    @property
    def per_node_bandwidth_mbps(self) -> Dict[int, float]:
        """Each rank's bytes / its own read-call time."""
        out = {}
        for rank, t in self.read_call_time_by_rank.items():
            nbytes = self.bytes_by_rank.get(rank, 0)
            out[rank] = (nbytes / t) / MB if t > 0 else 0.0
        return out

    @property
    def mean_read_access_time_s(self) -> float:
        """Average duration of one read call across all ranks."""
        calls = sum(self.calls_by_rank.values())
        time = sum(self.read_call_time_by_rank.values())
        return time / calls if calls else 0.0

    @property
    def balanced(self) -> float:
        """Evenness of per-node benefit (min/max per-node bandwidth).

        "the prefetching benefits should be equally distributed amongst
        the processors in order to see an overall benefit."
        """
        per_node = [b for b in self.per_node_bandwidth_mbps.values() if b > 0]
        if not per_node:
            return 1.0
        return min(per_node) / max(per_node)


def report_from_handles(
    handles: List["PFSFileHandle"],
    elapsed_s: float,
) -> BandwidthReport:
    """Build a :class:`BandwidthReport` from finished handles."""
    report = BandwidthReport(
        total_bytes=sum(h.stats.bytes_read for h in handles),
        elapsed_s=elapsed_s,
    )
    prefetch_stats = None
    for h in handles:
        report.read_call_time_by_rank[h.rank] = h.stats.read_call_time
        report.bytes_by_rank[h.rank] = h.stats.bytes_read
        report.calls_by_rank[h.rank] = h.stats.read_calls
        if h.prefetcher is not None:
            if prefetch_stats is None:
                prefetch_stats = h.prefetcher.stats
            else:
                prefetch_stats = prefetch_stats.merge(h.prefetcher.stats)
    report.prefetch = prefetch_stats
    return report
