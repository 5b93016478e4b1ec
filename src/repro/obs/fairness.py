"""Multi-tenant fairness accounting: Jain's index, percentiles, interference.

The single-job experiments judge a run by one number (the paper's
collective read bandwidth).  Once the machine serves *traffic* -- many
concurrent tenants competing for the same servers
(:mod:`repro.scale`) -- the question becomes distributional: did every
tenant get a proportional share, and who paid for the contention?

This module is pure bookkeeping over finished handle stats:

- :func:`jain_index` -- the classic fairness measure
  ``(sum x)^2 / (n * sum x^2)`` over per-tenant bandwidths, 1.0 for a
  perfectly even allocation, approaching ``1/n`` as one tenant
  monopolises the machine;
- :class:`TenantUsage` -- one tenant's delivered bytes, in-call time,
  and the sorted multiset of per-call durations (for latency
  percentiles);
- :class:`FairnessReport` -- the per-scenario aggregate, with a merge
  that is **commutative and associative** (mirroring
  :meth:`repro.obs.stats.PrefetchStats.merge`) so sharded bench cells
  can be combined in any order without moving a fingerprint.

Nothing here schedules simulation events or samples wall clocks; every
number is a pure function of the handles a scenario run collected, so
reports are bit-identical under either tie-break order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

MB = 1024 * 1024

#: Latency percentiles reported per tenant (nearest-rank).
LATENCY_PERCENTILES = (50, 90, 99)


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index over non-negative allocations.

    ``(sum x)^2 / (n * sum x^2)``, in ``(0, 1]`` whenever at least one
    value is positive.  Defined as 1.0 for the degenerate all-equal
    cases (including all-zero and empty): an allocation where every
    tenant got the same amount -- even nothing -- is perfectly fair.
    The equal-values fast path also keeps the "identical tenants => 1"
    law *exact* rather than up-to-rounding; the general case uses
    :func:`math.fsum` so the index is bit-stable under permutation of
    the tenants (a correctly-rounded sum does not depend on order).
    """
    if not values:
        return 1.0
    first = values[0]
    if all(v == first for v in values):
        return 1.0
    if any(v < 0 for v in values):
        raise ValueError("jain_index is defined over non-negative allocations")
    total = math.fsum(values)
    squares = math.fsum(v * v for v in values)
    if squares == 0.0:
        return 1.0
    # The exact quotient is at most 1 (Cauchy-Schwarz); rounding can put
    # near-equal allocations one ulp above it.
    return min(1.0, (total * total) / (len(values) * squares))


def nearest_rank_percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence (0 if empty)."""
    if not sorted_values:
        return 0.0
    if not 0 < pct <= 100:
        raise ValueError("percentile must be in (0, 100]")
    rank = math.ceil(pct / 100.0 * len(sorted_values))
    return sorted_values[rank - 1]


@dataclass
class TenantUsage:
    """One tenant's aggregate I/O accounting across all of its jobs.

    Only multiset-shaped state is stored -- integer sums plus the sorted
    per-call durations.  Every float aggregate (in-call seconds, hence
    bandwidth) is *derived* from the multiset with :func:`math.fsum`, so
    it is a pure function of the call population: folding handles in any
    order, or merging shards in any grouping, yields bit-identical
    usages.  A stored running float sum would pick up 1-ulp drift from
    accumulation order and break exactly that law.
    """

    tenant: str
    #: Bytes delivered to the tenant's read calls.
    bytes_read: int = 0
    #: Jobs (arrival cohorts) that ran to completion.
    jobs: int = 0
    #: Per-call durations as a **sorted** multiset: concatenation alone
    #: would make merge order observable through equality (the same
    #: trick :meth:`PrefetchStats.merge` uses for overlap fractions).
    call_durations_s: List[float] = field(default_factory=list)

    @property
    def read_calls(self) -> int:
        return len(self.call_durations_s)

    @property
    def read_call_time_s(self) -> float:
        """Seconds the tenant's ranks spent inside read calls
        (correctly-rounded sum over the duration multiset)."""
        return math.fsum(self.call_durations_s)

    @property
    def bandwidth_mbps(self) -> float:
        """The tenant's observed bandwidth: its bytes over its own
        in-call time (the paper's per-node metric, per tenant)."""
        t = self.read_call_time_s
        return (self.bytes_read / t) / MB if t > 0 else 0.0

    @property
    def mean_call_s(self) -> float:
        return self.read_call_time_s / self.read_calls if self.read_calls else 0.0

    def latency_percentile_s(self, pct: float) -> float:
        return nearest_rank_percentile(self.call_durations_s, pct)

    def record(self, nbytes: int, durations: Sequence[float]) -> None:
        """Fold one finished handle's stats into this usage."""
        self.bytes_read += nbytes
        self.call_durations_s = sorted(self.call_durations_s + list(durations))

    def merge(self, other: "TenantUsage") -> "TenantUsage":
        """Commutative/associative aggregate of two usages of one tenant."""
        if other.tenant != self.tenant:
            raise ValueError(f"cannot merge usage of {other.tenant!r} into {self.tenant!r}")
        return TenantUsage(
            tenant=self.tenant,
            bytes_read=self.bytes_read + other.bytes_read,
            jobs=self.jobs + other.jobs,
            call_durations_s=sorted(self.call_durations_s + other.call_durations_s),
        )

    def to_jsonable(self) -> dict:
        out = {
            "tenant": self.tenant,
            "bytes_read": self.bytes_read,
            "read_call_time_s": round(self.read_call_time_s, 6),
            "read_calls": self.read_calls,
            "jobs": self.jobs,
            "bandwidth_mbps": round(self.bandwidth_mbps, 4),
        }
        for pct in LATENCY_PERCENTILES:
            out[f"latency_p{pct}_s"] = round(self.latency_percentile_s(pct), 6)
        return out


@dataclass
class FairnessReport:
    """Per-tenant usage plus the fairness verdict for one scenario run.

    ``tenants`` maps tenant name to :class:`TenantUsage`; dict equality
    ignores insertion order, and :meth:`merge` unions by name, so the
    report participates in canonical fingerprints
    (:func:`repro.analysis.sanitizers.report_fingerprint`) without any
    order sensitivity.
    """

    tenants: Dict[str, TenantUsage] = field(default_factory=dict)
    #: Cross-job interference attribution: tenant -> solo-run bandwidth
    #: over shared-run bandwidth (>= 1 means the tenant ran slower under
    #: contention; filled only when the runner also raced each tenant
    #: alone).  compare=False: attribution is derived from *extra* runs,
    #: so its presence must not move a scenario fingerprint.
    interference: Optional[Dict[str, float]] = field(default=None, compare=False)

    @property
    def jain(self) -> float:
        """Jain's index over per-tenant bandwidths (sorted by name so
        the value is independent of dict insertion history)."""
        return jain_index([self.tenants[name].bandwidth_mbps for name in sorted(self.tenants)])

    @property
    def total_bytes(self) -> int:
        return sum(u.bytes_read for u in self.tenants.values())

    def usage(self, tenant: str) -> TenantUsage:
        if tenant not in self.tenants:
            self.tenants[tenant] = TenantUsage(tenant=tenant)
        return self.tenants[tenant]

    def merge(self, other: "FairnessReport") -> "FairnessReport":
        """Union-by-tenant merge; commutative and associative because
        :meth:`TenantUsage.merge` is and dict equality is unordered."""
        merged: Dict[str, TenantUsage] = {}
        for name in sorted(set(self.tenants) | set(other.tenants)):
            a = self.tenants.get(name)
            b = other.tenants.get(name)
            if a is not None and b is not None:
                merged[name] = a.merge(b)
            else:
                only = a if a is not None else b
                # Re-wrap through merge-with-empty so the result never
                # aliases either operand's mutable usage.
                merged[name] = only.merge(TenantUsage(tenant=name))
        return FairnessReport(tenants=merged)

    def to_jsonable(self) -> dict:
        out = {
            "jain_index": round(self.jain, 6),
            "tenants": [self.tenants[name].to_jsonable() for name in sorted(self.tenants)],
        }
        if self.interference is not None:
            out["interference"] = {
                name: round(self.interference[name], 4) for name in sorted(self.interference)
            }
        return out

    def summary(self) -> str:
        tenants = ", ".join(
            f"{name}={self.tenants[name].bandwidth_mbps:.2f}MB/s" for name in sorted(self.tenants)
        )
        return f"jain={self.jain:.3f} ({tenants})"
