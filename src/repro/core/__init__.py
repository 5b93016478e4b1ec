"""The paper's contribution: client-side prefetching for the PFS.

Paper section 3: after every user read, the client issues an
asynchronous request (through the standard ART machinery) for the block
it anticipates the same process will read next.  Prefetched data lands
in a per-file prefetch buffer list in compute-node memory; the file
pointer is untouched; buffers are freed when the file is closed.  A hit
costs a memory copy from the prefetch buffer into the user's buffer --
the overhead that makes prefetching a wash (or a small loss) when there
is no computation to overlap with.

- :mod:`repro.core.prefetch_buffer` -- buffer structures and the
  per-file buffer list.
- :mod:`repro.core.policies` -- what to prefetch: the paper's
  one-request-ahead prototype is ``DepthKAhead(1)``; deeper pipelines,
  stride detection and a strided policy are the extensions.
- :mod:`repro.core.prefetcher` -- the prefetcher: hit / partial-hit /
  miss service and prefetch issue.

Prefetch statistics live in :mod:`repro.obs.stats`.
"""

from repro.core.policies import (
    POLICY_NAMES,
    DepthKAhead,
    NoPrefetch,
    PrefetchPolicy,
    StrideDetector,
    StridedPolicy,
    make_policy,
)
from repro.core.prefetch_buffer import BufferState, PrefetchBuffer, PrefetchBufferList
from repro.core.prefetcher import Prefetcher
from repro.obs.stats import PrefetchStats

__all__ = [
    "BufferState",
    "DepthKAhead",
    "NoPrefetch",
    "POLICY_NAMES",
    "PrefetchBuffer",
    "PrefetchBufferList",
    "PrefetchPolicy",
    "PrefetchStats",
    "Prefetcher",
    "StrideDetector",
    "StridedPolicy",
    "make_policy",
]
