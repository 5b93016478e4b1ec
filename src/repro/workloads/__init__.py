"""Workload generators and drivers.

- :mod:`repro.workloads.synthetic` -- the paper's synthetic workloads:
  I/O-bound readers (no computation between reads) and balanced readers
  (fixed computation delay between reads), plus the separate-files
  variant of Figure 2.
- :mod:`repro.workloads.patterns` -- offset-sequence generators
  (sequential, strided, random) for M_ASYNC studies.
- :mod:`repro.workloads.traces` -- I/O trace recording and replay for
  trace-driven runs.
"""

from repro.workloads.patterns import (
    RandomPattern,
    SequentialPattern,
    StridedPattern,
)
from repro.workloads.synthetic import (
    CollectiveReadWorkload,
    CollectiveWriteWorkload,
    SeparateFilesWorkload,
    StridedReadWorkload,
    WorkloadResult,
)
from repro.workloads.traces import TraceEvent, TraceRecorder, TraceReplayer

__all__ = [
    "CollectiveReadWorkload",
    "CollectiveWriteWorkload",
    "RandomPattern",
    "SeparateFilesWorkload",
    "SequentialPattern",
    "StridedPattern",
    "StridedReadWorkload",
    "TraceEvent",
    "TraceRecorder",
    "TraceReplayer",
    "WorkloadResult",
]
