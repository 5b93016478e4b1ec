"""Prefetch policies: deciding *what* to fetch ahead.

The paper's prototype is ``DepthKAhead(1)`` (config name "one-ahead"):
"The prototype prefetches only one block of data it anticipates will be
needed for the future read request.  [...] The prefetch request is
issued in anticipation of another read request issued by the same user
thread on the same file."  The anticipated block is the same process's
next request under the current I/O mode -- computable without messages
only in the deterministic-offset modes (M_RECORD, M_ASYNC), which is why
the prototype lives in M_RECORD.

Extensions (the paper's future work, exercised by the policy bench and
property suites):

- :class:`DepthKAhead` at ``depth > 1`` -- a deeper pipeline over the
  same mode arithmetic, skipping ranges a live buffer already covers.
- :class:`StrideDetector` -- infers a fixed stride from a handle's
  demand-offset history; attached to :class:`DepthKAhead` ("depth-k")
  it covers non-unit-stride M_ASYNC readers whose next offset the mode
  arithmetic cannot predict.
- :class:`StridedPolicy` -- prefetches only on a confident stride, so
  it stays silent on irregular streams.

All state lives on the policy objects and every decision is a pure
function of the handle's own demand stream and its own prefetcher's
buffer list, so policies never perturb same-timestamp tie-break
determinism.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.prefetcher import Prefetcher
    from repro.pfs.client import PFSFileHandle

#: A planned prefetch: (pfs_offset, length).
PlannedRange = Tuple[int, int]

#: Policy names accepted by :func:`make_policy` (and by
#: :attr:`repro.config.MachineConfig.prefetch_policy`).
POLICY_NAMES = ("none", "one-ahead", "depth-k", "strided")


class PrefetchPolicy:
    """Decides which ranges to prefetch after a demand read."""

    name = "base"

    def plan(
        self,
        handle: "PFSFileHandle",
        offset: int,
        nbytes: int,
        prefetcher: "Prefetcher",
    ) -> List[PlannedRange]:
        """Ranges to prefetch after a demand read of [offset, offset+nbytes)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class NoPrefetch(PrefetchPolicy):
    """Prefetching disabled (the paper's baseline)."""

    name = "none"

    def plan(self, handle, offset, nbytes, prefetcher):
        return []


def _arithmetic_ranges(handle: "PFSFileHandle", nbytes: int, depth: int) -> List[PlannedRange]:
    """The mode-arithmetic prediction shared by the depth policies.

    The anticipated base is the handle's own next offset under the
    current I/O mode; successive pipeline slots advance by the mode's
    per-request stride (``nprocs * nbytes`` in M_RECORD, ``nbytes``
    otherwise).  Ranges are clamped at EOF; planning stops at the first
    empty slot.
    """
    if nbytes <= 0:
        return []
    base = handle.next_read_offset(nbytes)
    if base is None:
        # Mode without deterministic offsets: nothing to anticipate.
        return []
    from repro.pfs.modes import IOMode

    stride = handle.nprocs * nbytes if handle.iomode is IOMode.M_RECORD else nbytes
    plans: List[PlannedRange] = []
    size = handle.file.size_bytes
    for k in range(depth):
        start = base + k * stride
        length = max(0, min(nbytes, size - start))
        if length <= 0:
            break
        plans.append((start, length))
    return plans


class StrideDetector:
    """Infers a fixed access stride from a handle's demand offsets.

    The detector becomes *confident* once the same non-zero stride has
    repeated :attr:`min_confirmations` times; any deviation resets the
    confirmation count, so an irregular stream never sustains
    confidence.  Warm-up is therefore at most ``min_confirmations + 1``
    observations for a perfectly regular pattern (locked by a Hypothesis
    property in ``tests/test_policy_properties.py``).
    """

    def __init__(self, min_confirmations: int = 2) -> None:
        if min_confirmations < 1:
            raise ValueError("min_confirmations must be >= 1")
        self.min_confirmations = min_confirmations
        self._last_offset: Optional[int] = None
        self._stride: Optional[int] = None
        self._confirmations = 0
        #: Size of the most recent observed request (None before any).
        self.last_nbytes: Optional[int] = None

    @property
    def stride(self) -> Optional[int]:
        """The currently hypothesised stride (None before two samples)."""
        return self._stride

    @property
    def confirmations(self) -> int:
        return self._confirmations

    @property
    def confident(self) -> bool:
        """True once the stride has repeated enough to trust."""
        return self._stride is not None and self._confirmations >= self.min_confirmations

    def observe(self, offset: int, nbytes: Optional[int] = None) -> None:
        """Feed one demand offset (and optionally its request size)."""
        if nbytes is not None:
            self.last_nbytes = nbytes
        if self._last_offset is not None:
            stride = offset - self._last_offset
            if stride != 0 and stride == self._stride:
                self._confirmations += 1
            else:
                self._stride = stride if stride != 0 else None
                self._confirmations = 1
        self._last_offset = offset

    def predict(self, offset: int, k: int = 1) -> Optional[int]:
        """Predicted offset of the demand *k* requests after *offset*."""
        if not self.confident:
            return None
        assert self._stride is not None
        return offset + k * self._stride

    def reset(self) -> None:
        self._last_offset = None
        self._stride = None
        self._confirmations = 0
        self.last_nbytes = None

    def __repr__(self) -> str:
        return (
            f"<StrideDetector stride={self._stride} "
            f"confirmations={self._confirmations}/{self.min_confirmations}>"
        )


class StridedPolicy(PrefetchPolicy):
    """Detects a fixed stride from the demand stream and runs ahead of it.

    Useful for M_ASYNC readers walking a file with lseek in a regular
    pattern the mode arithmetic cannot predict.  A thin wrapper over
    :class:`StrideDetector` that prefetches only when confident.
    """

    name = "strided"

    def __init__(self, depth: int = 1, min_confirmations: int = 2) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self.detector = StrideDetector(min_confirmations=min_confirmations)

    @property
    def min_confirmations(self) -> int:
        return self.detector.min_confirmations

    def plan(self, handle, offset, nbytes, prefetcher):
        self.detector.observe(offset, nbytes)
        if not self.detector.confident or nbytes <= 0:
            return []
        stride = self.detector.stride
        assert stride is not None
        plans: List[PlannedRange] = []
        size = handle.file.size_bytes
        for k in range(1, self.depth + 1):
            start = offset + k * stride
            if start < 0:
                break
            length = max(0, min(nbytes, size - start))
            if length <= 0:
                break
            plans.append((start, length))
        return plans


class DepthKAhead(PrefetchPolicy):
    """Depth-k prefetch pipeline: the paper's prototype at ``depth=1``.

    Plans up to *depth* anticipated requests from the handle's per-mode
    arithmetic (:func:`_arithmetic_ranges`).  ``DepthKAhead(1)`` with no
    detector is the prototype ("one-ahead").  A confident
    :class:`StrideDetector`, when attached, overrides the arithmetic:
    its stride equals the arithmetic stride on regular sequential and
    record streams, and it covers lseek-strided M_ASYNC streams the
    arithmetic mispredicts.

    Ranges overlapping an outstanding (live) prefetch buffer are
    filtered out of the plan, never re-requested (property-tested:
    planned ranges never overlap live buffers).
    """

    def __init__(self, depth: int = 1, detector: Optional[StrideDetector] = None) -> None:
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.depth = depth
        self.detector = detector

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"depth-{self.depth}"

    def plan(self, handle, offset, nbytes, prefetcher):
        if self.detector is not None:
            self.detector.observe(offset, nbytes)
        if self.depth < 1 or nbytes <= 0:
            return []
        return self._cap(self._candidates(handle, offset, nbytes), prefetcher)

    def _candidates(self, handle, offset, nbytes) -> List[PlannedRange]:
        det = self.detector
        if det is not None and det.confident:
            size = handle.file.size_bytes
            plans: List[PlannedRange] = []
            for k in range(1, self.depth + 1):
                start = det.predict(offset, k)
                if start is None or start < 0:
                    break
                length = max(0, min(nbytes, size - start))
                if length <= 0:
                    break
                plans.append((start, length))
            return plans
        return _arithmetic_ranges(handle, nbytes, self.depth)

    @staticmethod
    def _cap(ranges: List[PlannedRange], prefetcher) -> List[PlannedRange]:
        blist = getattr(prefetcher, "_list", None) if prefetcher is not None else None
        if blist is None:
            return ranges
        # Already in flight or ready: the pipeline covers it.
        return [(start, n) for start, n in ranges if not blist.overlaps_range(start, n)]

    def __repr__(self) -> str:
        return f"<DepthKAhead depth={self.depth} detector={self.detector!r}>"


def make_policy(
    name: str = "one-ahead",
    depth: int = 1,
    stride_detect: bool = True,
) -> PrefetchPolicy:
    """Policy registry keyed by the :class:`~repro.config.MachineConfig`
    ``prefetch_policy`` name.

    ``make_policy("one-ahead")`` builds exactly the paper's prototype,
    ``DepthKAhead(1)`` with no detector -- the default configuration
    stays bit-identical to the seed (golden-locked).  *stride_detect*
    attaches a :class:`StrideDetector` to the "depth-k" pipeline.
    """
    if name == "none":
        return NoPrefetch()
    if name == "one-ahead":
        return DepthKAhead(depth=max(1, depth))
    if name == "strided":
        return StridedPolicy(depth=max(1, depth))
    if name == "depth-k":
        return DepthKAhead(depth=depth, detector=StrideDetector() if stride_detect else None)
    raise ValueError(f"unknown prefetch policy {name!r}; known: {', '.join(POLICY_NAMES)}")
