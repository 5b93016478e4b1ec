"""Hypothesis properties over the depth-k policy family.

Three contracts, each stated as a law over randomly generated streams
rather than a handful of examples:

1. the stride detector recovers any regular (start, stride) pattern
   within its documented warm-up and predicts exactly;
2. the paper's prototype, ``make_policy("one-ahead")`` =
   ``DepthKAhead(depth=1)`` with no detector, plans exactly the next
   anticipated request, EOF-clamped, for every mode, geometry, and
   offset (plus an end-to-end golden-fingerprint check on the bench3
   grid);
3. capped plans never overlap a live prefetch buffer nor each other,
   and stay inside the file.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizers import report_fingerprint
from repro.core import DepthKAhead, StrideDetector, make_policy
from repro.core.prefetch_buffer import PrefetchBufferList
from repro.experiments.common import KB, run_collective, scaled_file_size
from repro.hardware.memory import MemoryRegion
from repro.pfs import IOMode
from repro.sim import Environment

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

MB = 1024 * 1024


class _FakeHandle:
    """Deterministic handle surface for plan() laws."""

    def __init__(self, mode, rank, nprocs, size, next_offset):
        self.iomode = mode
        self.rank = rank
        self.nprocs = nprocs
        self._next = next_offset

        class _File:
            size_bytes = size

        self.file = _File()

    def next_read_offset(self, nbytes):
        return self._next


class _FakePrefetcher:
    """Stub carrying just the buffer list the planner consults."""

    def __init__(self, blist):
        self._list = blist


class TestStrideDetectorRecovery:
    @given(
        start=st.integers(min_value=0, max_value=2**30),
        stride=st.integers(min_value=-(2**20), max_value=2**20).filter(lambda s: s != 0),
        min_confirmations=st.integers(min_value=1, max_value=5),
        nbytes=st.integers(min_value=1, max_value=1 * MB),
        lookahead=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_regular_pattern_recovered_within_warmup(
        self, start, stride, min_confirmations, nbytes, lookahead
    ):
        """Warm-up is exactly min_confirmations + 1 observations: one
        short of it the detector must not be confident, at it the
        detector must know the stride and predict exactly."""
        det = StrideDetector(min_confirmations=min_confirmations)
        for i in range(min_confirmations):
            det.observe(start + i * stride, nbytes)
            assert not det.confident
        last = start + min_confirmations * stride
        det.observe(last, nbytes)
        assert det.confident
        assert det.stride == stride
        assert det.last_nbytes == nbytes
        assert det.predict(last, lookahead) == last + lookahead * stride

    @given(
        start=st.integers(min_value=0, max_value=2**20),
        stride=st.integers(min_value=1, max_value=2**16),
        deviation=st.integers(min_value=1, max_value=2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_deviation_breaks_confidence(self, start, stride, deviation):
        det = StrideDetector(min_confirmations=2)
        for i in range(3):
            det.observe(start + i * stride)
        assert det.confident
        # Any off-pattern step (different stride) resets confirmations.
        det.observe(start + 2 * stride + stride + deviation + stride * 2)
        assert not det.confident
        assert det.predict(0) is None

    @given(offsets=st.lists(st.integers(min_value=0, max_value=2**20), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_confidence_implies_a_real_repeated_stride(self, offsets):
        """Whatever the stream, confidence is only ever claimed for a
        non-zero stride that the tail of the stream actually repeated."""
        det = StrideDetector(min_confirmations=2)
        for offset in offsets:
            det.observe(offset)
        if det.confident:
            k = det.min_confirmations
            tail = offsets[-(k + 1):]
            deltas = {b - a for a, b in zip(tail, tail[1:])}
            assert deltas == {det.stride}
            assert det.stride != 0


def _next_request(handle, nbytes):
    """Reference plan of the prototype: the handle's next request,
    clamped at EOF, or nothing past EOF / when unpredictable."""
    start = handle.next_read_offset(nbytes)
    if start is None:
        return []
    length = min(nbytes, handle.file.size_bytes - start)
    return [(start, length)] if length > 0 else []


class TestDepthOneEquivalence:
    @given(
        mode=st.sampled_from([IOMode.M_RECORD, IOMode.M_ASYNC, IOMode.M_UNIX]),
        nprocs=st.integers(min_value=1, max_value=64),
        data=st.data(),
        size_blocks=st.integers(min_value=0, max_value=512),
        next_block=st.integers(min_value=0, max_value=600),
        nbytes=st.integers(min_value=1, max_value=256 * KB),
    )
    @settings(max_examples=300, deadline=None)
    def test_depth_one_plans_exactly_like_one_ahead(
        self, mode, nprocs, data, size_blocks, next_block, nbytes
    ):
        rank = data.draw(st.integers(min_value=0, max_value=nprocs - 1))
        size = size_blocks * 4 * KB
        handle = _FakeHandle(mode, rank, nprocs, size, next_block * 4 * KB)
        proto = make_policy("one-ahead")
        assert proto.plan(handle, 0, nbytes, None) == _next_request(handle, nbytes)

    @given(
        nprocs=st.integers(min_value=1, max_value=16),
        nbytes=st.integers(min_value=1, max_value=128 * KB),
        rounds=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_equivalence_survives_a_sequential_demand_stream(
        self, nprocs, nbytes, rounds
    ):
        """Replaying a whole M_RECORD demand stream keeps the plans
        identical at every step (the depth-1 pipeline never gets ahead
        of the prototype, and EOF clamps agree)."""
        size = nprocs * nbytes * 24
        proto = make_policy("one-ahead")
        for step in range(rounds):
            offset = step * nprocs * nbytes
            handle = _FakeHandle(
                IOMode.M_RECORD, 0, nprocs, size, offset + nprocs * nbytes
            )
            assert proto.plan(handle, offset, nbytes, None) == _next_request(handle, nbytes)

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    @pytest.mark.parametrize("size_kb,prefetch", [(64, False), (64, True), (256, True)])
    def test_bench3_cells_via_config(self, size_kb, prefetch, tie_break):
        """Threading the default policy knobs through ``MachineConfig``
        and ``Machine.build_prefetcher`` reproduces the committed bench3
        goldens under both same-timestamp tie-break orders."""
        with open(GOLDEN_DIR / "bench3_fingerprints.json") as fh:
            golden = json.load(fh)["cells"]
        report = run_collective(
            request_size=size_kb * KB,
            file_size=scaled_file_size(size_kb * KB, rounds=4),
            iomode=IOMode.M_RECORD,
            prefetch=prefetch,
            rounds=4,
            tie_break=tie_break,
            prefetch_policy="one-ahead",
            prefetch_depth=1,
            prefetch_stride_detect=True,
        )
        key = f"table1:{size_kb}kb:prefetch={prefetch}"
        assert report_fingerprint(report) == golden[key]

    def test_depth_k_at_one_matches_the_golden_grid(self):
        """End-to-end: a depth-k pipeline at k=1 (detector off) is
        bit-identical to the committed one-ahead golden fingerprints."""
        with open(GOLDEN_DIR / "bench3_fingerprints.json") as fh:
            golden = json.load(fh)["cells"]
        for size_kb in (64, 256):
            report = run_collective(
                request_size=size_kb * KB,
                file_size=scaled_file_size(size_kb * KB, rounds=4),
                iomode=IOMode.M_RECORD,
                prefetch=True,
                rounds=4,
                prefetch_policy="depth-k",
                prefetch_depth=1,
                prefetch_stride_detect=False,
            )
            key = f"table1:{size_kb}kb:prefetch=True"
            assert report_fingerprint(report) == golden[key]


class TestPlanSafety:
    @given(
        depth=st.integers(min_value=1, max_value=6),
        nbytes=st.integers(min_value=1, max_value=128 * KB),
        next_block=st.integers(min_value=0, max_value=64),
        live=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=96),  # offset in 64KB blocks
                st.integers(min_value=1, max_value=4),  # length in 64KB blocks
            ),
            max_size=6,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_capped_plans_never_overlap_live_buffers(self, depth, nbytes, next_block, live):
        env = Environment()
        blist = PrefetchBufferList(env, MemoryRegion(64 * MB))
        for off_blk, len_blk in live:
            blist.issue(off_blk * 64 * KB, len_blk * 64 * KB)
        policy = DepthKAhead(depth=depth)
        handle = _FakeHandle(
            IOMode.M_ASYNC, 0, 1, 128 * 64 * KB, next_block * 64 * KB
        )
        planned = policy.plan(handle, 0, nbytes, _FakePrefetcher(blist))

        for start, length in planned:
            assert length > 0
            assert start + length <= handle.file.size_bytes
            assert not blist.overlaps_range(start, length), (start, length)
        # Plans never overlap each other either.
        spans = sorted((s, s + n) for s, n in planned)
        for (_, end1), (start2, _) in zip(spans, spans[1:]):
            assert end1 <= start2

    @given(
        depth=st.integers(min_value=1, max_value=8),
        nbytes=st.integers(min_value=1, max_value=64 * KB),
        mode=st.sampled_from([IOMode.M_RECORD, IOMode.M_ASYNC]),
        nprocs=st.integers(min_value=1, max_value=8),
        size=st.integers(min_value=0, max_value=4 * MB),
        next_offset=st.integers(min_value=0, max_value=8 * MB),
    )
    @settings(max_examples=200, deadline=None)
    def test_uncapped_plans_stay_inside_the_file(
        self, depth, nbytes, mode, nprocs, size, next_offset
    ):
        policy = DepthKAhead(depth=depth)
        handle = _FakeHandle(mode, 0, nprocs, size, next_offset)
        planned = policy.plan(handle, 0, nbytes, None)
        assert len(planned) <= depth
        for start, length in planned:
            assert 0 < length <= nbytes
            assert start + length <= size
