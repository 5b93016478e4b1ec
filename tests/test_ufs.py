"""Unit tests for the UFS layer: data values, allocator, inodes, filesystem."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import DiskParams, RAID3Array, RAIDParams, SCSIBus, SCSIParams
from repro.sim import Environment, Monitor
from repro.ufs import (
    UFS,
    AllocationError,
    BlockDevice,
    Extent,
    ExtentAllocator,
    LiteralData,
    SyntheticData,
    UFSError,
    concat_data,
)
from repro.ufs.data import _CHUNK, _synthetic_bytes, runs
from tests.conftest import ufs_read, ufs_read_block, ufs_write, ufs_write_block

KB = 1024
MB = 1024 * 1024


@pytest.fixture
def env():
    return Environment()


def make_ufs(env, block_size=64 * KB, monitor=None):
    bus = SCSIBus(env, params=SCSIParams(bandwidth_bps=3.5 * MB, arbitration_s=0.0))
    raid = RAID3Array(
        env,
        bus,
        disk_params=DiskParams(media_rate_bps=1 * MB, controller_overhead_s=0.0),
        raid_params=RAIDParams(data_disks=4, controller_overhead_s=0.0),
    )
    device = BlockDevice(raid, block_size)
    return UFS(device, fs_id=1, monitor=monitor)


def run(env, gen):
    p = env.process(gen)
    env.run()
    return p.value


class TestData:
    def test_literal_roundtrip(self):
        d = LiteralData(b"hello world")
        assert len(d) == 11
        assert d.to_bytes() == b"hello world"
        assert d.slice(6, 5).to_bytes() == b"world"

    def test_synthetic_deterministic(self):
        a = SyntheticData(7, 100, 50)
        b = SyntheticData(7, 100, 50)
        assert a.to_bytes() == b.to_bytes()
        assert a == b

    def test_synthetic_differs_across_keys_and_offsets(self):
        base = SyntheticData(7, 0, 64).to_bytes()
        assert SyntheticData(8, 0, 64).to_bytes() != base
        assert SyntheticData(7, 1, 64).to_bytes() != base

    def test_synthetic_slice_matches_bytes_slice(self):
        d = SyntheticData(3, 1000, 256)
        raw = d.to_bytes()
        s = d.slice(10, 100)
        assert s.to_bytes() == raw[10:110]

    def test_concat_and_slice_across_parts(self):
        d = concat_data([LiteralData(b"abc"), LiteralData(b"defgh")])
        assert len(d) == 8
        assert d.to_bytes() == b"abcdefgh"
        assert d.slice(2, 4).to_bytes() == b"cdef"

    def test_concat_collapses_empty(self):
        d = concat_data([LiteralData(b""), LiteralData(b"x")])
        assert isinstance(d, LiteralData)
        assert d.to_bytes() == b"x"

    def test_slice_bounds_checked(self):
        d = LiteralData(b"abc")
        with pytest.raises(ValueError):
            d.slice(1, 5)
        with pytest.raises(ValueError):
            d.slice(-1, 1)

    def test_equality_cross_type(self):
        s = SyntheticData(5, 0, 16)
        lit = LiteralData(s.to_bytes())
        assert s == lit
        assert lit == s

    @pytest.mark.parametrize(
        "key, offset, length, digest",
        [
            (7, 0, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (7, 0, 65536, "59d72c47c6c0b2d9954d25ceedff62ad017711a3db34f5a10c18f492b86f9ca0"),
            (
                1_000_004,
                12345,
                4097,
                "d1d59666d9cff49aab9d85725220a6d697df88531033c76c7916f5baa5435dee",
            ),
            (
                3,
                (1 << 40) + 1,
                333,
                "9998f0ad1d62038cecc9feaed3058bb74f3f56acd9c2102de7db912e73f063ed",
            ),
            (
                (1 << 64) + 9,
                99,
                1000,
                "a485e61b4d69c5b539eaf648ed04c53589f437b9564caaf5898837e95c086a2e",
            ),
        ],
    )
    def test_synthetic_stream_golden(self, key, offset, length, digest):
        data = SyntheticData(key, offset, length).to_bytes()
        assert len(data) == length
        assert hashlib.sha256(data).hexdigest() == digest


    @pytest.mark.parametrize("key", [-5, 0, 7, 2**64 + 9])
    def test_chunked_generator_matches_one_shot_formula(self, key):
        for offset in (0, 1, 12345, _CHUNK + 3, 2**41 - 1, 2**41):
            for length in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7):
                expected = _one_shot_synthetic(key, offset, length)
                assert _synthetic_bytes(key, offset, length) == expected, (offset, length)


def _one_shot_synthetic(key, offset, length):
    """The synthetic stream mixed in one pass over the whole range: the
    reference the chunked generator must reproduce byte for byte."""
    x = np.arange(offset, offset + length, dtype=np.uint64)
    x += np.uint64(key & 0xFFFFFFFFFFFFFFFF)
    x *= np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(31)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(29)
    return x.astype(np.uint8).tobytes()


@st.composite
def _data(draw):
    """Lazy content built from synthetic and literal pieces by
    ``concat_data`` and ``slice``, drawn from a small pool of streams so
    that equal runs are common."""
    pieces = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            pieces.append(
                SyntheticData(
                    draw(st.sampled_from([-5, 0, 1])),
                    draw(st.integers(0, 64)),
                    draw(st.integers(0, 48)),
                )
            )
        else:
            pieces.append(LiteralData(draw(st.binary(max_size=24))))
    data = concat_data(pieces)
    start = draw(st.integers(0, len(data)))
    return data.slice(start, draw(st.integers(0, len(data) - start)))


def _resplit(draw, data):
    """The same content re-cut at random points and joined again."""
    cuts = sorted(draw(st.lists(st.integers(0, len(data)), max_size=4)))
    bounds = [0, *cuts, len(data)]
    return concat_data([data.slice(a, b - a) for a, b in zip(bounds, bounds[1:])])


def _bytes_of_runs(content_runs):
    return b"".join(
        run if isinstance(run, bytes) else SyntheticData(*run).to_bytes() for run in content_runs
    )


class TestContentRuns:
    """Canonical runs: what ``Data`` equality, and so the delivery
    audit, compares before it reads any bytes."""

    @given(a=_data(), b=_data(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_equal_runs_mean_equal_bytes(self, a, b, data):
        assert _bytes_of_runs(runs(a)) == a.to_bytes()
        partner = _resplit(data.draw, a) if data.draw(st.booleans()) else b
        if runs(partner) == runs(a):
            assert partner.to_bytes() == a.to_bytes()

    @given(a=_data(), b=_data(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_equality_is_byte_equality(self, a, b, data):
        values = (a, _resplit(data.draw, a), b)
        for x in values:
            for y in values:
                assert (x == y) == (x.to_bytes() == y.to_bytes())

    def test_adjacent_synthetic_pieces_merge(self):
        joined = concat_data([SyntheticData(3, 10, 5), SyntheticData(3, 15, 7), LiteralData(b"x")])
        assert runs(joined) == ((3, 10, 12), b"x")
        two_streams = concat_data([SyntheticData(3, 10, 5), SyntheticData(4, 15, 7)])
        assert runs(two_streams) == ((3, 10, 5), (4, 15, 7))
        assert runs(LiteralData(b"")) == runs(SyntheticData(9, 4, 0)) == ()


class TestExtentAllocator:
    def test_simple_allocation_contiguous(self):
        alloc = ExtentAllocator(100)
        got = alloc.allocate(10)
        assert got == [Extent(0, 10)]
        assert alloc.free_blocks == 90

    def test_exhaustion_raises(self):
        alloc = ExtentAllocator(10)
        alloc.allocate(10)
        with pytest.raises(AllocationError):
            alloc.allocate(1)

    def test_free_and_merge(self):
        alloc = ExtentAllocator(100)
        a = alloc.allocate(10)
        b = alloc.allocate(10)
        alloc.free(a)
        alloc.free(b)
        assert alloc.free_blocks == 100
        assert alloc.free_extents == [Extent(0, 100)]
        assert alloc.fragmentation == 0.0

    def test_fragmented_allocation_spans_extents(self):
        alloc = ExtentAllocator(30)
        a = alloc.allocate(10)
        b = alloc.allocate(10)
        c = alloc.allocate(10)
        alloc.free(a)
        alloc.free(c)
        got = alloc.allocate(15)  # must span the two free extents
        assert len(got) == 2
        assert sum(e.length for e in got) == 15
        del b

    def test_double_free_detected(self):
        alloc = ExtentAllocator(100)
        a = alloc.allocate(10)
        alloc.free(a)
        with pytest.raises(ValueError):
            alloc.free(a)

    def test_fragmentation_metric(self):
        alloc = ExtentAllocator(30)
        a = alloc.allocate(10)
        _b = alloc.allocate(10)
        alloc.free(a)
        # Free space: [0,10) and [20,30): two equal extents.
        assert alloc.fragmentation == pytest.approx(0.5)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ExtentAllocator(0)
        alloc = ExtentAllocator(10)
        with pytest.raises(ValueError):
            alloc.allocate(0)
        with pytest.raises(ValueError):
            Extent(-1, 5)
        with pytest.raises(ValueError):
            Extent(0, 0)


class TestInode:
    def test_physical_runs_contiguous(self, env):
        ufs = make_ufs(env)
        inode = ufs.create(1, size_bytes=10 * 64 * KB)
        runs = inode.physical_runs(0, 10)
        assert len(runs) == 1
        assert runs[0][2] == 10

    def test_physical_runs_split_on_fragmentation(self):
        from repro.ufs import Inode

        inode = Inode(file_id=1)
        # Blocks 0-3 map to 10-13, block 4 jumps to 20, 5-6 continue.
        inode.block_map = [10, 11, 12, 13, 20, 21, 22]
        runs = inode.physical_runs(0, 7)
        assert runs == [(0, 10, 4), (4, 20, 3)]
        # A sub-range entirely within the first run stays one run.
        assert inode.physical_runs(1, 3) == [(1, 11, 3)]

    def test_block_map_bounds(self, env):
        ufs = make_ufs(env)
        inode = ufs.create(1, size_bytes=64 * KB)
        with pytest.raises(IndexError):
            inode.physical_block(5)
        with pytest.raises(IndexError):
            inode.physical_runs(0, 5)


class TestUFS:
    def test_create_and_stat(self, env):
        ufs = make_ufs(env)
        inode = ufs.create(1, size_bytes=100 * KB)
        assert ufs.exists(1)
        assert inode.size_bytes == 100 * KB
        assert inode.nblocks == 2  # ceil(100K / 64K)

    def test_create_duplicate_raises(self, env):
        ufs = make_ufs(env)
        ufs.create(1)
        with pytest.raises(UFSError):
            ufs.create(1)

    def test_missing_file_raises(self, env):
        ufs = make_ufs(env)
        with pytest.raises(UFSError):
            ufs.inode(42)

    def test_read_returns_consistent_content(self, env):
        ufs = make_ufs(env)
        ufs.create(1, size_bytes=1 * MB)
        d1 = run(env, ufs_read(ufs, 1, 0, 128 * KB))
        d2 = ufs.content(1, 0, 128 * KB)
        assert d1 == d2

    def test_read_out_of_range(self, env):
        ufs = make_ufs(env)
        ufs.create(1, size_bytes=64 * KB)

        def proc():
            yield from ufs_read(ufs, 1, 0, 128 * KB)

        env.process(proc())
        with pytest.raises(UFSError):
            env.run()

    def test_write_read_roundtrip(self, env):
        ufs = make_ufs(env)
        ufs.create(1, size_bytes=0)
        payload = bytes(range(256)) * 1024  # 256 KB
        run(env, ufs_write(ufs, 1, 0, LiteralData(payload)))
        got = run(env, ufs_read(ufs, 1, 0, len(payload)))
        assert got.to_bytes() == payload

    def test_unaligned_write_preserves_neighbours(self, env):
        ufs = make_ufs(env)
        ufs.create(1, size_bytes=192 * KB)
        before = ufs.content(1, 0, 192 * KB).to_bytes()
        # Overwrite 10 bytes in the middle of block 1.
        run(env, ufs_write(ufs, 1, 64 * KB + 100, LiteralData(b"XXXXXXXXXX")))
        after = ufs.content(1, 0, 192 * KB).to_bytes()
        expected = before[: 64 * KB + 100] + b"XXXXXXXXXX" + before[64 * KB + 110 :]
        assert after == expected

    def test_write_extends_file(self, env):
        ufs = make_ufs(env)
        ufs.create(1, size_bytes=0)
        run(env, ufs_write(ufs, 1, 100 * KB, LiteralData(b"tail")))
        assert ufs.inode(1).size_bytes == 100 * KB + 4

    def test_coalesced_read_is_faster_than_uncoalesced(self, env):
        mon = Monitor(env)
        ufs = make_ufs(env, monitor=mon)
        ufs.create(1, size_bytes=2 * MB)

        def timed(coalesce):
            def gen():
                t0 = env.now
                yield from ufs_read(ufs, 1, 0, 1 * MB, coalesce=coalesce)
                return env.now - t0

            return gen

        t_coalesced = run(env, timed(True)())
        t_split = run(env, timed(False)())
        assert t_coalesced < t_split

    def test_coalesced_read_issues_one_disk_request(self, env):
        mon = Monitor(env)
        bus = SCSIBus(env)
        raid = RAID3Array(env, bus, name="r0", monitor=mon)
        ufs = UFS(BlockDevice(raid, 64 * KB), fs_id=0)
        ufs.create(1, size_bytes=1 * MB)
        run(env, ufs_read(ufs, 1, 0, 1 * MB))
        assert mon.counter_value("r0.reads") == 1

    def test_partial_block_read_moves_full_block(self, env):
        mon = Monitor(env)
        bus = SCSIBus(env)
        raid = RAID3Array(env, bus, name="r0", monitor=mon)
        ufs = UFS(BlockDevice(raid, 64 * KB), fs_id=0)
        ufs.create(1, size_bytes=1 * MB)
        got = run(env, ufs_read(ufs, 1, 10, 100))  # tiny unaligned read
        assert len(got) == 100
        assert mon.counter_value("r0.bytes_read") == 64 * KB

    def test_truncate_shrink_frees_and_preserves_prefix(self, env):
        ufs = make_ufs(env)
        ufs.create(1, size_bytes=512 * KB)
        payload = b"q" * (64 * KB)
        run(env, ufs_write(ufs, 1, 0, LiteralData(payload)))
        free_before = ufs.allocator.free_blocks
        ufs.truncate(1, 128 * KB)
        assert ufs.inode(1).size_bytes == 128 * KB
        assert ufs.allocator.free_blocks == free_before + 6
        assert ufs.content(1, 0, 64 * KB).to_bytes() == payload

    def test_truncate_to_zero(self, env):
        ufs = make_ufs(env)
        ufs.create(1, size_bytes=256 * KB)
        ufs.truncate(1, 0)
        assert ufs.inode(1).size_bytes == 0
        assert ufs.inode(1).nblocks == 0

    def test_truncate_drops_written_tail_content(self, env):
        ufs = make_ufs(env)
        ufs.create(1, size_bytes=256 * KB)
        run(env, ufs_write(ufs, 1, 128 * KB, LiteralData(b"T" * (64 * KB))))
        ufs.truncate(1, 64 * KB)
        ufs.extend(1, 256 * KB)
        # Regrown region reads as fresh (synthetic) content, not "T"s.
        regrown = ufs.content(1, 128 * KB, 64 * KB).to_bytes()
        assert regrown != b"T" * (64 * KB)

    def test_extend_after_partial_write_reads_zeros(self, env):
        ufs = make_ufs(env)
        ufs.create(1, 0)
        run(env, ufs_write(ufs, 1, 0, LiteralData(b"a" * 100)))
        ufs.extend(1, 300)
        want = b"a" * 100 + bytes(200)
        assert ufs.content(1, 0, 300).to_bytes() == want
        assert run(env, ufs_read(ufs, 1, 0, 300)).to_bytes() == want

    def test_write_after_extend_matches_write_past_eof(self, env):
        ufs = make_ufs(env)
        ufs.create(1, 0)
        ufs.create(2, 0)
        for file_id in (1, 2):
            run(env, ufs_write(ufs, file_id, 0, LiteralData(b"a" * 100)))
        ufs.extend(1, 300)
        run(env, ufs_write(ufs, 1, 200, LiteralData(b"b" * 10)))
        run(env, ufs_write(ufs, 2, 200, LiteralData(b"b" * 10)))
        want = b"a" * 100 + bytes(100) + b"b" * 10 + bytes(90)
        assert ufs.content(1, 0, 300).to_bytes() == want
        assert ufs.content(2, 0, 210).to_bytes() == want[:210]

    def test_truncate_then_regrow_reads_zeros(self, env):
        ufs = make_ufs(env)
        ufs.create(1, 0)
        run(env, ufs_write(ufs, 1, 0, LiteralData(b"a" * 200)))
        ufs.truncate(1, 100)
        ufs.extend(1, 300)
        assert ufs.content(1, 0, 300).to_bytes() == b"a" * 100 + bytes(200)

    def test_truncate_grow_equals_extend(self, env):
        ufs = make_ufs(env)
        ufs.create(1, size_bytes=64 * KB)
        ufs.truncate(1, 256 * KB)
        assert ufs.inode(1).size_bytes == 256 * KB
        assert ufs.inode(1).nblocks == 4

    def test_truncate_negative_rejected(self, env):
        ufs = make_ufs(env)
        ufs.create(1, size_bytes=64 * KB)
        with pytest.raises(ValueError):
            ufs.truncate(1, -1)

    def test_unlink_frees_blocks(self, env):
        ufs = make_ufs(env)
        total = ufs.allocator.free_blocks
        ufs.create(1, size_bytes=1 * MB)
        assert ufs.allocator.free_blocks < total
        ufs.unlink(1)
        assert ufs.allocator.free_blocks == total
        assert not ufs.exists(1)

    def test_read_block_returns_block_content(self, env):
        ufs = make_ufs(env)
        ufs.create(1, size_bytes=1 * MB)
        d = run(env, ufs_read_block(ufs, 1, 3))
        assert d == ufs.content(1, 3 * 64 * KB, 64 * KB)

    def test_zero_byte_read(self, env):
        ufs = make_ufs(env)
        ufs.create(1, size_bytes=64 * KB)
        d = run(env, ufs_read(ufs, 1, 0, 0))
        assert len(d) == 0

    def test_sequential_reads_faster_than_random(self, env):
        ufs = make_ufs(env)
        ufs.create(1, size_bytes=8 * MB)

        def sequential():
            t0 = env.now
            for i in range(8):
                yield from ufs_read(ufs, 1, i * 64 * KB, 64 * KB)
            return env.now - t0

        def random_order():
            t0 = env.now
            for i in [7, 2, 5, 0, 3, 6, 1, 4]:
                yield from ufs_read(ufs, 1, (64 + i) * 64 * KB, 64 * KB)
            return env.now - t0

        t_seq = run(env, sequential())
        t_rand = run(env, random_order())
        assert t_seq < t_rand


BS = 16


def _payload(draw, length):
    if draw(st.booleans()):
        return LiteralData(draw(st.binary(min_size=length, max_size=length)))
    return SyntheticData(draw(st.integers(0, 9)), draw(st.integers(0, 1000)), length)


@st.composite
def _ops(draw):
    """A random sequence of content-plane operations on file 1."""
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["write", "write_block", "extend", "truncate", "unlink"]))
        if kind == "write":
            payload = _payload(draw, draw(st.integers(1, 3 * BS)))
            ops.append((kind, draw(st.integers(0, 6 * BS)), payload))
        elif kind == "write_block":
            ops.append((kind, draw(st.integers(0, 6)), _payload(draw, draw(st.integers(1, BS)))))
        elif kind == "unlink":
            ops.append((kind, draw(st.integers(0, 4 * BS)), None))
        else:
            ops.append((kind, draw(st.integers(0, 8 * BS)), None))
    return ops


class ContentModel:
    """Plain-bytes reference model of one UFS file's content.

    Unwritten bytes are the synthetic stream; bytes a file grows into
    inside a block that holds written content read as zeros.
    """

    def __init__(self, key, size):
        self.key = key
        self.buf = bytearray(SyntheticData(key, 0, size).to_bytes())
        self.written = set()

    def grow(self, new_size):
        old = len(self.buf)
        if new_size <= old:
            return
        self.buf += SyntheticData(self.key, old, new_size - old).to_bytes()
        if old // BS in self.written:
            stop = min(new_size, (old // BS + 1) * BS)
            self.buf[old:stop] = bytes(stop - old)

    def write(self, offset, data):
        raw = data.to_bytes()
        self.grow(offset + len(raw))
        self.buf[offset : offset + len(raw)] = raw
        self.written.update(range(offset // BS, (offset + len(raw) - 1) // BS + 1))

    def truncate(self, new_size):
        if new_size >= len(self.buf):
            self.grow(new_size)
            return
        del self.buf[new_size:]
        keep = -(-new_size // BS)
        self.written = {b for b in self.written if b < keep}


def _apply(env, ufs, model, op):
    kind, arg, data = op
    if kind == "write":
        run(env, ufs_write(ufs, 1, arg, data))
        model.write(arg, data)
    elif kind == "write_block":
        run(env, ufs_write_block(ufs, 1, arg, data))
        model.write(arg * BS, data)
    elif kind == "extend":
        ufs.extend(1, arg)
        model.grow(arg)
    elif kind == "truncate":
        ufs.truncate(1, arg)
        model.truncate(arg)
    else:
        ufs.unlink(1)
        ufs.create(1, arg)
        return ContentModel(model.key, arg)
    return model


class TestContentPlane:
    """The lazy written-block store against a plain ``bytearray``."""

    @given(size=st.integers(0, 4 * BS), ops=_ops())
    @settings(max_examples=150, deadline=None)
    def test_content_matches_bytearray_model(self, size, ops):
        env = Environment()
        ufs = make_ufs(env, block_size=BS)
        ufs.create(1, size)
        model = ContentModel(ufs._synthetic_key(1), size)
        for op in ops:
            model = _apply(env, ufs, model, op)
            assert ufs.inode(1).size_bytes == len(model.buf)
            assert ufs.content(1, 0, len(model.buf)).to_bytes() == bytes(model.buf)

    def test_write_path_materialises_no_synthetic_bytes(self, env, synthetic_calls):
        ufs = make_ufs(env)
        ufs.create(1, 200 * KB)
        run(env, ufs_write(ufs, 1, 0, SyntheticData(5, 0, 128 * KB)))
        run(env, ufs_write(ufs, 1, 100, SyntheticData(6, 7, 1000)))
        run(env, ufs_write(ufs, 1, 190 * KB, LiteralData(b"z" * (20 * KB))))
        run(env, ufs_write_block(ufs, 1, 1, SyntheticData(7, 3, 5000)))
        ufs.truncate(1, 150 * KB)
        ufs.extend(1, 300 * KB)
        run(env, ufs_write(ufs, 1, 250 * KB, SyntheticData(8, 0, 70 * KB)))
        ufs.content(1, 0, 320 * KB)
        assert synthetic_calls == []
        ufs.content(1, 0, 320 * KB).to_bytes()
        assert synthetic_calls
