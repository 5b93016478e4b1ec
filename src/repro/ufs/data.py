"""Lazy data values for simulated file contents.

Simulated reads must return *contents* so the test suite can assert that
the prefetch path is byte-identical to the direct path -- but benchmark
workloads read hundreds of megabytes, and materialising real ``bytes``
for every transfer would dominate runtime.  A :class:`Data` value is an
immutable, length-bearing description of file content that supports
slicing and concatenation in O(pieces), and only produces real bytes
when :meth:`Data.to_bytes` is called.  Writes stay lazy too: the UFS
stores each written block as the slices and concatenations of the data
it was given, so only the benchmark fingerprint and tests ever turn
content into bytes.  :func:`runs` names content by its pieces without
materialising it, and equality compares runs first: the delivery audit
(``Machine.verify`` invariant 7) reads real bytes only when the runs of
a delivery and its ground truth differ.

Unwritten file content is :class:`SyntheticData`: byte *p* of stream
*key* is a cheap deterministic mix of ``(key, p)``, so any two reads of
the same region agree regardless of which code path produced them.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = np.uint64(0xBF58476D1CE4E5B9)
_SHIFT_A = np.uint64(31)
_SHIFT_B = np.uint64(29)
_MASK = (1 << 64) - 1
#: Elements mixed per pass.  Each of the two uint64 scratch arrays is
#: then 128,000 bytes, under glibc's 128 KiB mmap threshold.  Above it
#: the cost per 64 KB block depended on what else the process had
#: allocated (48 against 84-105 us for identical work); at this size it
#: is 52-54 us either way, and the arrays stay cache-sized.
_CHUNK = 16000
#: ``i * _MIX_A`` for every position in a chunk (read-only).
_STEP = np.arange(_CHUNK, dtype=np.uint64) * np.uint64(_MIX_A)
_STEP.setflags(write=False)


def _synthetic_bytes(key: int, offset: int, length: int) -> bytes:
    """Deterministic pseudo-random bytes for stream *key* at *offset*.

    Byte *i* is the low byte of a 64-bit mix of ``p = key + offset + i``
    (mod 2**64).  ``p * _MIX_A`` is formed as one scalar per chunk plus
    the precomputed progression ``_STEP``, since multiplication
    distributes over the addition mod 2**64.
    """
    if length == 0:
        return b""
    out = np.empty(length, dtype=np.uint8)
    x = np.empty(min(length, _CHUNK), dtype=np.uint64)
    t = np.empty_like(x)
    for start in range(0, length, _CHUNK):
        n = min(length - start, _CHUNK)
        xs, ts = x[:n], t[:n]
        base = ((key + offset + start) * _MIX_A) & _MASK
        np.add(_STEP[:n], np.uint64(base), out=xs)
        np.right_shift(xs, _SHIFT_A, out=ts)
        xs ^= ts
        xs *= _MIX_B
        np.right_shift(xs, _SHIFT_B, out=ts)
        xs ^= ts
        out[start : start + n] = xs
    return out.tobytes()


class Data:
    """Immutable description of a run of file content."""

    __slots__ = ()

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def slice(self, start: int, length: int) -> "Data":  # pragma: no cover
        raise NotImplementedError

    def to_bytes(self) -> bytes:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check_slice(self, start: int, length: int) -> None:
        if start < 0 or length < 0 or start + length > len(self):
            raise ValueError(
                f"slice [{start}, {start + length}) out of range for " f"data of length {len(self)}"
            )

    def __eq__(self, other: object) -> bool:
        # Equal runs mean equal bytes; only unequal runs need the bytes.
        if not isinstance(other, Data):
            return NotImplemented
        if len(self) != len(other):
            return False
        return runs(self) == runs(other) or self.to_bytes() == other.to_bytes()

    def __hash__(self) -> int:
        return hash((len(self), self.to_bytes()))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} len={len(self)}>"


class LiteralData(Data):
    """Content backed by real bytes (test payloads, zero fill)."""

    __slots__ = ("_payload",)

    def __init__(self, payload: Union[bytes, bytearray]) -> None:
        self._payload = bytes(payload)

    def __len__(self) -> int:
        return len(self._payload)

    def slice(self, start: int, length: int) -> "LiteralData":
        self._check_slice(start, length)
        return LiteralData(self._payload[start : start + length])

    def to_bytes(self) -> bytes:
        return self._payload


class SyntheticData(Data):
    """Unwritten file content: deterministic function of (key, offset)."""

    __slots__ = ("key", "offset", "length")

    def __init__(self, key: int, offset: int, length: int) -> None:
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        self.key = key
        self.offset = offset
        self.length = length

    def __len__(self) -> int:
        return self.length

    def slice(self, start: int, length: int) -> "SyntheticData":
        self._check_slice(start, length)
        return SyntheticData(self.key, self.offset + start, length)

    def to_bytes(self) -> bytes:
        return _synthetic_bytes(self.key, self.offset, self.length)


class ConcatData(Data):
    """Concatenation of pieces (multi-extent or multi-node reads)."""

    __slots__ = ("parts", "_length")

    def __init__(self, parts: Sequence[Data]) -> None:
        flat: List[Data] = []
        for part in parts:
            if isinstance(part, ConcatData):
                flat.extend(part.parts)
            elif len(part) > 0:
                flat.append(part)
        self.parts = tuple(flat)
        self._length = sum(len(p) for p in self.parts)

    def __len__(self) -> int:
        return self._length

    def slice(self, start: int, length: int) -> Data:
        self._check_slice(start, length)
        out: List[Data] = []
        remaining = length
        pos = start
        for part in self.parts:
            if remaining == 0:
                break
            if pos >= len(part):
                pos -= len(part)
                continue
            take = min(len(part) - pos, remaining)
            out.append(part.slice(pos, take))
            remaining -= take
            pos = 0
        return concat_data(out)

    def to_bytes(self) -> bytes:
        return b"".join(p.to_bytes() for p in self.parts)


def concat_data(parts: Sequence[Data]) -> Data:
    """Concatenate data values, collapsing trivial cases."""
    flat = [p for p in parts if len(p) > 0]
    if not flat:
        return LiteralData(b"")
    if len(flat) == 1:
        return flat[0]
    return ConcatData(flat)


#: One canonical run of content: a synthetic ``(key, offset, length)``,
#: or the bytes of a literal piece.
Run = Union[Tuple[int, int, int], bytes]


def runs(data: Data) -> Tuple[Run, ...]:
    """The canonical runs of *data*, without materialising synthetic bytes.

    Adjacent synthetic pieces of one stream merge into one run, and
    empty pieces vanish.  Equal runs mean equal bytes, because synthetic
    byte *p* depends only on ``(key, p)``; unequal runs say nothing.
    """
    out: List[Run] = []
    for part in data.parts if isinstance(data, ConcatData) else (data,):
        if isinstance(part, SyntheticData):
            if not part.length:
                continue
            if out and isinstance(out[-1], tuple):
                key, offset, length = out[-1]
                if key == part.key and offset + length == part.offset:
                    out[-1] = (key, offset, length + part.length)
                    continue
            out.append((part.key, part.offset, part.length))
        else:
            payload = part.to_bytes()
            if payload:
                out.append(payload)
    return tuple(out)


def zeros(length: int) -> Data:
    """All-zero content (e.g. reads past a write hole)."""
    return SyntheticData(0, 0, 0) if length == 0 else LiteralData(b"\x00" * length)
