"""Lazy data values for simulated file contents.

Simulated reads must return *contents* so the test suite can assert that
the prefetch path is byte-identical to the direct path -- but benchmark
workloads read hundreds of megabytes, and materialising real ``bytes``
for every transfer would dominate runtime.  A :class:`Data` value is an
immutable, length-bearing description of file content that supports
slicing and concatenation in O(pieces), and only produces real bytes
when :meth:`Data.to_bytes` is called.  Writes stay lazy too: the UFS
stores each written block as the slices and concatenations of the data
it was given, so only the delivery audit, ``Machine.verify``, the
benchmark fingerprint and tests ever turn content into bytes.

Unwritten file content is :class:`SyntheticData`: byte *p* of stream
*key* is a cheap deterministic mix of ``(key, p)``, so any two reads of
the same region agree regardless of which code path produced them.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xBF58476D1CE4E5B9)
_SHIFT_A = np.uint64(31)
_SHIFT_B = np.uint64(29)


def _synthetic_bytes(key: int, offset: int, length: int) -> bytes:
    """Deterministic pseudo-random bytes for stream *key* at *offset*."""
    if length == 0:
        return b""
    x = np.arange(offset, offset + length, dtype=np.uint64)
    x += np.uint64(key & 0xFFFFFFFFFFFFFFFF)
    x *= _MIX_A
    t = np.right_shift(x, _SHIFT_A)
    x ^= t
    x *= _MIX_B
    np.right_shift(x, _SHIFT_B, out=t)
    x ^= t
    return x.astype(np.uint8).tobytes()


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
        if not isinstance(other, Data):
            return NotImplemented
        if len(self) != len(other):
            return False
        return self.to_bytes() == other.to_bytes()

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

    def __eq__(self, other: object) -> bool:
        # Fast path: same stream and range agree without materialising.
        if isinstance(other, SyntheticData):
            if (
                self.key == other.key
                and self.offset == other.offset
                and self.length == other.length
            ):
                return True
        return super().__eq__(other)

    __hash__ = Data.__hash__


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


def zeros(length: int) -> Data:
    """All-zero content (e.g. reads past a write hole)."""
    return SyntheticData(0, 0, 0) if length == 0 else LiteralData(b"\x00" * length)
