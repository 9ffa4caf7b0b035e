"""Zigzag + varint integer coding (a.k.a. null suppression).

Small magnitudes — such as the deltas produced by the paper's ∆ transform
over GPS microdegrees — encode to one or two bytes instead of eight, which is
what makes the "zcurve + delta" layout (Figure 2, N4) smaller than the plain
grid layout.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from typing import Any, Sequence

from repro import vector
from repro.compression.base import Codec, CodecError, checked, register
from repro.types.types import DataType, IntType

_U32 = struct.Struct("<I")


def zigzag_encode(value: int) -> int:
    """Map signed to unsigned so small magnitudes stay small: 0,-1,1,-2,...

    Arbitrary precision: the difference of two 64-bit values (what
    ``delta`` hands this codec) need not fit 64 bits itself.
    """
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def varint_encode(value: int, out: bytearray) -> None:
    """Append an unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise CodecError("varint encodes non-negative integers")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _zigzag_varints_into(
    append, data: bytes, offset: int, count: int, end: int
) -> int:
    """Append ``count`` zigzag varints starting at ``offset`` (none may
    reach ``end``); returns the offset after the last one. The LEB128 and
    zigzag steps are inlined into a single loop over local variables."""
    for _ in range(count):
        result = 0
        shift = 0
        while True:
            if offset >= end:
                raise CodecError("truncated varint")
            byte = data[offset]
            offset += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 70:
                raise CodecError("varint too long")
        append((result >> 1) ^ -(result & 1))
    return offset


def zigzag_varint_decode_all(
    data: bytes, offset: int, count: int
) -> list[int]:
    """Decode ``count`` zigzag varints starting at ``offset`` in one pass —
    the inverse of ``varint_encode(zigzag_encode(v))`` per value."""
    values: list[int] = []
    _zigzag_varints_into(values.append, data, offset, count, len(data))
    return values


def _decode_blobs(data: bytes, lengths: Sequence[int]) -> tuple[list, list]:
    """``(values, values per blob)`` of count-prefixed varint blobs laid
    back to back — one loop over one ``bytes``, exact at any width."""
    values: list[int] = []
    counts: list[int] = []
    offset = 0
    for length in lengths:
        end = offset + length
        if length < 4 or end > len(data):
            raise CodecError("truncated varint vector")
        (count,) = _U32.unpack_from(data, offset)
        offset = _zigzag_varints_into(
            values.append, data, offset + 4, count, end
        )
        if offset != end:
            raise CodecError(
                f"varint vector of {count} values ends {end - offset} "
                "bytes short of its blob"
            )
        counts.append(count)
    if offset != len(data):
        raise CodecError("bytes after the last varint vector")
    return values, counts


class VarintCodec(Codec):
    """Zigzag-varint coding of signed integer vectors."""

    name = "varint"
    _typed_input = True

    def encode(self, values: Sequence[Any], dtype: DataType) -> bytes:
        return self.encode_segments(values, (len(values),), dtype)[0]

    def _encode_run(self, values, counts, dtype) -> list[bytes]:
        """Every segment in one vector pass when ``values`` is a typed int
        vector (:func:`repro.vector.zigzag_varint_blobs`), else value by
        value."""
        base = getattr(dtype, "base", dtype)
        if not isinstance(base, IntType):
            raise CodecError(
                f"varint codec requires an integer type, got {dtype.name}"
            )
        blobs = vector.zigzag_varint_blobs(values, counts)
        if blobs is not None:
            return blobs
        values = vector.to_list(values)
        starts = list(accumulate(counts, initial=0))
        return [self._encode(values[a:b]) for a, b in zip(starts, starts[1:])]

    @staticmethod
    def _encode(values: Sequence[Any]) -> bytes:
        out = bytearray(_U32.pack(len(values)))
        for v in values:
            if not isinstance(v, int):
                raise CodecError(f"varint codec got non-integer {v!r}")
            varint_encode(zigzag_encode(v), out)
        return bytes(out)

    @checked
    def decode(self, data: bytes, dtype: DataType) -> list:
        if len(data) < 4:
            raise CodecError("truncated varint vector")
        (count,) = _U32.unpack_from(data, 0)
        return zigzag_varint_decode_all(data, 4, count)

    def decode_buffer(self, data, dtype, lengths=None, counts=None):
        """A run of blobs in a single pass: one typed-vector pass over all
        the bytes when :func:`repro.vector.zigzag_varints` takes them (an
        int64 vector comes back), otherwise one byte loop (a list — the
        only shape that holds values wider than 64 bits)."""
        if lengths is None:
            return self.decode(data, dtype)
        values, found = vector.zigzag_varints(data, lengths) or _decode_blobs(
            data, lengths
        )
        if counts is not None and found != list(counts):
            raise CodecError(
                f"varint blobs hold {found} values, expected {list(counts)}"
            )
        return values


register(VarintCodec())
