"""Bit-packing and frame-of-reference coding.

``pack_uints`` stores non-negative integers at the minimal fixed bit width;
:class:`ForCodec` (frame of reference) subtracts the minimum first so that
clustered values — e.g. timestamps within one grid cell — pack tightly.
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

from repro import vector
from repro.compression.base import Codec, CodecError, checked, register, typed
from repro.types.types import DataType, IntType

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")

_NP_WIDTH_DTYPES = {8: "u1", 16: "<u2", 32: "<u4", 64: "<u8"}


def _unpack_uints_ndarray(data: bytes):
    """Byte-aligned widths decoded straight into an int64 ndarray, or None
    when numpy is unavailable or the width needs the bit-twiddling loop."""
    np = vector.numpy_module()
    if np is None or not vector.numpy_enabled() or len(data) < 5:
        return None
    (count,) = _U32.unpack_from(data, 0)
    width = data[4]
    np_dtype = _NP_WIDTH_DTYPES.get(width)
    if np_dtype is None:
        return None
    if len(data) - 5 < count * (width // 8):
        raise CodecError("truncated bit-packed payload")
    codes = np.frombuffer(data, dtype=np_dtype, count=count, offset=5)
    return codes.astype("<i8")


def pack_uints(values: Sequence[int]) -> bytes:
    """Pack non-negative ints at the minimal per-vector fixed bit width."""
    for v in values:
        if v < 0:
            raise CodecError(f"bit packing requires non-negative ints, got {v}")
    width = max((v.bit_length() for v in values), default=0)
    width = max(width, 1)
    out = bytearray(_U32.pack(len(values)))
    out.append(width)
    acc = 0
    bits = 0
    for v in values:
        acc |= v << bits
        bits += width
        while bits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            bits -= 8
    if bits:
        out.append(acc & 0xFF)
    return bytes(out)


def unpack_uints(data: bytes) -> list[int]:
    """Invert :func:`pack_uints`.

    Consumes the payload 64 bits at a time (one ``struct`` unpack for the
    whole vector) and emits byte-aligned widths with one slice or unpack.
    """
    if len(data) < 5:
        raise CodecError("truncated bit-packed vector")
    (count,) = _U32.unpack_from(data, 0)
    width = data[4]
    if width == 0 or width > 64:
        raise CodecError(f"invalid bit width {width}")
    payload = data[5:]
    if len(payload) * 8 < count * width:
        raise CodecError("truncated bit-packed payload")
    if width == 8:
        return list(payload[:count])
    if width in (16, 32, 64):
        fmt = {16: "H", 32: "I", 64: "Q"}[width]
        return list(struct.unpack_from(f"<{count}{fmt}", payload, 0))
    n_words, tail = divmod(len(payload), 8)
    words = struct.unpack_from(f"<{n_words}Q", payload, 0)
    values: list[int] = []
    append = values.append
    acc = 0
    bits = 0
    mask = (1 << width) - 1
    remaining = count
    for word in words:
        acc |= word << bits
        bits += 64
        while bits >= width and remaining:
            append(acc & mask)
            acc >>= width
            bits -= width
            remaining -= 1
        if not remaining:
            return values
    if tail:
        acc |= int.from_bytes(payload[n_words * 8 :], "little") << bits
        bits += tail * 8
        while bits >= width and remaining:
            append(acc & mask)
            acc >>= width
            bits -= width
            remaining -= 1
    if remaining:
        raise CodecError("truncated bit-packed payload")
    return values


class BitpackCodec(Codec):
    """Minimal-width bit packing of non-negative integer vectors."""

    name = "bitpack"

    def encode(self, values: Sequence[Any], dtype: DataType) -> bytes:
        base = getattr(dtype, "base", dtype)
        if not isinstance(base, IntType):
            raise CodecError(
                f"bitpack codec requires an integer type, got {dtype.name}"
            )
        return pack_uints(list(values))

    @checked
    def decode(self, data: bytes, dtype: DataType):
        if vector.typecode_for(dtype) == "q":
            out = _unpack_uints_ndarray(data)
            if out is not None:
                return out
        return typed(unpack_uints(data), dtype)


class ForCodec(Codec):
    """Frame of reference: subtract the vector minimum, then bit-pack."""

    name = "for"

    def encode(self, values: Sequence[Any], dtype: DataType) -> bytes:
        base = getattr(dtype, "base", dtype)
        if not isinstance(base, IntType):
            raise CodecError(
                f"for codec requires an integer type, got {dtype.name}"
            )
        reference = min(values) if values else 0
        packed = pack_uints([v - reference for v in values])
        return _I64.pack(reference) + packed

    @checked
    def decode(self, data: bytes, dtype: DataType):
        if len(data) < 8:
            raise CodecError("truncated frame-of-reference vector")
        (reference,) = _I64.unpack_from(data, 0)
        if vector.typecode_for(dtype) == "q":
            deltas = _unpack_uints_ndarray(data[8:])
            if deltas is not None:
                return deltas + reference if reference else deltas
        values = unpack_uints(data[8:])
        if reference:
            values = [v + reference for v in values]
        return typed(values, dtype)


register(BitpackCodec())
register(ForCodec())
