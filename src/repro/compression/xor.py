"""Byte-aligned XOR float compression (Gorilla-style, simplified).

Successive floats in smooth series (sensor readings, GPS coordinates) share
sign, exponent, and high mantissa bits; XOR-ing each value with its
predecessor yields mostly-zero bitstrings. This codec stores, per value, one
length byte plus only the significant low-order bytes of the XOR — lossless,
and typically 3-5 bytes per value instead of 8 on trajectory data.
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

from repro.compression.base import Codec, CodecError, checked, register, typed
from repro.types.types import DataType, FloatType

_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")


class XorFloatCodec(Codec):
    """XOR with the previous value, drop leading zero bytes."""

    name = "xor"

    def encode(self, values: Sequence[Any], dtype: DataType) -> bytes:
        base = getattr(dtype, "base", dtype)
        if not isinstance(base, FloatType):
            raise CodecError(
                f"xor codec requires a float type, got {dtype.name}"
            )
        out = bytearray(_U32.pack(len(values)))
        prev_bits = 0
        for v in values:
            (bits,) = _U64.unpack(_F64.pack(float(v)))
            xored = bits ^ prev_bits
            payload = xored.to_bytes(8, "little").rstrip(b"\x00")
            out.append(len(payload))
            out += payload
            prev_bits = bits
        return bytes(out)

    @checked
    def decode(self, data: bytes, dtype: DataType):
        """One tight loop with locals, ``struct`` calls hoisted; the values
        come back typed, so downstream reductions see a typed vector."""
        if len(data) < 4:
            raise CodecError("truncated xor vector")
        (count,) = _U32.unpack_from(data, 0)
        offset = 4
        size = len(data)
        from_bytes = int.from_bytes
        unpack_f64 = _F64.unpack
        pack_u64 = _U64.pack
        values: list[float] = []
        append = values.append
        prev_bits = 0
        for _ in range(count):
            if offset >= size:
                raise CodecError("truncated xor payload")
            length = data[offset]
            offset += 1
            if length > 8 or offset + length > size:
                raise CodecError("corrupt xor payload")
            prev_bits ^= from_bytes(data[offset : offset + length], "little")
            offset += length
            append(unpack_f64(pack_u64(prev_bits))[0])
        return typed(values, dtype)


register(XorFloatCodec())
