"""Delta codec: the byte-level counterpart of the paper's ∆ transform.

Stores the first value raw, then successive differences. Integer vectors get
zigzag-varint differences (the common case for timestamps and scaled
coordinates); float vectors store differences as raw doubles (lossless but
size-neutral — combine with ``xor`` or quantize upstream for space savings).
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

from repro import vector
from repro.compression.base import Codec, CodecError, checked, register, typed
from repro.compression.varint import (
    varint_encode,
    zigzag_encode,
    zigzag_varint_decode_all,
)
from repro.types.types import DataType, FloatType, IntType

_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")


class DeltaCodec(Codec):
    """First value absolute, then differences (varint for ints)."""

    name = "delta"

    def encode(self, values: Sequence[Any], dtype: DataType) -> bytes:
        base = getattr(dtype, "base", dtype)
        if isinstance(base, IntType):
            return self._encode_ints(values)
        if isinstance(base, FloatType):
            return self._encode_floats(values)
        raise CodecError(f"delta codec requires a numeric type, got {dtype.name}")

    @checked
    def decode(self, data: bytes, dtype: DataType):
        base = getattr(dtype, "base", dtype)
        if isinstance(base, IntType):
            if vector.typecode_for(dtype) == "q" and vector.numpy_enabled():
                np = vector.numpy_module()
                count, offset = self._header(data, expected_tag=0)
                diffs = zigzag_varint_decode_all(data, offset, count)
                try:
                    # The running sum at step i is exactly values[i], so a
                    # cumsum never exceeds the original values' range; only
                    # ints wider than 64 bits force the python loop.
                    return np.cumsum(np.array(diffs, dtype="<i8"))
                except OverflowError:
                    return self._int_values(data)
            return typed(self._int_values(data), dtype)
        if isinstance(base, FloatType):
            # Raw-vs-diff accumulation must stay sequential for exactness;
            # wrap the decoded list so downstream stays typed.
            return typed(self._float_values(data), dtype)
        raise CodecError(f"delta codec requires a numeric type, got {dtype.name}")

    # -- integers ---------------------------------------------------------

    def _encode_ints(self, values: Sequence[int]) -> bytes:
        out = bytearray(_U32.pack(len(values)))
        out.append(0)  # tag: integer payload
        prev = 0
        for i, v in enumerate(values):
            if not isinstance(v, int):
                raise CodecError(f"delta codec got non-integer {v!r}")
            diff = v if i == 0 else v - prev
            varint_encode(zigzag_encode(diff), out)
            prev = v
        return bytes(out)

    def _int_values(self, data: bytes) -> list[int]:
        count, offset = self._header(data, expected_tag=0)
        diffs = zigzag_varint_decode_all(data, offset, count)
        acc = 0
        for i, diff in enumerate(diffs):
            acc += diff
            diffs[i] = acc
        return diffs

    # -- floats -----------------------------------------------------------

    def _encode_floats(self, values: Sequence[float]) -> bytes:
        # Float subtraction is not always exactly invertible (prev + diff may
        # round); a per-value bitmap marks values stored raw instead, keeping
        # the codec lossless for every input.
        out = bytearray(_U32.pack(len(values)))
        out.append(1)  # tag: float payload
        bitmap = bytearray((len(values) + 7) // 8)
        payload = bytearray()
        prev = 0.0
        for i, v in enumerate(values):
            v = float(v)
            diff = v - prev
            if i == 0 or prev + diff != v:
                bitmap[i // 8] |= 1 << (i % 8)  # raw value
                payload += _F64.pack(v)
            else:
                payload += _F64.pack(diff)
            prev = v
        return bytes(out + bitmap + payload)

    def _float_values(self, data: bytes) -> list[float]:
        count, offset = self._header(data, expected_tag=1)
        bitmap = data[offset : offset + (count + 7) // 8]
        offset += (count + 7) // 8
        stored = struct.unpack_from(f"<{count}d", data, offset)
        values: list[float] = []
        append = values.append
        acc = 0.0
        for i, v in enumerate(stored):
            if bitmap[i >> 3] & (1 << (i & 7)):
                acc = v
            else:
                acc = acc + v
            append(acc)
        return values

    @staticmethod
    def _header(data: bytes, expected_tag: int) -> tuple[int, int]:
        if len(data) < 5:
            raise CodecError("truncated delta vector")
        (count,) = _U32.unpack_from(data, 0)
        tag = data[4]
        if tag != expected_tag:
            raise CodecError(
                f"delta payload tag {tag} does not match value type"
            )
        return count, 5


register(DeltaCodec())
