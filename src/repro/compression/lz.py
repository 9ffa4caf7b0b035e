"""Lempel-Ziv codec (zlib-backed).

The paper (§5) cites Abadi et al.: "even heavyweight schemes like Lempel-Ziv
offer greater time savings as a result of reduced I/O than they cost in terms
of increased decompression time" — this codec lets the benchmarks test that
trade-off.
"""

from __future__ import annotations

import zlib
from typing import Any, Sequence

from repro.compression.base import Codec, CodecError, checked, register
from repro.storage.serializer import VectorSerializer
from repro.types.types import DataType


class LzCodec(Codec):
    """zlib over the plain vector serialization."""

    name = "lz"

    def __init__(self, level: int = 6):
        self.level = level

    def encode(self, values: Sequence[Any], dtype: DataType) -> bytes:
        raw = VectorSerializer(dtype).encode(values)
        return zlib.compress(raw, self.level)

    @checked
    def decode(self, data: bytes, dtype: DataType):
        try:
            raw = zlib.decompress(data)
        except zlib.error as exc:
            raise CodecError(f"corrupt lz blob: {exc}") from exc
        return VectorSerializer(dtype).decode(raw)


register(LzCodec())
