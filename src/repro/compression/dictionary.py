"""Dictionary encoding for low-cardinality columns.

Distinct values are stored once; the column becomes a vector of small codes,
bit-packed to the minimal width.
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

from repro import vector
from repro.compression.base import Codec, register
from repro.compression.bitpack import (
    _unpack_uints_ndarray,
    pack_uints,
    unpack_uints,
    unpack_uints_bulk,
)
from repro.storage.serializer import VectorSerializer
from repro.types.types import DataType

_U32 = struct.Struct("<I")


class DictionaryCodec(Codec):
    """Codes into a first-occurrence-ordered dictionary, bit-packed."""

    name = "dict"

    def encode(self, values: Sequence[Any], dtype: DataType) -> bytes:
        codes: list[int] = []
        mapping: dict[Any, int] = {}
        dictionary: list[Any] = []
        for v in values:
            code = mapping.get(v)
            if code is None:
                code = len(dictionary)
                mapping[v] = code
                dictionary.append(v)
            codes.append(code)
        dict_bytes = VectorSerializer(dtype).encode(dictionary)
        code_bytes = pack_uints(codes)
        return (
            _U32.pack(len(values))
            + _U32.pack(len(dict_bytes))
            + dict_bytes
            + code_bytes
        )

    def decode(self, data: bytes, dtype: DataType) -> list:
        (total,) = _U32.unpack_from(data, 0)
        (dict_len,) = _U32.unpack_from(data, 4)
        dictionary = VectorSerializer(dtype).decode(data[8 : 8 + dict_len])
        codes = unpack_uints(data[8 + dict_len :])
        return [dictionary[c] for c in codes[:total]]

    def decode_all(self, data: bytes, dtype: DataType) -> list:
        (total,) = _U32.unpack_from(data, 0)
        (dict_len,) = _U32.unpack_from(data, 4)
        dictionary = VectorSerializer(dtype).decode_bulk(
            data[8 : 8 + dict_len]
        )
        codes = unpack_uints_bulk(data[8 + dict_len :])
        del codes[total:]
        return list(map(dictionary.__getitem__, codes))

    def decode_vector(self, data: bytes, dtype: DataType):
        code = vector.typecode_for(dtype)
        np = vector.numpy_module()
        if code is not None and np is not None and vector.numpy_enabled():
            (total,) = _U32.unpack_from(data, 0)
            (dict_len,) = _U32.unpack_from(data, 4)
            codes = _unpack_uints_ndarray(data[8 + dict_len :])
            if codes is not None:
                dictionary = VectorSerializer(dtype).decode_buffer(
                    data[8 : 8 + dict_len]
                )
                return np.asarray(dictionary)[codes[:total]]
        if code is not None:
            out = vector.from_values(self.decode_all(data, dtype), code)
            if out is not None:
                return out
        return self.decode_all(data, dtype)


register(DictionaryCodec())
