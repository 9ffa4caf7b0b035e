"""Dictionary encoding for low-cardinality columns.

Distinct values are stored once; the column becomes a vector of small codes,
bit-packed to the minimal width.
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

from repro import vector
from repro.compression.base import Codec, CodecError, checked, register, typed
from repro.compression.bitpack import _unpack_uints_ndarray, pack_uints, unpack_uints
from repro.storage.serializer import VectorSerializer
from repro.types.types import DataType

_U32 = struct.Struct("<I")
_HEADER = struct.Struct("<II")  # total values, dictionary bytes


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

    @checked
    def decode(self, data: bytes, dtype: DataType):
        total, dict_len = _HEADER.unpack_from(data, 0)
        dictionary = VectorSerializer(dtype).decode_buffer(data[8 : 8 + dict_len])
        packed = data[8 + dict_len :]
        codes = None
        if vector.typecode_for(dtype) is not None:
            codes = _unpack_uints_ndarray(packed)
        if codes is not None:
            top = int(codes.max()) if len(codes) else -1
        else:
            codes = unpack_uints(packed)
            top = max(codes, default=-1)
        # Checked before anything is gathered: a flipped code must not
        # index past the dictionary (or wrap around it under numpy).
        if len(codes) != total or top >= len(dictionary):
            raise CodecError(
                f"dict blob holds {len(codes)} codes up to {top} for "
                f"{total} values over {len(dictionary)} entries"
            )
        if isinstance(codes, list):
            lookup = vector.to_list(dictionary).__getitem__
            return typed(list(map(lookup, codes)), dtype)
        return vector.numpy_module().asarray(dictionary)[codes]


register(DictionaryCodec())
