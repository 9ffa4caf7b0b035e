"""Run-length encoding.

Best for sorted or low-cardinality columns — e.g. the area-code column after
the paper's ``fold`` example, or the year column after ``grid[y, z]``.
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

from repro import vector
from repro.compression.base import Codec, register
from repro.storage.serializer import VectorSerializer
from repro.types.types import DataType

_U32 = struct.Struct("<I")


class RleCodec(Codec):
    """(run length, value) pairs; values serialized via VectorSerializer."""

    name = "rle"

    def encode(self, values: Sequence[Any], dtype: DataType) -> bytes:
        runs: list[int] = []
        distinct: list[Any] = []
        for v in values:
            if distinct and distinct[-1] == v and type(distinct[-1]) is type(v):
                runs[-1] += 1
            else:
                distinct.append(v)
                runs.append(1)
        header = _U32.pack(len(values)) + _U32.pack(len(runs))
        run_bytes = b"".join(_U32.pack(r) for r in runs)
        value_bytes = VectorSerializer(dtype).encode(distinct)
        return header + run_bytes + value_bytes

    def decode(self, data: bytes, dtype: DataType) -> list:
        (total,) = _U32.unpack_from(data, 0)
        (n_runs,) = _U32.unpack_from(data, 4)
        offset = 8
        runs = [
            _U32.unpack_from(data, offset + 4 * i)[0] for i in range(n_runs)
        ]
        offset += 4 * n_runs
        distinct = VectorSerializer(dtype).decode(data[offset:])
        values: list[Any] = []
        for run, value in zip(runs, distinct):
            values.extend([value] * run)
        return values

    def decode_all(self, data: bytes, dtype: DataType) -> list:
        (n_runs,) = _U32.unpack_from(data, 4)
        runs = struct.unpack_from(f"<{n_runs}I", data, 8)
        distinct = VectorSerializer(dtype).decode_bulk(data[8 + 4 * n_runs :])
        values: list[Any] = []
        extend = values.extend
        for run, value in zip(runs, distinct):
            extend((value,) * run)
        return values

    def decode_vector(self, data: bytes, dtype: DataType):
        np = vector.numpy_module()
        code = vector.typecode_for(dtype)
        if np is not None and vector.numpy_enabled() and code is not None:
            (n_runs,) = _U32.unpack_from(data, 4)
            runs = np.frombuffer(data, dtype="<u4", count=n_runs, offset=8)
            distinct = VectorSerializer(dtype).decode_buffer(
                data[8 + 4 * n_runs :]
            )
            return np.repeat(np.asarray(distinct), runs)
        if code is not None:
            out = vector.from_values(self.decode_all(data, dtype), code)
            if out is not None:
                return out
        return self.decode_all(data, dtype)


register(RleCodec())
