"""Run-length encoding.

Best for sorted or low-cardinality columns — e.g. the area-code column after
the paper's ``fold`` example, or the year column after ``grid[y, z]``.
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

from repro import vector
from repro.compression.base import Codec, CodecError, checked, register, typed
from repro.storage.serializer import VectorSerializer
from repro.types.types import DataType

_U32 = struct.Struct("<I")
_HEADER = struct.Struct("<II")  # total values, runs


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

    @checked
    def decode(self, data: bytes, dtype: DataType):
        total, n_runs = _HEADER.unpack_from(data, 0)
        np = vector.numpy_module()
        whole = vector.numpy_enabled() and vector.typecode_for(dtype) is not None
        if whole:
            runs = np.frombuffer(data, dtype="<u4", count=n_runs, offset=8)
            held = int(runs.sum())
        else:
            runs = struct.unpack_from(f"<{n_runs}I", data, 8)
            held = sum(runs)
        # Checked before anything is expanded: a flipped run length would
        # otherwise materialize billions of values.
        if held != total:
            raise CodecError(f"rle runs hold {held} values, header says {total}")
        distinct = VectorSerializer(dtype).decode_buffer(data[8 + 4 * n_runs :])
        if len(distinct) != n_runs:
            raise CodecError(f"rle holds {len(distinct)} values for {n_runs} runs")
        if whole:
            return np.repeat(np.asarray(distinct), runs)
        values: list[Any] = []
        extend = values.extend
        for run, value in zip(runs, distinct):
            extend((value,) * run)
        return typed(values, dtype)


register(RleCodec())
