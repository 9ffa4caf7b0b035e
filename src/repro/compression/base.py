"""Codec interface and registry.

The paper (§3.5.2) notes that "the storage algebra supports a wide range of
compression schemes by producing nestings through user-defined functions".
Codecs plug into the algebra through ``compress[codec](N)`` and into the
layout renderer, which encodes column chunks / cell columns with the codec
named in the physical plan.

A codec is two functions, ``encode(values, dtype)`` and
``decode(data, dtype)``, and is lossless: ``decode(encode(values))`` holds
``values`` for any list valid for the declared type class. ``decode``
returns one blob's values as a vector — a contiguous typed one (numpy
``ndarray`` when importable, stdlib ``array`` otherwise; see
:mod:`repro.vector`) when the element type allows, a plain list otherwise
— and callers treat both shapes uniformly. A user codec that returns a
list is a complete codec.

:meth:`Codec.decode_buffer` is the entry point for a *run* of blobs laid
back to back — a batch of grid cells or folded records, possibly of
several fields of one type (every blob of the first field, then of the
next): it decodes each with ``decode`` and returns their values as one
vector; ``varint`` overrides it to decode the whole run in one pass.

A blob that does not decode — truncated, bit-flipped, extended — raises
:class:`CodecError` (or :class:`~repro.errors.SerializationError` from the
vector serializer underneath), never whatever exception the bytes happened
to provoke.
"""

from __future__ import annotations

import functools
import struct
from itertools import accumulate
from typing import Any, Sequence

from repro import vector
from repro.errors import RodentStoreError
from repro.storage.serializer import VectorSerializer
from repro.types.types import DataType


class CodecError(RodentStoreError):
    """A codec cannot encode/decode the given values."""


def checked(decode):
    """A built-in ``decode`` whose malformed-input failures — what the bytes
    provoke in ``struct``, numpy or an index before a check of the codec's
    own can — raise :class:`CodecError`."""

    @functools.wraps(decode)
    def checked_decode(self, data, dtype):
        try:
            return decode(self, data, dtype)
        except (struct.error, IndexError, ValueError, OverflowError) as exc:
            raise CodecError(f"corrupt {self.name} blob: {exc}") from exc

    return checked_decode


def typed(values: list, dtype: DataType):
    """``values`` as a typed vector when ``dtype`` has a typecode and every
    value fits it, else the list itself."""
    code = vector.typecode_for(dtype)
    if code is not None:
        out = vector.from_values(values, code)
        if out is not None:
            return out
    return values


class Codec:
    """Base class for value-vector codecs."""

    name: str = "codec"
    #: Does :meth:`encode` take typed vectors (:mod:`repro.vector`) as
    #: they are? Every other codec is handed lists of Python values.
    _typed_input: bool = False

    def encode(self, values: Sequence[Any], dtype: DataType) -> bytes:
        raise NotImplementedError

    def encode_input(self, values: Sequence[Any]) -> Sequence[Any]:
        """``values`` in the shape :meth:`encode` takes: a typed vector as
        it is for the built-in codecs that read one (identity, varint), the
        native Python values as a list for every other codec — a user's
        included."""
        return values if self._typed_input else list(vector.to_list(values))

    def encode_segments(
        self, values: Sequence[Any], counts: Sequence[int], dtype: DataType
    ) -> list[bytes]:
        """One :meth:`encode` blob per segment of ``values`` (segments of
        ``counts`` values, back to back) — the grid cells or folded records
        of one field, from slices of :meth:`encode_input`'s vector. A codec
        with a one-pass encoding of a whole run (varint) supplies it as
        ``_encode_run``."""
        blobs = self._encode_run(values, counts, dtype)
        if blobs is not None:
            return blobs
        values = self.encode_input(values)
        starts = list(accumulate(counts, initial=0))
        return [self.encode(values[a:b], dtype) for a, b in zip(starts, starts[1:])]

    def _encode_run(self, values, counts, dtype) -> list[bytes] | None:
        return None

    def decode(self, data: bytes, dtype: DataType):
        """The values of one blob, as a typed vector or a list."""
        raise NotImplementedError

    def decode_buffer(
        self,
        data: bytes,
        dtype: DataType,
        lengths: Sequence[int] | None = None,
        counts: Sequence[int] | None = None,
    ):
        """The values of ``data`` as one vector (typed when possible).

        ``data`` is one encoded blob, or — with ``lengths`` — several laid
        back to back, blob ``i`` taking ``lengths[i]`` bytes; their values
        come back concatenated, in order. The blobs may belong to several
        fields of ``dtype`` (a stream reader hands over all of a batch's
        fields that decode alike in one run), so ``counts`` states how
        many values each blob must hold: a blob that decodes to any other
        number raises :class:`CodecError` rather than shift every value
        after it — into the next record, or into the next field.
        """
        if lengths is None:
            return self.decode(data, dtype)
        if sum(lengths) != len(data):
            raise CodecError(
                f"blob lengths add up to {sum(lengths)} bytes, "
                f"payload has {len(data)}"
            )
        parts = []
        offset = 0
        for i, length in enumerate(lengths):
            part = self.decode(data[offset : offset + length], dtype)
            if counts is not None and len(part) != counts[i]:
                raise CodecError(
                    f"blob {i} holds {len(part)} values, expected {counts[i]}"
                )
            parts.append(part)
            offset += length
        return vector.concat(parts) if parts else []

    def __repr__(self) -> str:
        return f"<codec {self.name}>"


class NoneCodec(Codec):
    """Identity codec: plain vector serialization."""

    name = "none"
    _typed_input = True

    def encode(self, values: Sequence[Any], dtype: DataType) -> bytes:
        return VectorSerializer(dtype).encode(values)

    @checked
    def decode(self, data: bytes, dtype: DataType):
        return VectorSerializer(dtype).decode_buffer(data)


_REGISTRY: dict[str, Codec] = {}


def register(codec: Codec) -> Codec:
    """Register a codec instance under its ``name``.

    Re-registering a name replaces the previous codec, which lets user code
    override built-ins (the paper's "user-defined functions").
    """
    _REGISTRY[codec.name] = codec
    return codec


def get_codec(name: str) -> Codec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CodecError(
            f"unknown codec {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def codec_names() -> set[str]:
    return set(_REGISTRY)


register(NoneCodec())
