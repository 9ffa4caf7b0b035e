"""Codec interface and registry.

The paper (§3.5.2) notes that "the storage algebra supports a wide range of
compression schemes by producing nestings through user-defined functions".
Codecs plug into the algebra through ``compress[codec](N)`` and into the
layout renderer, which encodes column chunks / cell columns with the codec
named in the physical plan.

Every codec is value-level and lossless: ``decode(encode(values)) == values``
for any list of values valid for the declared type class.

Codecs expose three read paths:

* :meth:`Codec.decode` — the canonical value-at-a-time implementation;
* :meth:`Codec.decode_all` — the *bulk* path: it must return exactly what
  ``decode`` returns; built-in codecs override it with implementations
  that decode whole chunks in a few C-level calls (``struct.unpack`` of
  entire vectors, word-at-a-time bit unpacking, inlined varint loops)
  instead of per-value round-trips.
* :meth:`Codec.decode_buffer` — the *vectorized* path the batch scan
  pipeline reads through. For 8-byte numeric element types it lands
  directly in a contiguous typed vector (numpy ``ndarray`` when
  importable, stdlib ``array`` otherwise — see :mod:`repro.vector`); for
  everything else it returns ``decode_all``'s plain list. Callers treat
  both shapes uniformly. It also takes *several* blobs laid back to back
  (a run of grid cells) and returns their values as one vector. A codec
  speeds it up by overriding :meth:`Codec.decode_vector` (one blob), or
  ``decode_buffer`` itself to decode a whole run in one pass (``varint``).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro import vector
from repro.errors import RodentStoreError
from repro.storage.serializer import VectorSerializer
from repro.types.types import DataType


class CodecError(RodentStoreError):
    """A codec cannot encode/decode the given values."""


class Codec:
    """Base class for value-vector codecs."""

    name: str = "codec"

    def encode(self, values: Sequence[Any], dtype: DataType) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes, dtype: DataType) -> list:
        raise NotImplementedError

    def decode_all(self, data: bytes, dtype: DataType) -> list:
        """Bulk-decode an entire chunk (batch scan fast path).

        Equivalent to :meth:`decode` — same bytes in, same list out — but
        subclasses may use vectorized implementations. The default simply
        delegates.
        """
        return self.decode(data, dtype)

    def decode_vector(self, data: bytes, dtype: DataType):
        """Bulk-decode one blob into a typed vector when the element type
        allows.

        Returns a contiguous typed vector (``numpy.ndarray`` or stdlib
        ``array``) *or* a plain list — same values as :meth:`decode`
        either way. The default delegates to :meth:`decode_all`;
        subclasses override it to skip python-object materialization
        entirely for numeric chunks.
        """
        return self.decode_all(data, dtype)

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
        come back concatenated, in order. ``counts`` states how many
        values each blob must hold: a blob that decodes to any other
        number raises :class:`CodecError` rather than shift every value
        after it.
        """
        if lengths is None:
            return self.decode_vector(data, dtype)
        if sum(lengths) != len(data):
            raise CodecError(
                f"blob lengths add up to {sum(lengths)} bytes, "
                f"payload has {len(data)}"
            )
        parts = []
        offset = 0
        for i, length in enumerate(lengths):
            part = self.decode_vector(data[offset : offset + length], dtype)
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

    def encode(self, values: Sequence[Any], dtype: DataType) -> bytes:
        return VectorSerializer(dtype).encode(values)

    def decode(self, data: bytes, dtype: DataType) -> list:
        return VectorSerializer(dtype).decode(data)

    def decode_all(self, data: bytes, dtype: DataType) -> list:
        return VectorSerializer(dtype).decode_bulk(data)

    def decode_vector(self, data: bytes, dtype: DataType):
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
