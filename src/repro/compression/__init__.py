"""Compression codecs pluggable into ``compress[codec](N)`` and the renderer.

Importing this package registers the built-in codecs:

======== ===========================================================
name     scheme
======== ===========================================================
none     plain vector serialization
varint   zigzag + LEB128 (null suppression for small ints)
delta    first value raw, then differences (the paper's ∆, byte level)
rle      run-length encoding
dict     dictionary + bit-packed codes
bitpack  minimal-width bit packing (non-negative ints)
for      frame of reference + bit packing
lz       Lempel-Ziv (zlib)
xor      byte-aligned Gorilla-style XOR for floats
======== ===========================================================

Each is an ``encode`` / ``decode`` pair (:class:`Codec`); the module-level
helpers exported here are the coding steps they share — bit packing
(``pack_uints`` / ``unpack_uints``) and zigzag varints (``zigzag_encode``,
``varint_encode``, ``zigzag_varint_decode_all``).
"""

from repro.compression.base import (
    Codec,
    CodecError,
    NoneCodec,
    codec_names,
    get_codec,
    register,
)
from repro.compression.bitpack import (
    BitpackCodec,
    ForCodec,
    pack_uints,
    unpack_uints,
)
from repro.compression.delta import DeltaCodec
from repro.compression.dictionary import DictionaryCodec
from repro.compression.lz import LzCodec
from repro.compression.rle import RleCodec
from repro.compression.varint import (
    VarintCodec,
    varint_encode,
    zigzag_encode,
    zigzag_varint_decode_all,
)
from repro.compression.xor import XorFloatCodec

__all__ = [
    "BitpackCodec",
    "Codec",
    "CodecError",
    "DeltaCodec",
    "DictionaryCodec",
    "ForCodec",
    "LzCodec",
    "NoneCodec",
    "RleCodec",
    "VarintCodec",
    "XorFloatCodec",
    "codec_names",
    "get_codec",
    "pack_uints",
    "register",
    "unpack_uints",
    "varint_encode",
    "zigzag_encode",
    "zigzag_varint_decode_all",
]
