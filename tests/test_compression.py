"""Tests for repro.compression (all codecs).

A codec is checked against the values it encoded, never against a second
decoder: :func:`round_trip` asserts that ``vector.to_list(decode(encode(v)))``
— and the same blob through the run entry point ``decode_buffer`` — equals
``v``, with numpy on and off. Every codec round trip in the suite goes
through it: the fixed cases of :data:`CODEC_CASES` (empty / single / run /
mixed-sign / wide, run by ``test_vector_exec``), the degenerate chunks of
:data:`EDGE_CASES`, and the hypothesis properties here and in
``test_batch_scan``. A corrupt blob — truncated, bit-flipped, extended —
decodes to values or raises a library error.
"""

import math
import random
from contextlib import contextmanager

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import vector
from repro.compression import (
    CodecError,
    codec_names,
    get_codec,
    pack_uints,
    register,
    unpack_uints,
    varint_encode,
    zigzag_encode,
    zigzag_varint_decode_all,
)
from repro.compression.base import Codec
from repro.errors import SerializationError
from repro.types import FLOAT, INT, STRING

ints = st.lists(st.integers(-(2**62), 2**62), max_size=200)
small_ints = st.lists(st.integers(-1000, 1000), max_size=200)
floats = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=64), max_size=100
)

#: The numpy settings this process can run: both, or only the fallback
#: when numpy is absent or switched off (``REPRO_NO_NUMPY=1``).
NUMPY_LEGS = (True, False) if vector.numpy_enabled() else (False,)


@contextmanager
def numpy_set(enabled):
    previous = vector.set_numpy_enabled(enabled)
    try:
        yield
    finally:
        vector.set_numpy_enabled(previous)


def round_trip(codec_name, dtype, values, legs=NUMPY_LEGS):
    """``decode(encode(values))`` holds ``values`` under each numpy leg, as
    one blob and as a run of one blob; the fallback never hands out an
    ndarray."""
    codec = get_codec(codec_name)
    data = codec.encode(values, dtype)
    expected = list(values)
    np = vector.numpy_module()
    for numpy_on in legs:
        with numpy_set(numpy_on):
            out = codec.decode(data, dtype)
            run = codec.decode_buffer(data, dtype, [len(data)], [len(expected)])
        if np is not None and not numpy_on:
            assert not isinstance(out, np.ndarray)
        assert vector.to_list(out) == expected, (codec_name, numpy_on)
        assert vector.to_list(run) == expected, (codec_name, numpy_on)


INT_CASES = {
    "empty": [],
    "single": [7],
    "single_negative": [-9223372036854775000],
    "run": [3] * 257,
    "mixed_sign": [(-1) ** i * (i * i) for i in range(100)],
    "wide": [0, 1, -1, 2**40, -(2**40), 2**62, -(2**62)],
}

FLOAT_CASES = {
    "empty": [],
    "single": [7.5],
    "run": [-0.25] * 64,
    "mixed_sign": [((-1) ** i) * i * 0.37 for i in range(100)],
    "special": [0.0, -0.0, 1e300, -1e-300, math.pi, float("inf")],
}

#: codec name -> (dtype, fixed cases valid for that codec)
CODEC_CASES = {
    "none": (INT, INT_CASES),
    "varint": (INT, INT_CASES),
    "delta": (INT, INT_CASES),
    "rle": (INT, INT_CASES),
    "dict": (INT, INT_CASES),
    "lz": (INT, INT_CASES),
    "for": (INT, INT_CASES),
    # bitpack stores non-negative ints only (frame-of-reference adds the
    # sign handling on top of it).
    "bitpack": (
        INT,
        {
            "empty": [],
            "single": [7],
            "run": [3] * 257,
            "zeros": [0] * 100,
            "wide": [0, 1, 2**40, 2**62],
        },
    ),
    "xor": (FLOAT, FLOAT_CASES),
}


def codec_case_params():
    for codec_name, (dtype, cases) in CODEC_CASES.items():
        for case_name, values in cases.items():
            yield pytest.param(
                codec_name, dtype, values, id=f"{codec_name}-{case_name}"
            )


class TestRegistry:
    def test_builtins_registered(self):
        assert {"none", "varint", "delta", "rle", "dict", "bitpack",
                "for", "lz", "xor"} <= codec_names()

    def test_unknown_codec(self):
        with pytest.raises(CodecError):
            get_codec("snappy")

    def test_user_defined_codec(self):
        class Reverse(Codec):
            name = "reverse-test"

            def encode(self, values, dtype):
                import struct
                return struct.pack(f"<{len(values)}q", *reversed(values))

            def decode(self, data, dtype):
                import struct
                n = len(data) // 8
                return list(reversed(struct.unpack(f"<{n}q", data)))

        register(Reverse())
        codec = get_codec("reverse-test")
        assert codec.decode(codec.encode([1, 2, 3], INT), INT) == [1, 2, 3]
        # A list-returning decode is a whole codec: runs of blobs work too.
        blobs = [codec.encode(v, INT) for v in ([1, 2, 3], [4, 5])]
        run = codec.decode_buffer(b"".join(blobs), INT, [24, 16], [3, 2])
        assert vector.to_list(run) == [1, 2, 3, 4, 5]


class TestZigzagVarint:
    def test_zigzag_small_magnitudes(self):
        assert zigzag_encode(0) == 0
        assert zigzag_encode(-1) == 1
        assert zigzag_encode(1) == 2
        assert zigzag_encode(-2) == 3

    @given(st.integers(-(2**62), 2**62))
    def test_zigzag_roundtrip(self, v):
        buf = bytearray()
        varint_encode(zigzag_encode(v), buf)
        assert zigzag_varint_decode_all(bytes(buf), 0, 1) == [v]

    @given(st.integers(0, 2**63))
    def test_varint_roundtrip(self, v):
        # zigzag is a bijection onto the unsigned ints, so every varint
        # decodes to the signed value it encodes — and ends where it should.
        buf = bytearray()
        varint_encode(v, buf)
        decoded = zigzag_varint_decode_all(bytes(buf) * 2, 0, 2)
        assert [zigzag_encode(d) for d in decoded] == [v, v]

    def test_varint_rejects_negative(self):
        with pytest.raises(CodecError):
            varint_encode(-1, bytearray())

    def test_varint_truncated(self):
        with pytest.raises(CodecError):
            zigzag_varint_decode_all(b"\x80", 0, 1)

    def test_small_values_one_byte(self):
        buf = bytearray()
        varint_encode(100, buf)
        assert len(buf) == 1


class TestBitpack:
    @given(st.lists(st.integers(0, 2**40), max_size=200))
    def test_roundtrip(self, values):
        assert unpack_uints(pack_uints(values)) == values

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            pack_uints([-1])

    def test_minimal_width(self):
        # 100 values < 8 -> 3 bits each -> ~38 bytes + header
        data = pack_uints([7] * 100)
        assert len(data) <= 5 + (100 * 3 + 7) // 8

    def test_truncated(self):
        with pytest.raises(CodecError):
            unpack_uints(b"\x01")


@pytest.mark.parametrize("name", ["none", "varint", "delta", "bitpack", "for"])
class TestIntCodecs:
    @given(values=st.lists(st.integers(0, 10**6), max_size=120))
    def test_roundtrip(self, name, values):
        round_trip(name, INT, values)

    def test_empty(self, name):
        round_trip(name, INT, [])


class TestSignedIntCodecs:
    @pytest.mark.parametrize("name", ["none", "varint", "delta", "for"])
    @given(values=small_ints)
    def test_negative_values(self, name, values):
        round_trip(name, INT, values)


class TestDeltaCodec:
    @given(floats)
    def test_float_roundtrip_exact(self, values):
        round_trip("delta", FLOAT, values)

    def test_sorted_ints_compress(self):
        codec = get_codec("delta")
        values = list(range(100_000, 101_000))
        assert len(codec.encode(values, INT)) < 1000 * 2.5

    def test_type_mismatch_tag(self):
        codec = get_codec("delta")
        data = codec.encode([1, 2, 3], INT)
        with pytest.raises(CodecError):
            codec.decode(data, FLOAT)

    def test_rejects_strings(self):
        with pytest.raises(CodecError):
            get_codec("delta").encode(["a"], STRING)


class TestRle:
    @given(st.lists(st.integers(0, 3), max_size=300))
    def test_roundtrip_ints(self, values):
        round_trip("rle", INT, values)

    @given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=100))
    def test_roundtrip_strings(self, values):
        round_trip("rle", STRING, values)

    def test_long_runs_compress(self):
        codec = get_codec("rle")
        values = [5] * 10_000
        assert len(codec.encode(values, INT)) < 100


class TestDictionary:
    @given(st.lists(st.sampled_from([10, 20, 30, 40]), max_size=300))
    def test_roundtrip(self, values):
        round_trip("dict", INT, values)

    @given(st.lists(st.text(min_size=0, max_size=8), max_size=80))
    def test_roundtrip_strings(self, values):
        round_trip("dict", STRING, values)

    def test_low_cardinality_compresses(self):
        codec = get_codec("dict")
        values = ["boston", "nyc"] * 5_000
        plain = get_codec("none").encode(values, STRING)
        assert len(codec.encode(values, STRING)) < len(plain) / 10


class TestLz:
    @given(st.lists(st.integers(0, 100), max_size=200))
    def test_roundtrip(self, values):
        round_trip("lz", INT, values)

    def test_repetitive_compresses(self):
        codec = get_codec("lz")
        values = [1, 2, 3, 4] * 1000
        plain = get_codec("none").encode(values, INT)
        assert len(codec.encode(values, INT)) < len(plain) / 20


class TestXor:
    @given(floats)
    def test_roundtrip_exact(self, values):
        round_trip("xor", FLOAT, values)

    def test_smooth_series_compress(self):
        codec = get_codec("xor")
        values = [42.0 + i * 1e-4 for i in range(1000)]
        plain = get_codec("none").encode(values, FLOAT)
        assert len(codec.encode(values, FLOAT)) < len(plain) * 0.9

    def test_rejects_ints_type(self):
        with pytest.raises(CodecError):
            get_codec("xor").encode([1], INT)

    def test_truncated(self):
        codec = get_codec("xor")
        data = codec.encode([1.0, 2.0], FLOAT)
        with pytest.raises(CodecError):
            codec.decode(data[:6], FLOAT)


class TestCompressionEffectiveness:
    """The size relationships the paper's N4 layout depends on."""

    def test_varint_on_deltas_beats_plain(self):
        # GPS-like microdegree walk: deltas are small.
        rng = random.Random(1)
        values = [42_350_000]
        for _ in range(2000):
            values.append(values[-1] + rng.randrange(-150, 150))
        from repro.algebra.transforms import delta_list

        deltas = [int(d) for d in delta_list(values)]
        varint = get_codec("varint").encode(deltas, INT)
        plain = get_codec("none").encode(values, INT)
        assert len(varint) < len(plain) / 3


#: (codec, dtype, representative single value) for every valid pairing —
#: the degenerate chunk shapes a column read must handle.
EDGE_CASES = [
    ("none", INT, 7),
    ("none", FLOAT, 3.25),
    ("none", STRING, "x"),
    ("varint", INT, -13),
    ("delta", INT, 42),
    ("delta", FLOAT, -2.5),
    ("rle", INT, 9),
    ("rle", STRING, "abc"),
    ("dict", INT, 3),
    ("dict", STRING, "k"),
    ("bitpack", INT, 12),
    ("for", INT, -100),
    ("lz", INT, 77),
    ("lz", STRING, "zz"),
    ("xor", FLOAT, 1.5),
]

_EDGE_IDS = [f"{c}-{d.name}" for c, d, _ in EDGE_CASES]


class TestDecodeAllEdgeCases:
    """Empty and single-value chunks through every codec and element type.

    Empty chunks occur for empty columns (which still own one page) and
    single-value chunks whenever a value bisects down to one per page.
    """

    @pytest.mark.parametrize(
        "codec_name,dtype,_value", EDGE_CASES, ids=_EDGE_IDS
    )
    def test_empty_input(self, codec_name, dtype, _value):
        round_trip(codec_name, dtype, [])

    @pytest.mark.parametrize(
        "codec_name,dtype,value", EDGE_CASES, ids=_EDGE_IDS
    )
    def test_single_value(self, codec_name, dtype, value):
        round_trip(codec_name, dtype, [value])


# ---------------------------------------------------------------------------
# corrupt blobs: values or a library error, never what the bytes provoke
# ---------------------------------------------------------------------------

#: One valid blob's values per codec and element type it takes — runs,
#: repeats and wide values, so headers, run lengths, dictionary codes and
#: bit widths all sit where a flip can reach them.
CORRUPTIBLE = [
    ("none", INT, [(-3) ** i for i in range(12)]),
    ("none", STRING, ["alpha", "", "ünï", "z" * 9]),
    ("varint", INT, [0, -1, 300, -(2**40), 2**62, 5]),
    ("delta", INT, [10, 12, 9, 2**40, -7, -7, 0]),
    ("delta", FLOAT, [1.5, 1.75, -0.25, 1e300, 2.0]),
    ("rle", INT, [4] * 9 + [-2] * 3 + [2**50] * 5),
    ("rle", STRING, ["a"] * 6 + ["bc"] * 4 + ["a"]),
    ("dict", INT, [10, 20, 10, 30, 40, 20, 10] * 3),
    ("dict", STRING, ["boston", "nyc", "boston", "sf"] * 3),
    ("bitpack", INT, [0, 5, 7, 1, 6, 2, 3] * 3),
    ("for", INT, [-100, -97, -90, -100, -55]),
    ("lz", INT, [1, 2, 3, 4] * 10),
    ("xor", FLOAT, [42.0 + i * 1e-4 for i in range(12)]),
]


def _mutants(data: bytes, rng: random.Random):
    """A truncated, a one-bit-flipped and an extended copy of ``data``."""
    flipped = bytearray(data)
    bit = rng.randrange(len(data) * 8)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return [
        data[: rng.randrange(len(data))],
        bytes(flipped),
        data + bytes([rng.randrange(256)]),
    ]


@pytest.mark.parametrize("numpy_on", NUMPY_LEGS)
@pytest.mark.parametrize(
    "codec_name,dtype,values",
    CORRUPTIBLE,
    ids=[f"{c}-{d.name}" for c, d, _ in CORRUPTIBLE],
)
def test_corrupt_blob_decodes_to_values_or_a_library_error(
    codec_name, dtype, values, numpy_on
):
    codec = get_codec(codec_name)
    data = codec.encode(values, dtype)
    rng = random.Random(1)
    with numpy_set(numpy_on):
        for _ in range(40):
            for blob in _mutants(data, rng):
                for decode in (
                    lambda b: codec.decode(b, dtype),
                    lambda b: codec.decode_buffer(b, dtype, [len(b)], [len(values)]),
                ):
                    try:
                        out = decode(blob)
                    except (CodecError, SerializationError):
                        continue
                    assert len(vector.to_list(out)) == len(out)
