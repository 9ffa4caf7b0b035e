"""Tests for repro.storage.serializer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.storage.serializer import RecordSerializer, VectorSerializer
from repro.types import BOOL, BYTES, FLOAT, INT, STRING, Schema

MIXED = Schema.of("a:int", "b:float", "c:string", "d:bool")


class TestRecordSerializer:
    def test_roundtrip_mixed(self):
        s = RecordSerializer(MIXED)
        record = (42, 3.25, "hello", True)
        assert s.decode(s.encode(record)) == record

    def test_roundtrip_empty_string(self):
        s = RecordSerializer(MIXED)
        record = (0, 0.0, "", False)
        assert s.decode(s.encode(record)) == record

    def test_roundtrip_unicode(self):
        s = RecordSerializer(MIXED)
        record = (1, -1.5, "héllo wörld ✓", False)
        assert s.decode(s.encode(record)) == record

    def test_nulls_roundtrip(self):
        s = RecordSerializer(MIXED)
        record = (None, 2.0, None, None)
        assert s.decode(s.encode(record)) == record

    def test_all_null(self):
        s = RecordSerializer(MIXED)
        record = (None, None, None, None)
        assert s.decode(s.encode(record)) == record

    def test_arity_mismatch(self):
        s = RecordSerializer(MIXED)
        with pytest.raises(SerializationError):
            s.encode((1, 2.0))

    def test_int_overflow(self):
        s = RecordSerializer(Schema.of("a:int"))
        with pytest.raises(SerializationError):
            s.encode((2**63,))

    def test_bool_rejected_in_int_field(self):
        s = RecordSerializer(Schema.of("a:int"))
        with pytest.raises(SerializationError):
            s.encode((True,))

    def test_decode_truncated(self):
        s = RecordSerializer(MIXED)
        data = s.encode((1, 2.0, "abc", True))
        with pytest.raises(SerializationError):
            s.decode(data[:5])

    def test_decode_truncated_var_payload(self):
        s = RecordSerializer(Schema.of("c:string"))
        data = s.encode(("hello",))
        with pytest.raises(SerializationError):
            s.decode(data[:-2])

    def test_encoded_size_matches(self):
        s = RecordSerializer(MIXED)
        for record in [(1, 2.0, "xyz", True), (None, None, "", False)]:
            assert s.encoded_size(record) == len(s.encode(record))

    def test_decode_prefix_tolerates_trailing_bytes(self):
        # Folded rendering decodes a key record from the front of a blob.
        s = RecordSerializer(Schema.of("a:int"))
        data = s.encode((7,)) + b"trailing"
        assert s.decode(data) == (7,)

    def test_float_coercion_on_encode(self):
        s = RecordSerializer(Schema.of("b:float"))
        assert s.decode(s.encode((2,))) == (2.0,)

    @given(
        st.tuples(
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.text(max_size=50),
            st.booleans(),
        )
    )
    def test_roundtrip_property(self, record):
        s = RecordSerializer(MIXED)
        assert s.decode(s.encode(record)) == record

    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.integers(min_value=-(2**31), max_value=2**31),
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_roundtrip_nullable_ints(self, values):
        s = RecordSerializer(Schema.of("a:int", "b:int", "c:int"))
        record = tuple(values)
        assert s.decode(s.encode(record)) == record


class TestVectorSerializer:
    def test_int_roundtrip(self):
        v = VectorSerializer(INT)
        values = [1, -5, 2**40, 0]
        assert v.decode(v.encode(values)) == values

    def test_float_roundtrip(self):
        v = VectorSerializer(FLOAT)
        values = [1.5, -2.25, 0.0]
        assert v.decode(v.encode(values)) == values

    def test_string_roundtrip(self):
        v = VectorSerializer(STRING)
        values = ["a", "", "longer string", "ünïcode"]
        assert v.decode(v.encode(values)) == values

    def test_bytes_roundtrip(self):
        v = VectorSerializer(BYTES)
        values = [b"\x00\x01", b"", b"abc"]
        assert v.decode(v.encode(values)) == values

    def test_empty_vector(self):
        v = VectorSerializer(INT)
        assert v.decode(v.encode([])) == []

    # What the per-value ``Struct.pack`` loop wrote, for every fixed-size
    # element type: three values, one value, none.
    PINNED = {
        "INT": ([1, -5, 2**40],
                "030000000100000000000000fbffffffffffffff0000000000010000",
                "010000000100000000000000"),
        "FLOAT": ([1.5, -2.25, 0.0],
                  "03000000000000000000f83f00000000000002c00000000000000000",
                  "01000000000000000000f83f"),
        "DOUBLE": ([1.5, -2.25, 0.0],
                   "03000000000000000000f83f00000000000002c00000000000000000",
                   "01000000000000000000f83f"),
        "BOOL": ([True, False, True], "03000000010001", "0100000001"),
        "TIMESTAMP": ([0, 1700000000, -1],
                      "03000000000000000000000000f1536500000000ffffffffffffffff",
                      "010000000000000000000000"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_chunk_pack_bytes_are_pinned(self, name):
        from array import array

        from repro import vector
        from repro.types import types

        values, three, one = self.PINNED[name]
        v = VectorSerializer(getattr(types, name))
        assert v.encode(values).hex() == three
        assert v.encode(values[:1]).hex() == one
        assert v.encode([]).hex() == "00000000"
        assert v.encode(tuple(values)).hex() == three
        code = vector.typecode_for(v.dtype)
        if code is None:
            return
        # Typed vectors of the element type are already the packed bytes.
        for typed in (array(code, values), vector.from_values(values, code)):
            assert v.encode(typed).hex() == three
            assert v.encode(typed[:1]).hex() == one
            assert v.encode(typed[:0]).hex() == "00000000"
        assert v.decode(v.encode(array(code, values))) == values

    def test_typed_vector_of_another_type_is_converted_not_copied(self):
        from array import array

        ints_for_floats = VectorSerializer(FLOAT).encode(array("q", [1, 2]))
        assert ints_for_floats.hex() == (
            "02000000000000000000f03f0000000000000040"
        )
        assert ints_for_floats == VectorSerializer(FLOAT).encode([1, 2])

    @pytest.mark.parametrize("bad", [[1, None], [1, 2**70], [1.5]])
    def test_unpackable_value_is_a_serialization_error(self, bad):
        with pytest.raises(SerializationError, match="cannot pack vector"):
            VectorSerializer(INT).encode(bad)

    def test_encoded_size(self):
        v = VectorSerializer(INT)
        assert v.encoded_size([1, 2, 3]) == len(v.encode([1, 2, 3]))
        s = VectorSerializer(STRING)
        assert s.encoded_size(["ab", "c"]) == len(s.encode(["ab", "c"]))

    def test_truncated(self):
        v = VectorSerializer(INT)
        data = v.encode([1, 2, 3])
        with pytest.raises(SerializationError):
            v.decode(data[:10])
        with pytest.raises(SerializationError):
            v.decode(b"\x01")

    @given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1),
                    max_size=100))
    def test_int_roundtrip_property(self, values):
        v = VectorSerializer(INT)
        assert v.decode(v.encode(values)) == values

    @given(st.lists(st.text(max_size=20), max_size=50))
    def test_string_roundtrip_property(self, values):
        v = VectorSerializer(STRING)
        assert v.decode(v.encode(values)) == values

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    max_size=50))
    def test_float_roundtrip_property(self, values):
        v = VectorSerializer(FLOAT)
        assert v.decode(v.encode(values)) == values

    def test_bool_vector(self):
        v = VectorSerializer(BOOL)
        values = [True, False, True]
        assert v.decode(v.encode(values)) == values
