"""The slotted-page kernel: ``RecordSerializer.decode_page`` / ``encode_page``.

One page-at-a-time reader and writer serve every row-page consumer, with a
fast path for *packed* pages of fixed-width numeric records and a general
per-record path for everything else. The properties below pin down that

* both paths return exactly what decoding record by record returns;
* ``encode_page`` writes exactly the bytes ``insert(encode(r))`` writes;
* numpy on and off agree value for value, bit for bit;
* a null-free page of 8-byte numerics plus strings or bytes is one vector
  pass; a null, a damaged directory or a bad record sends it to the record
  loop, which raises;
* a damaged slot directory raises — never reads outside the record heap;
* a partitioned update/delete leaves partitions it cannot touch unread and
  un-rendered.
"""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro import vector
from repro.engine.database import RodentStore
from repro.errors import PageError, SerializationError
from repro.query.expressions import And, Range
from repro.storage.page import SLOTTED_HEADER_SIZE, SlottedPage
from repro.storage.serializer import RecordSerializer
from repro.types.schema import Schema

PAGE_SIZE = 1024
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

_VALUES = {
    "int": st.integers(INT64_MIN, INT64_MAX),
    "float": st.floats(allow_nan=True, allow_infinity=True),
    "bool": st.booleans(),
    "string": st.text(max_size=12),
    "bytes": st.binary(max_size=12),
}


@st.composite
def schema_and_records(draw, type_names=tuple(_VALUES), nullable=True):
    """A random schema plus records for it (few enough for one or two pages)."""
    types = draw(st.lists(st.sampled_from(type_names), min_size=1, max_size=6))
    schema = Schema.of(*(f"f{i}:{t}" for i, t in enumerate(types)))
    fields = [
        st.none() | _VALUES[t] if nullable else _VALUES[t] for t in types
    ]
    records = draw(st.lists(st.tuples(*fields), max_size=40))
    return schema, records


def insert_all(serializer: RecordSerializer, records) -> list[SlottedPage]:
    """The reference writer: one ``insert(encode(record))`` per record."""
    pages = [SlottedPage(PAGE_SIZE)]
    for record in records:
        blob = serializer.encode(record)
        if not pages[-1].can_fit(len(blob)):
            pages.append(SlottedPage(PAGE_SIZE))
        pages[-1].insert(blob)
    return pages


def encode_all(serializer: RecordSerializer, records) -> list[SlottedPage]:
    pages, start = [], 0
    while True:
        page, count = serializer.encode_page(records, start, PAGE_SIZE)
        pages.append(page)
        start += count
        if start >= len(records):
            return pages


def reference_columns(serializer: RecordSerializer, page: SlottedPage) -> list:
    rows = [serializer.decode(blob) for _, blob in page.records()]
    if not rows:
        return [[] for _ in serializer.schema.fields]
    return [list(column) for column in zip(*rows)]


def bits(column) -> list:
    """Values with floats replaced by their bit patterns, so NaN payloads
    and the sign of zero take part in equality."""
    return [
        struct.pack("<d", v) if isinstance(v, float) else v
        for v in vector.to_list(column)
    ]


def decoded(serializer: RecordSerializer, page: SlottedPage) -> list:
    return [bits(c) for c in serializer.decode_page(page.buffer, PAGE_SIZE)]


def assert_decodes_like_reference(serializer, page) -> None:
    expected = [bits(c) for c in reference_columns(serializer, page)]
    previous = vector.numpy_enabled()
    try:
        for enabled in (True, False):
            vector.set_numpy_enabled(enabled)
            assert decoded(serializer, page) == expected
    finally:
        vector.set_numpy_enabled(previous)


# ---------------------------------------------------------------------------
# decode_page ≡ per-record decode; encode_page ≡ per-record insert
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(schema_and_records())
def test_fresh_pages_roundtrip_any_schema(case):
    schema, records = case
    serializer = RecordSerializer(schema)
    pages = encode_all(serializer, records)
    assert [p.buffer for p in pages] == [
        p.buffer for p in insert_all(serializer, records)
    ]
    assert sum(p.slot_count for p in pages) == len(records)
    for page in pages:
        assert_decodes_like_reference(serializer, page)


@settings(max_examples=120, deadline=None)
@given(
    schema_and_records(type_names=("int", "float"), nullable=False),
    st.data(),
)
def test_edited_fixed_width_pages(case, data):
    """Tombstones break the packed shape and send the page down the general
    path; an equal-length in-place update keeps it, and must be seen."""
    schema, records = case
    serializer = RecordSerializer(schema)
    page = encode_all(serializer, records)[0]
    for slot in range(page.slot_count):
        action = data.draw(st.sampled_from(("keep", "delete", "replace")))
        if action == "delete":
            page.delete(slot)
        elif action == "replace":
            other = data.draw(st.sampled_from(records))
            assert page.update(slot, serializer.encode(other)) == slot
    assert_decodes_like_reference(serializer, page)


@settings(max_examples=60, deadline=None)
@given(schema_and_records(type_names=("string", "bytes", "int")), st.data())
def test_shrinking_updates_on_variable_length_pages(case, data):
    schema, records = case
    serializer = RecordSerializer(schema)
    page = insert_all(serializer, records)[0]
    for slot in range(page.slot_count):
        action = data.draw(st.sampled_from(("keep", "delete", "shrink")))
        if action == "delete":
            page.delete(slot)
        elif action == "shrink":
            nulls = tuple(None for _ in schema.fields)
            blob = serializer.encode(nulls)
            if len(blob) <= len(page.get(slot)):
                assert page.update(slot, blob) == slot
    assert_decodes_like_reference(serializer, page)


def test_empty_single_and_full_pages():
    serializer = RecordSerializer(Schema.of("a:int", "b:float"))
    capacity = SlottedPage.packed_capacity(PAGE_SIZE, 1 + 16)
    for n in (0, 1, capacity, capacity + 1):
        records = [(i, i / 4) for i in range(n)]
        pages = encode_all(serializer, records)
        assert [p.slot_count for p in pages] == (
            [capacity, 1] if n > capacity else [n]
        )
        assert [p.buffer for p in pages] == [
            p.buffer for p in insert_all(serializer, records)
        ]
        for page in pages:
            assert_decodes_like_reference(serializer, page)
    assert pages[0].free_space() < 1 + 16  # the full page really is full


def test_packed_pages_decode_to_typed_vectors():
    if not vector.numpy_enabled():
        pytest.skip("typed row vectors need numpy")
    serializer = RecordSerializer(Schema.of("a:int", "b:float"))
    (page,) = encode_all(serializer, [(1, 0.5), (2, 1.5)])
    a, b = serializer.decode_page(page.buffer, PAGE_SIZE)
    assert vector.is_typed(a) and a.dtype == "<i8" and a.flags.c_contiguous
    assert vector.is_typed(b) and b.dtype == "<f8" and b.flags.c_contiguous
    # The vectors own their memory: recycling the frame cannot change them.
    page.buffer[:] = bytes(PAGE_SIZE)
    assert a.tolist() == [1, 2] and b.tolist() == [0.5, 1.5]


def test_extreme_values_are_bit_exact():
    serializer = RecordSerializer(Schema.of("i:int", "x:float"))
    nan_payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_DEAD_BEEF))[0]
    records = [
        (INT64_MIN, -0.0),
        (INT64_MAX, 0.0),
        (-1, float("nan")),
        (0, nan_payload),
        (1, float("inf")),
        (2, -float("inf")),
        (3, 5e-324),
    ]
    (page,) = encode_all(serializer, records)
    assert page.buffer == insert_all(serializer, records)[0].buffer
    assert_decodes_like_reference(serializer, page)
    ints, floats = decoded(serializer, page)
    assert ints == [r[0] for r in records]
    assert floats == [struct.pack("<d", r[1]) for r in records]
    assert math.copysign(1.0, struct.unpack("<d", floats[0])[0]) == -1.0


@pytest.mark.parametrize(
    "bad",
    [
        (True, 1.0),  # bool is not an int (struct would pack it as 1)
        (1.5, 1.0),  # float in an int field
        (1, "x"),  # not a number
        (1,),  # arity
        (2**63, 1.0),  # out of int64 range
    ],
)
def test_encode_page_rejects_what_encode_rejects(bad):
    serializer = RecordSerializer(Schema.of("a:int", "b:float"))
    with pytest.raises((SerializationError, ValueError)) as direct:
        serializer.encode(bad)
    with pytest.raises(type(direct.value)):
        serializer.encode_page([(1, 1.0), bad], 0, PAGE_SIZE)


def test_encode_page_coerces_like_encode():
    serializer = RecordSerializer(Schema.of("a:int", "b:float"))
    records = [(1, 2), (2, True), (3, None), (None, 4.5)]  # int/bool → float
    pages = encode_all(serializer, records)
    assert [p.buffer for p in pages] == [
        p.buffer for p in insert_all(serializer, records)
    ]
    assert decoded(serializer, pages[0]) == [
        [1, 2, 3, None],
        [struct.pack("<d", 2.0), struct.pack("<d", 1.0), None,
         struct.pack("<d", 4.5)],
    ]


def test_oversized_record_raises_page_error():
    serializer = RecordSerializer(Schema.of("s:string"))
    with pytest.raises(PageError):
        serializer.encode_page([("x" * PAGE_SIZE,)], 0, PAGE_SIZE)


# ---------------------------------------------------------------------------
# robustness: a damaged directory or header raises, never mis-reads
# ---------------------------------------------------------------------------


def _packed_page(n=10):
    serializer = RecordSerializer(Schema.of("a:int", "b:int"))
    (page,) = encode_all(serializer, [(i, -i) for i in range(n)])
    return serializer, page


def _set_slot(page: SlottedPage, slot: int, offset: int, length: int) -> None:
    struct.pack_into("<II", page.buffer, PAGE_SIZE - (slot + 1) * 8, offset, length)


def _set_header(page: SlottedPage, slot_count: int, free_offset: int) -> None:
    struct.pack_into("<II", page.buffer, SLOTTED_HEADER_SIZE - 8, slot_count,
                     free_offset)


@pytest.mark.parametrize(
    "offset, length",
    [
        (PAGE_SIZE - 4, 17),  # runs off the end of the page
        (PAGE_SIZE - 40, 17),  # lands inside the slot directory
        (4, 17),  # lands inside the page header
        (SLOTTED_HEADER_SIZE, 500),  # longer than the heap
        (2**31, 17),  # far outside the buffer
    ],
)
def test_out_of_bounds_slot_raises(offset, length):
    serializer, page = _packed_page()
    _set_slot(page, 3, offset, length)
    with pytest.raises(PageError):
        serializer.decode_page(page.buffer, PAGE_SIZE)
    with pytest.raises(PageError):
        SlottedPage(PAGE_SIZE, page.buffer).get(3)


def test_swapped_slots_are_read_in_slot_order_not_as_packed():
    serializer, page = _packed_page()
    _set_slot(page, 0, SLOTTED_HEADER_SIZE + 17, 17)
    _set_slot(page, 1, SLOTTED_HEADER_SIZE, 17)
    a, _ = decoded(serializer, page)
    assert a[:3] == [1, 0, 2]


@pytest.mark.parametrize(
    "slot_count, free_offset",
    [
        (10, SLOTTED_HEADER_SIZE - 1),  # heap ends inside the header
        (10, PAGE_SIZE),  # heap runs over the directory
        (PAGE_SIZE, SLOTTED_HEADER_SIZE),  # directory larger than the page
        (2**32 - 1, SLOTTED_HEADER_SIZE),
    ],
)
def test_corrupt_header_raises(slot_count, free_offset):
    serializer, page = _packed_page()
    _set_header(page, slot_count, free_offset)
    with pytest.raises(PageError):
        serializer.decode_page(page.buffer, PAGE_SIZE)


def test_header_disagreeing_with_directory_is_not_read_as_packed():
    """free_offset says 9 records, the directory holds 10: the packed fast
    path must decline, and slot 9 — now past the heap end — must raise."""
    serializer, page = _packed_page(10)
    _set_header(page, 10, SLOTTED_HEADER_SIZE + 9 * 17)
    with pytest.raises(PageError):
        serializer.decode_page(page.buffer, PAGE_SIZE)
    # Fewer slots than records is self-consistent: the tail is unreachable.
    _set_header(page, 9, SLOTTED_HEADER_SIZE + 10 * 17)
    a, _ = decoded(serializer, page)
    assert a == list(range(9))


def test_truncated_record_raises_serialization_error():
    serializer, page = _packed_page()
    _set_slot(page, 2, SLOTTED_HEADER_SIZE + 2 * 17, 5)
    with pytest.raises(SerializationError):
        serializer.decode_page(page.buffer, PAGE_SIZE)


def test_wrong_page_type_and_size_raise():
    serializer, page = _packed_page()
    with pytest.raises(PageError):
        serializer.decode_page(bytearray(PAGE_SIZE), PAGE_SIZE)
    with pytest.raises(PageError):
        serializer.decode_page(page.buffer[:-1], PAGE_SIZE)


# ---------------------------------------------------------------------------
# the vector pass over string- and bytes-bearing pages
# ---------------------------------------------------------------------------

_VAR_CASES = [
    (
        ("id:int", "name:string", "n:int"),
        [(i, "é" * (i % 3) + str(i), -i) for i in range(60)],
    ),
    (
        ("x:float", "blob:bytes"),
        [(i / 3, bytes(range(i % 7))) for i in range(60)],
    ),
]


@pytest.fixture
def loop_calls(monkeypatch):
    """The record loop's calls, each still doing the loop's work."""
    calls = []
    original = RecordSerializer._decode_slots

    def spy(self, buffer, slots):
        calls.append(1)
        return original(self, buffer, slots)

    monkeypatch.setattr(RecordSerializer, "_decode_slots", spy)
    return calls


def _numpy_on():
    if not vector.numpy_enabled():
        pytest.skip("the vector pass needs numpy")


@pytest.mark.parametrize("fields, records", _VAR_CASES)
def test_null_free_var_pages_skip_the_record_loop(fields, records, monkeypatch):
    """With numpy on, a null-free page whose fixed fields are 8-byte numerics
    and whose others are strings or bytes — deleted slots included — is
    decoded without the record loop, numeric fields as typed vectors."""
    _numpy_on()
    serializer = RecordSerializer(Schema.of(*fields))
    page = insert_all(serializer, records)[0]
    page.delete(2)
    page.delete(page.slot_count - 1)
    expected = [bits(c) for c in reference_columns(serializer, page)]

    def record_loop(*args):
        raise AssertionError("the record loop ran")

    monkeypatch.setattr(RecordSerializer, "_decode_slots", record_loop)
    columns = serializer.decode_page(page.buffer, PAGE_SIZE)
    assert [bits(c) for c in columns] == expected
    for field, column in zip(serializer.schema.fields, columns):
        assert vector.is_typed(column) == (
            vector.typecode_for(field.dtype) is not None
        )


def test_a_page_with_a_null_takes_the_record_loop(loop_calls):
    fields, records = _VAR_CASES[0]
    serializer = RecordSerializer(Schema.of(*fields))
    for null_at in range(3):
        record = tuple(None if i == null_at else v
                       for i, v in enumerate(records[5]))
        page = insert_all(serializer, records[:5] + [record])[0]
        assert_decodes_like_reference(serializer, page)
    assert loop_calls


def _var_page():
    fields, records = _VAR_CASES[0]
    serializer = RecordSerializer(Schema.of(*fields))
    return serializer, insert_all(serializer, records[:10])[0]


@pytest.mark.parametrize(
    "offset, length",
    [
        (PAGE_SIZE - 4, 17),  # runs off the end of the page
        (4, 17),  # lands inside the page header
        (SLOTTED_HEADER_SIZE, 900),  # longer than the heap
    ],
)
def test_a_damaged_var_page_raises_from_the_record_loop(
    offset, length, loop_calls
):
    serializer, page = _var_page()
    _set_slot(page, 3, offset, length)
    with pytest.raises(PageError):
        serializer.decode_page(page.buffer, PAGE_SIZE)
    assert loop_calls


@pytest.mark.parametrize("cut", [1, 1 + 2 * 8 + 2, 1 + 2 * 8 + 4])
def test_a_truncated_var_record_raises_from_the_record_loop(cut, loop_calls):
    """A slot too short for the record's head, its length word or its
    payload: the loop's ``SerializationError``, whichever comes first."""
    serializer, page = _var_page()
    offset, _ = struct.unpack_from("<II", page.buffer, PAGE_SIZE - 4 * 8)
    _set_slot(page, 3, offset, cut)
    with pytest.raises(SerializationError):
        serializer.decode_page(page.buffer, PAGE_SIZE)
    assert loop_calls


def test_invalid_utf8_raises_from_the_record_loop(loop_calls):
    serializer, page = _var_page()
    offset, _ = struct.unpack_from("<II", page.buffer, PAGE_SIZE - 4 * 8)
    page.buffer[offset + 1 + 2 * 8 + 4] = 0xFF  # the name's first byte
    with pytest.raises(UnicodeDecodeError):
        serializer.decode_page(page.buffer, PAGE_SIZE)
    assert loop_calls


# ---------------------------------------------------------------------------
# readers built on the kernel
# ---------------------------------------------------------------------------

ROWS_SCHEMA = Schema.of("t:int", "x:float", "g:int")


def _rows(n=900):
    return [(i, (i * 37 % 101) / 8, i % 3) for i in range(n)]


@pytest.mark.parametrize("numpy_on", [True, False])
def test_row_layout_scans_yield_columnar_batches(numpy_on):
    previous = vector.set_numpy_enabled(numpy_on)
    try:
        store = RodentStore(page_size=PAGE_SIZE, pool_capacity=64)
        store.create_table("T", ROWS_SCHEMA, layout="T")
        table = store.load("T", _rows())
        table.insert([(1000 + i, 0.5, 7) for i in range(30)])
        table.flush_inserts()  # an overflow region: row pages too
        model = oracle.Model(ROWS_SCHEMA.names(), _rows())
        model.insert([(1000 + i, 0.5, 7) for i in range(30)])
        predicate = And(Range("t", 100, 1010), Range("g", 1, 7))
        batches = list(table.scan_column_batches(["x", "t"], predicate))
        assert batches and all(b.is_columnar for b in batches)
        got = [row for b in batches for row in b.rows()]
        oracle.check_scan(got, model, ["x", "t"], predicate)
        if numpy_on and vector.numpy_enabled():
            assert all(vector.is_typed(c) for c in batches[0].columns())
    finally:
        vector.set_numpy_enabled(previous)


def test_sorted_range_scan_stops_inside_the_page():
    store = RodentStore(page_size=PAGE_SIZE, pool_capacity=64)
    store.create_table("T", ROWS_SCHEMA, layout="orderby[t](T)")
    table = store.load("T", _rows())
    model = oracle.Model(ROWS_SCHEMA.names(), _rows(), "orderby[t](T)")
    for lo, hi in [(0, 0), (5, 5), (17, 430), (880, 2000), (-9, -1), (899, 899)]:
        predicate = Range("t", lo, hi)
        got = oracle.check_table(table, model, predicate=predicate)
        assert got == [r for r in _rows() if lo <= r[0] <= hi]


# ---------------------------------------------------------------------------
# partition-pruned rewrites
# ---------------------------------------------------------------------------


def _partitioned():
    store = RodentStore(page_size=PAGE_SIZE, pool_capacity=64)
    store.create_table("T", ROWS_SCHEMA, layout="partition[r.g](T)")
    return store, store.load("T", _rows())


def _page_ids(table) -> dict:
    return {region.key: list(region.main.layout.page_ids())
            for region in table.partitions}


def test_update_and_delete_rewrite_only_reachable_partitions():
    """An update or a delete renders nothing: no partition's pages change,
    and each reads just the pages a scan of its predicate reads, in the
    one partition it can reach."""
    store, table = _partitioned()
    model = _rows()
    before = _page_ids(table)
    pages = sum(map(len, before.values()))

    def fetches() -> int:
        return store.obs["buffer_pool.hits"] + store.obs["buffer_pool.misses"]

    hit = And(Range("g", 1, 1), Range("t", 100, 130))
    scanned, reads = pages - table.pruned_pages(hit), fetches()
    assert table.update({"x": 9.25}, hit) == 11
    reads = fetches() - reads
    model = [r for r in model if not (r[2] == 1 and 100 <= r[0] <= 130)] + [
        (t, 9.25, g) for t, x, g in model if g == 1 and 100 <= t <= 130
    ]
    assert _page_ids(table) == before
    # Only partition g=1 was even read, and only what a scan reads there.
    assert 0 < reads == scanned < len(before[1])

    hit = And(Range("g", 2, 2), Range("t", 0, 50))
    scanned, reads = pages - table.pruned_pages(hit), fetches()
    assert table.delete(hit) == 17
    reads = fetches() - reads
    model = [r for r in model if not (r[2] == 2 and r[0] <= 50)]
    assert _page_ids(table) == before
    assert 0 < reads == scanned < len(before[2])
    assert sorted(table.scan()) == sorted(model)


def test_rewrite_matching_nothing_renders_nothing():
    store, table = _partitioned()
    before = _page_ids(table)
    writes = store.obs["disk.page_writes"]
    assert table.delete(And(Range("g", 0, 0), Range("t", 5000, 6000))) == 0
    assert table.update({"x": 1.0}, Range("t", -10, -1)) == 0
    assert _page_ids(table) == before
    assert store.obs["disk.page_writes"] == writes


def test_rewrite_sees_pending_and_overflow_rows_of_its_partition():
    store, table = _partitioned()
    table.insert([(2000, 0.0, 1), (2001, 0.0, 2)])
    table.flush_inserts()
    table.insert([(2002, 0.0, 1)])
    assert table.update({"x": 3.5}, And(Range("g", 1, 1), Range("t", 2000, 2002))) == 2
    assert sorted(table.scan(predicate=Range("t", 2000, 2002))) == [
        (2000, 3.5, 1), (2001, 0.0, 2), (2002, 3.5, 1),
    ]


def test_rewrite_with_unvectorizable_predicate_falls_back_to_matches():
    from repro.query.expressions import Predicate

    class OddT(Predicate):
        def matches(self, record, positions):
            return record[positions["t"]] % 2 == 1

        def fields_used(self):
            return {"t"}

    store, table = _partitioned()
    assert table.delete(OddT()) == 450
    assert sorted(table.scan()) == [r for r in _rows() if r[0] % 2 == 0]
