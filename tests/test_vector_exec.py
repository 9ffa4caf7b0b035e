"""Vectorized execution core: typed buffers, selection bitmaps, vector paths.

Edge cases the differential fuzz suite is unlikely to hit by chance:

* codec ``decode_buffer``/``decode_all``/``decode`` agreement on empty
  pages, single values, single-value runs, and mixed-sign integers;
* numpy-present vs numpy-absent parity (``repro.vector`` falls back to
  stdlib ``array`` — same values, only the container changes);
* all-null columns (only representable through ``RecordSerializer`` null
  bitmaps; single-field vector chunks reject ``None`` outright);
* ``ColumnBatch`` selection-bitmap semantics (select/project/head);
* ``Predicate.filter_vector`` ≡ ``filter_batch`` ≡ compiled closure,
  including the cases the vector path must *decline* (huge ints);
* whole-pipeline answers against the naive model (``tests/oracle.py``)
  under the ``RodentStore(batch_rows=...)`` knob and with numpy absent.
"""

import math

import pytest

import oracle
from repro import vector
from repro.compression import get_codec
from repro.compression.base import CodecError
from repro.engine.database import RodentStore
from repro.errors import SerializationError, StorageError
from repro.query.executor import Aggregate, QuerySpec, execute
from repro.query.expressions import And, Not, Or, Range, Rect
from repro.query.plan import JoinClause
from repro.storage.serializer import RecordSerializer, VectorSerializer
from repro.types import Schema
from repro.types.types import FLOAT, INT, STRING


# ---------------------------------------------------------------------------
# Codec decode paths: decode == decode_all == decode_buffer (as values)


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

#: codec name -> (dtype, cases valid for that codec)
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


def _codec_case_params():
    for codec_name, (dtype, cases) in CODEC_CASES.items():
        for case_name, values in cases.items():
            yield pytest.param(
                codec_name, dtype, values, id=f"{codec_name}-{case_name}"
            )


@pytest.mark.parametrize("codec_name,dtype,values", _codec_case_params())
def test_codec_decode_paths_agree(codec_name, dtype, values):
    codec = get_codec(codec_name)
    data = codec.encode(values, dtype)
    reference = codec.decode(data, dtype)
    assert reference == values
    assert codec.decode_all(data, dtype) == values
    assert vector.to_list(codec.decode_buffer(data, dtype)) == values


@pytest.mark.parametrize("codec_name,dtype,values", _codec_case_params())
def test_codec_decode_buffer_numpy_absent_parity(codec_name, dtype, values):
    """decode_buffer is behavior-identical with numpy switched off."""
    codec = get_codec(codec_name)
    data = codec.encode(values, dtype)
    with_numpy = vector.to_list(codec.decode_buffer(data, dtype))
    prev = vector.set_numpy_enabled(False)
    try:
        fallback = codec.decode_buffer(data, dtype)
        np = vector.numpy_module()
        if np is not None:
            assert not isinstance(fallback, np.ndarray)
        assert vector.to_list(fallback) == with_numpy == values
    finally:
        vector.set_numpy_enabled(prev)


def test_bitpack_rejects_negative_values():
    with pytest.raises(CodecError):
        get_codec("bitpack").encode([3, -1, 5], INT)


def test_xor_rejects_integer_dtype():
    with pytest.raises(CodecError):
        get_codec("xor").encode([1.0, 2.0], INT)


def test_decoded_values_are_native_python():
    """numpy scalars must never leak out of the typed-buffer paths."""
    codec = get_codec("delta")
    data = codec.encode([5, 6, 7], INT)
    for value in vector.to_list(codec.decode_buffer(data, INT)):
        assert type(value) is int


# ---------------------------------------------------------------------------
# Nulls: vector chunks refuse them; record null bitmaps carry them.


def test_vector_serializer_has_no_null_path():
    with pytest.raises(SerializationError):
        VectorSerializer(INT).encode([1, None, 3])


def _page_roundtrip(ser: RecordSerializer, records: list) -> list:
    page, count = ser.encode_page(records, 0, 4096)
    assert count == len(records)
    columns = ser.decode_page(page.buffer, 4096)
    return list(zip(*map(vector.to_list, columns)))


def test_record_serializer_all_null_column_roundtrip():
    schema = Schema.of("a:int", "b:float", "c:string")
    ser = RecordSerializer(schema)
    records = [(None, None, None) for _ in range(17)]
    blobs = [ser.encode(r) for r in records]
    assert [ser.decode(b) for b in blobs] == records
    assert _page_roundtrip(ser, records) == records


def test_record_serializer_mixed_null_column_roundtrip():
    schema = Schema.of("a:int", "b:float")
    ser = RecordSerializer(schema)
    records = [
        (i if i % 3 else None, None if i % 2 else i * 0.5) for i in range(40)
    ]
    assert _page_roundtrip(ser, records) == records


# ---------------------------------------------------------------------------
# ColumnBatch selection semantics


from repro.layout.renderer import ColumnBatch  # noqa: E402


def _typed_batch():
    cols = [
        vector.from_values(list(range(10)), "q"),
        vector.from_values([i * 0.5 for i in range(10)], "d"),
    ]
    return ColumnBatch.from_columns(("a", "b"), cols)


def test_column_batch_select_then_resolve():
    batch = _typed_batch()
    mask = [i % 2 == 0 for i in range(10)]
    selected = batch.select(mask)
    assert selected.n_rows == 5
    assert selected.rows() == [(i, i * 0.5) for i in range(0, 10, 2)]
    # the parent batch is untouched
    assert batch.n_rows == 10 and len(batch.rows()) == 10


def test_column_batch_selection_rides_through_projection():
    batch = _typed_batch().select([i >= 7 for i in range(10)])
    projected = batch.project_columns([1], ("b",))
    assert projected.fields == ("b",)
    assert projected.rows() == [(7 * 0.5,), (8 * 0.5,), (9 * 0.5,)]


def test_column_batch_head_after_selection():
    batch = _typed_batch().select([i % 3 == 0 for i in range(10)])
    assert batch.head(2).rows() == [(0, 0.0), (3, 1.5)]
    assert batch.head(99) is batch


def test_column_batch_empty_selection():
    batch = _typed_batch().select([False] * 10)
    assert batch.n_rows == 0
    assert batch.rows() == []
    assert list(batch.iter_rows()) == []


def test_column_batch_iter_rows_matches_rows():
    batch = _typed_batch().select([i in (1, 4, 9) for i in range(10)])
    assert list(batch.iter_rows()) == batch.rows()
    assert list(batch.column_map()) == ["a", "b"]
    assert vector.to_list(batch.column_map()["a"]) == [1, 4, 9]


def test_column_batch_from_rows_is_row_backed():
    batch = ColumnBatch.from_rows(("a",), [(1,), (2,)])
    assert not batch.is_columnar
    assert batch.rows() == [(1,), (2,)]


# ---------------------------------------------------------------------------
# Predicate.filter_vector ≡ filter_batch ≡ compiled closure


PREDICATES = [
    Range("a", 2, 7),
    Range("a", hi=4),
    Range("a", lo=5),
    Range("a", 2.5, 6.5),  # float bounds over an int column
    Rect({"a": (1, 8), "b": (0.5, 3.0)}),
    And(Range("a", 0, 9), Not(Range("a", 3, 5))),
    Or(Range("a", -100, 1), Range("b", 4.0, 100.0)),
    Not(Or(Range("a", 0, 2), Range("a", 8, 100))),
]


def _predicate_columns():
    a = list(range(-3, 12))
    b = [i * 0.5 for i in range(len(a))]
    return {"a": vector.from_values(a, "q"), "b": vector.from_values(b, "d")}


@pytest.mark.parametrize(
    "predicate", PREDICATES, ids=[repr(p) for p in PREDICATES]
)
def test_filter_vector_matches_row_paths(predicate):
    columns = _predicate_columns()
    n = len(vector.to_list(columns["a"]))
    used = sorted(predicate.fields_used())
    fn = predicate.compile({name: i for i, name in enumerate(used)})
    expected = [
        bool(fn(record))
        for record in zip(*(vector.to_list(columns[f]) for f in used))
    ]
    batch_mask = [bool(v) for v in predicate.filter_batch(columns, n)]
    assert batch_mask == expected
    bitmap = predicate.filter_vector(columns, n)
    if bitmap is not None:
        assert [bool(v) for v in vector.to_list(bitmap)] == expected


def test_filter_vector_agrees_on_plain_lists():
    """Row-backed batches hand plain lists to the predicate layer."""
    columns = {"a": list(range(-3, 12)), "b": [i * 0.5 for i in range(15)]}
    predicate = And(Range("a", 0, 9), Range("b", 1.0, 5.0))
    expected = [bool(v) for v in predicate.filter_batch(columns, 15)]
    bitmap = predicate.filter_vector(columns, 15)
    if bitmap is not None:
        assert [bool(v) for v in vector.to_list(bitmap)] == expected


def test_filter_vector_huge_bounds_stay_correct():
    """Bounds beyond int64 must either decline or stay exact."""
    columns = {"a": vector.from_values([0, 2**62, -(2**62)], "q")}
    predicate = Range("a", -(2**70), 2**70)
    bitmap = predicate.filter_vector(columns, 3)
    if bitmap is not None:
        assert [bool(v) for v in vector.to_list(bitmap)] == [True] * 3
    assert [bool(v) for v in predicate.filter_batch(columns, 3)] == [True] * 3


# ---------------------------------------------------------------------------
# Whole-pipeline answers: batch_rows knob, numpy absent


SCHEMA = Schema.of("t:int", "x:int", "y:float", "g:int")
DIM_SCHEMA = Schema.of("g:int", "label:string")


def _records(n=500):
    return [
        (i, (i * 7) % 53 - 26, ((i * 13) % 89) * 0.25, i % 5)
        for i in range(n)
    ]


def _build_store(**kwargs):
    store = RodentStore(page_size=2048, pool_capacity=128, **kwargs)
    store.create_table("T", SCHEMA, layout="columns(T)")
    store.create_table("G", SCHEMA, layout="columns[[t, g], [x, y]](G)")
    store.create_table("D", DIM_SCHEMA, layout="D")
    store.load("T", _records())
    store.load("G", _records())
    store.load("D", [(i, f"group-{i}") for i in range(5)])
    return store


QUERIES = [
    QuerySpec(table="T"),
    QuerySpec(table="T", fieldlist=("x", "t"), predicate=Range("x", 0, 20)),
    QuerySpec(table="T", predicate=Range("y", 2.5, 11.0), limit=17),
    QuerySpec(
        table="T",
        group_by=("g",),
        aggregates=(
            Aggregate("count"),
            Aggregate("sum", "x"),
            Aggregate("sum", "y"),
            Aggregate("min", "x"),
            Aggregate("max", "y"),
            Aggregate("avg", "x"),
        ),
    ),
    QuerySpec(
        table="T",
        group_by=("g", "x"),
        aggregates=(Aggregate("count"), Aggregate("sum", "t")),
        predicate=Range("t", 10, 400),
    ),
    QuerySpec(
        table="T",
        aggregates=(Aggregate("sum", "x"), Aggregate("avg", "y")),
    ),
    QuerySpec(  # no input rows: still one row, from both fold paths
        table="T",
        predicate=Range("t", 10**6, 10**6 + 1),
        aggregates=(Aggregate("count"), Aggregate("sum", "x"), Aggregate("min", "y")),
    ),
    QuerySpec(
        table="T",
        fieldlist=("t", "x", "label"),
        joins=(JoinClause("D", (("g", "g"),)),),
        predicate=Range("t", 0, 99),
    ),
]


def _check_against_model(store):
    """Every table's scan, and each query's answer, against the model."""
    models = {
        "T": oracle.Model(SCHEMA.names(), _records(), "columns(T)"),
        "G": oracle.Model(SCHEMA.names(), _records(), "columns[[t, g], [x, y]](G)"),
    }
    for name, model in models.items():
        table = store.table(name)
        oracle.check_table(table, model)
        oracle.check_table(table, model, ["x", "t"], Range("x", 0, 20))
        oracle.check_table(table, model, None, Range("y", 2.5, 11.0), limit=17)
    for spec in QUERIES:
        assert execute(store.table("T"), spec) == _model_answer(spec), spec


def _model_answer(spec):
    """``spec`` over the loaded rows. No query in QUERIES orders and only a
    plain scan limits, so load order is every answer's order."""
    names = list(SCHEMA.names())
    positions = {n: i for i, n in enumerate(names)}
    rows = [r for r in _records() if oracle.matches(spec.predicate, r, positions)]
    if spec.joins:  # the one join: D on g
        dim = [(i, f"group-{i}") for i in range(5)]
        rows = oracle.join(rows, dim, [(names.index("g"), 0)])
        names += ["D.g", "label"]
    if spec.aggregates:
        return oracle.group(
            rows, names, spec.group_by,
            [(a.func, a.source) for a in spec.aggregates],
        )
    rows = rows[: spec.limit]
    return oracle.project(rows, names, spec.fieldlist or names[:4])


@pytest.mark.parametrize("batch_rows", [1, 7, 256, 100_000])
def test_batch_rows_knob_preserves_scans(batch_rows):
    _check_against_model(_build_store(batch_rows=batch_rows))


def test_batch_rows_must_be_positive():
    with pytest.raises(StorageError):
        RodentStore(batch_rows=0)


def test_pipeline_numpy_absent_parity():
    """The whole stack answers the model's answers with numpy unavailable."""
    prev = vector.set_numpy_enabled(False)
    try:
        _check_against_model(_build_store())
    finally:
        vector.set_numpy_enabled(prev)


class _StubOp:
    """A leaf operator replaying fixed batches (for operator-level tests)."""

    est_rows = 0.0

    def __init__(self, fields, batches):
        self.fields = tuple(fields)
        self._batches = list(batches)

    def batches(self):
        return iter(self._batches)


def _group_op(batches, keys, aggregates):
    from repro.query.operators import GroupByOp

    return GroupByOp(_StubOp(("g", "v"), batches), keys, aggregates)


def test_group_by_non_finite_floats_match_row_path():
    """NaN/inf in a measure column must not change aggregate answers."""
    values = [1.0, float("nan"), 2.5, float("inf"), -3.25, 4.0,
              float("nan"), 0.5]
    cols = [
        vector.from_values([i % 3 for i in range(len(values))], "q"),
        vector.from_values(values, "d"),
    ]
    aggs = (Aggregate("count"), Aggregate("sum", "v"), Aggregate("min", "v"))

    columnar = _group_op(
        [ColumnBatch.from_columns(("g", "v"), cols)], ("g",), aggs
    ).rows()
    rowwise = _group_op(
        [ColumnBatch.from_rows(
            ("g", "v"), list(zip(vector.to_list(cols[0]), values))
        )],
        ("g",),
        aggs,
    ).rows()
    assert len(columnar) == len(rowwise) == 3
    for a, b in zip(columnar, rowwise):
        assert repr(a) == repr(b)  # NaN-safe comparison


def test_group_by_vector_path_matches_rows_on_clean_floats():
    n = 200
    g = [i % 7 for i in range(n)]
    v = [((i * 31) % 97) * 0.125 - 3.0 for i in range(n)]
    cols = [vector.from_values(g, "q"), vector.from_values(v, "d")]
    aggs = (
        Aggregate("count"),
        Aggregate("sum", "v"),
        Aggregate("avg", "v"),
        Aggregate("min", "v"),
        Aggregate("max", "v"),
    )
    columnar = _group_op(
        [ColumnBatch.from_columns(("g", "v"), cols)], ("g",), aggs
    ).rows()
    rowwise = _group_op(
        [ColumnBatch.from_rows(("g", "v"), list(zip(g, v)))], ("g",), aggs
    ).rows()
    # bit-for-bit, including float rounding and first-seen group order
    assert repr(columnar) == repr(rowwise)
