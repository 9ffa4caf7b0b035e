"""Vectorized execution core: typed buffers, selections, vector paths.

Edge cases the differential fuzz suite is unlikely to hit by chance:

* codec round trips on empty pages, single values, single-value runs and
  mixed-sign integers (``test_compression.CODEC_CASES``), numpy present
  and absent (``repro.vector`` falls back to stdlib ``array`` — same
  values, only the container changes);
* all-null columns (only representable through ``RecordSerializer`` null
  bitmaps; single-field vector chunks reject ``None`` outright);
* ``ColumnBatch`` selection semantics (select/project/head), and that a
  selection resolves to a compress per column on every vector shape;
* ``Predicate.filter_vector`` ≡ compiled closure through
  ``expressions.selector``, including the cases the vector path must
  *decline* (huge ints), and wrapped scalar conditions that must raise
  exactly where the bare condition does;
* whole-pipeline answers against the naive model (``tests/oracle.py``)
  under the ``RodentStore(batch_rows=...)`` knob and with numpy absent.
"""

from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from test_compression import (
    NUMPY_LEGS,
    codec_case_params,
    numpy_set,
    round_trip,
)
from repro import vector
from repro.algebra.parser import parse_condition
from repro.compression import get_codec
from repro.compression.base import CodecError
from repro.engine.database import RodentStore
from repro.errors import SerializationError, StorageError
from repro.query.executor import Aggregate, QuerySpec, execute
from repro.query.expressions import (
    And,
    Not,
    Or,
    Range,
    Rect,
    from_scalar,
    selector,
)
from repro.query.plan import JoinClause
from repro.storage.serializer import RecordSerializer, VectorSerializer
from repro.types import Schema
from repro.types.types import INT


# ---------------------------------------------------------------------------
# Codec round trips: the fixed cases, numpy on and off


@pytest.mark.parametrize("codec_name,dtype,values", codec_case_params())
def test_codec_decode_paths_agree(codec_name, dtype, values):
    """``decode`` and the run entry point give back the encoded values."""
    round_trip(codec_name, dtype, values, legs=NUMPY_LEGS[:1])


@pytest.mark.parametrize("codec_name,dtype,values", codec_case_params())
def test_codec_decode_buffer_numpy_absent_parity(codec_name, dtype, values):
    """The same values with numpy switched off, in a non-numpy container."""
    round_trip(codec_name, dtype, values, legs=(False,))


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
    for value in vector.to_list(codec.decode(data, INT)):
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


def _select_mask(data, n: int):
    """A mask over ``n`` rows — all true, all false or random — as a list,
    and as the shape ``select`` gets: an ndarray or the list itself."""
    kind = data.draw(st.sampled_from(("all", "none", "random")))
    if kind == "random":
        mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        mask = [kind == "all"] * n
    if vector.numpy_enabled() and data.draw(st.booleans()):
        return mask, vector.numpy_module().asarray(mask, dtype=bool)
    return mask, mask


@pytest.mark.parametrize("numpy_on", NUMPY_LEGS)
@pytest.mark.parametrize("shape", ["typed", "lists", "mixed"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_select_then_columns_is_a_compress_per_column(numpy_on, shape, data):
    """``select(mask).columns()`` gathers every column by position: the
    same values as compressing each column by the mask, typed columns
    staying typed under numpy — also for a select on an already-selected
    batch, resolved in between or not."""
    with numpy_set(numpy_on):
        n = data.draw(st.integers(0, 40))
        ints = data.draw(st.lists(
            st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n))
        floats = data.draw(st.lists(
            st.floats(allow_nan=False), min_size=n, max_size=n))
        texts = data.draw(st.lists(st.text(max_size=3), min_size=n, max_size=n))
        columns = {
            "typed": [vector.from_values(ints, "q"), vector.from_values(floats, "d")],
            "lists": [ints, texts],
            "mixed": [vector.from_values(ints, "q"), texts, floats],
        }[shape]
        batch = ColumnBatch.from_columns(tuple("abc")[: len(columns)], columns)
        expected = [list(vector.to_list(c)) for c in columns]
        for _ in range(2):
            plain, mask = _select_mask(data, batch.n_rows)
            batch = batch.select(mask)
            expected = [list(compress(c, plain)) for c in expected]
            assert batch.n_rows == sum(plain)
            if data.draw(st.booleans()):
                got = batch.columns()
                assert [list(vector.to_list(c)) for c in got] == expected
        got = batch.columns()
        assert [list(vector.to_list(c)) for c in got] == expected
        if batch.n_rows:
            for before, after in zip(columns, got):
                if vector.as_ndarray(before) is not None and numpy_on:
                    assert vector.as_ndarray(after) is not None


def test_column_batch_from_rows_is_row_backed():
    batch = ColumnBatch.from_rows(("a",), [(1,), (2,)])
    assert not batch.is_columnar
    assert batch.rows() == [(1,), (2,)]


# ---------------------------------------------------------------------------
# Predicate.filter_vector ≡ compiled closure, through the one selector


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


def _selected(predicate, columns):
    """The selector's verdicts on one columnar batch of ``columns``."""
    fields = tuple(columns)
    batch = ColumnBatch.from_columns(fields, [columns[f] for f in fields])
    keep = selector(predicate, {f: i for i, f in enumerate(fields)})
    return [bool(v) for v in vector.to_list(keep(batch))]


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
    assert _selected(predicate, columns) == expected
    bitmap = predicate.filter_vector(columns, n)
    if bitmap is not None:
        assert [bool(v) for v in vector.to_list(bitmap)] == expected


def test_filter_vector_agrees_on_plain_lists():
    """Row-backed batches hand plain lists to the predicate layer."""
    columns = {"a": list(range(-3, 12)), "b": [i * 0.5 for i in range(15)]}
    predicate = And(Range("a", 0, 9), Range("b", 1.0, 5.0))
    expected = [0 <= a <= 9 and 1.0 <= b <= 5.0
                for a, b in zip(columns["a"], columns["b"])]
    assert _selected(predicate, columns) == expected
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
    assert _selected(predicate, columns) == [True] * 3


# ---------------------------------------------------------------------------
# A wrapped scalar condition raises exactly where the bare one does


#: ``(6, 0)`` divides by zero; every other row decides normally.
SCALAR_ROWS = [(1, 1), (6, 0), (8, 2), (9, 3), (4, 4), (7, 2)]


def _condition(text):
    return from_scalar(parse_condition(text))


#: name -> (bare condition, the same condition wrapped)
WRAPPED = {
    "and_range_div": ("a / b > 1", lambda c: And(Range("a", 0, 100), c)),
    "not_mod": ("a % b = 0", Not),
}


@pytest.mark.parametrize("numpy_on", NUMPY_LEGS)
@pytest.mark.parametrize("layout", ["T", "columns(T)"])
@pytest.mark.parametrize("name", sorted(WRAPPED))
def test_wrapped_scalar_condition_raises_like_the_bare_one(
    name, layout, numpy_on
):
    text, wrap = WRAPPED[name]
    with numpy_set(numpy_on):
        store = RodentStore(page_size=1024, pool_capacity=32)
        store.create_table("T", Schema.of("a:int", "b:int"), layout=layout)
        table = store.load("T", SCALAR_ROWS)
        for predicate in (_condition(text), wrap(_condition(text))):
            with pytest.raises(ZeroDivisionError):
                list(table.scan(predicate=predicate))
        # Without the zero divisor the wrapped predicate answers the model's.
        assert table.delete(Range("b", 0, 0)) == 1
        model = oracle.Model(
            ["a", "b"], [r for r in SCALAR_ROWS if r[1]], layout
        )
        oracle.check_table(table, model, None, wrap(_condition(text)))


@pytest.mark.parametrize("layout", ["T", "columns(T)"])
def test_valued_condition_selects_by_its_truth(layout):
    """``a % 4`` keeps the rows where it is non-zero: a mask of values
    must count its rows the way it selects them (here the values 1, 2, 0
    add up to the batch's three rows)."""
    rows = [(1, 1), (2, 1), (4, 1)]
    store = RodentStore(page_size=1024, pool_capacity=32)
    store.create_table("T", Schema.of("a:int", "b:int"), layout=layout)
    table = store.load("T", rows)
    model = oracle.Model(["a", "b"], rows, layout)
    oracle.check_table(table, model, None, _condition("a % 4"))


@pytest.mark.parametrize("numpy_on", NUMPY_LEGS)
@pytest.mark.parametrize("layout", ["T", "columns(T)"])
@pytest.mark.parametrize("name", sorted(WRAPPED))
def test_wrapped_scalar_residual_above_a_join(name, layout, numpy_on):
    """The same conditions over a join's output: a ``FilterOp`` residual,
    through the scans' selector."""
    text, wrap = WRAPPED[name]
    left = [(1, 1), (6, 2), (8, 3), (9, 4)]  # (a, k)
    right = [(1, 1), (2, 0), (3, 2), (4, 3)]  # (k, b): k = 2 carries b = 0
    with numpy_set(numpy_on):
        store = RodentStore(page_size=1024, pool_capacity=32)
        store.create_table("T", Schema.of("a:int", "k:int"), layout=layout)
        store.create_table(
            "D", Schema.of("k:int", "b:int"), layout=layout.replace("T", "D")
        )
        store.load("T", left)
        store.load("D", right)

        def answer(predicate):
            spec = QuerySpec(
                table="T", joins=(JoinClause("D", (("k", "k"),)),),
                predicate=predicate,
            )
            return execute(store.table("T"), spec)

        for predicate in (_condition(text), wrap(_condition(text))):
            with pytest.raises(ZeroDivisionError):
                answer(predicate)
        store.table("D").delete(Range("b", 0, 0))
        joined = oracle.join(left, [r for r in right if r[1]], [(1, 0)])
        positions = {"a": 0, "k": 1, "D.k": 2, "b": 3}
        predicate = wrap(_condition(text))
        assert answer(predicate) == [
            r for r in joined if oracle.matches(predicate, r, positions)
        ]


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
