"""The batch scan against the naive model (``tests/oracle.py``).

The batch scan pipeline (columnar batches, compiled predicates, bulk codec
decode) must be invisible to callers: for every layout kind × projection ×
predicate × order combination, :meth:`Table.scan` returns what the model of
the loaded rows answers — in exactly its order where the design fixes one —
including overflow/pending merging and limit pushdown.

Also here: round-trip properties for every codec and element type it takes
(through ``test_compression.round_trip``).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from test_compression import round_trip
from repro.engine.database import RodentStore
from repro.errors import QueryError
from repro.query.executor import Aggregate, QuerySpec, execute
from repro.query.expressions import And, Not, Or, Range, Rect, from_scalar
from repro.types import Schema
from repro.types.types import FLOAT, INT, STRING

SCHEMA = Schema.of("t:int", "x:int", "y:int", "g:int")

#: Every layout kind the renderer supports: rows, columns (pure + grouped),
#: mirror, grid, folded, array — plus delta/codec-compressed variants.
LAYOUTS = {
    "rows": "T",
    "rows_sorted": "orderby[t](T)",
    "rows_delta": "delta[t](orderby[t](T))",
    "columns": "columns(T)",
    "grouped": "columns[[t, g], [x, y]](T)",
    "columns_lz": "compress[lz](columns(T))",
    "mirror": "mirror(rows(T), columns(T))",
    "grid": "grid[x, y],[25, 25](T)",
    "grid_zorder_delta": (
        "compress[varint; x, y](delta[x, y](zorder(grid[x, y],[25, 25](T))))"
    ),
    "folded": "fold[t, x, y; g](T)",
    "array": "transpose(project[x, y](T))",
}


def make_records(n=220):
    return [
        (i, (i * 7) % 53 - 26, (i * i) % 41, i % 5)
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def tables():
    out = {}
    for name, layout in LAYOUTS.items():
        store = RodentStore(page_size=1024, pool_capacity=64)
        store.create_table("T", SCHEMA, layout=layout)
        table = store.load("T", make_records())
        model = oracle.Model(SCHEMA.names(), make_records(), layout)
        assert model.fields == tuple(table.scan_schema().names())
        out[name] = (model, table)
    return out


def field_cases(table):
    """(fieldlist, predicate, order) combinations valid for this table."""
    names = set(table.scan_schema().names())
    projections = [None]
    predicates = [None]
    orders = [None]
    if {"t", "x", "y", "g"} <= names:
        projections += [["x"], ["y", "t"], ["g", "x", "y", "t"], ["t", "t"]]
        predicates += [
            Range("x", 0, 10),
            Range("t", hi=100),
            Rect({"x": (-5, 15), "y": (3, 30)}),
            And(Range("t", 20, 200), Not(Range("g", 2, 2))),
            Or(Range("x", -30, -10), Range("x", 10, 30)),
        ]
        orders += [["t"], [("x", False), ("t", True)], ["g", "y"]]
    elif names == {"value"}:
        projections += [["value"]]
        predicates += [Range("value", 5, 25)]
        orders += [[("value", False)]]
    return projections, predicates, orders


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_batch_equals_reference(tables, layout):
    model, table = tables[layout]
    projections, predicates, orders = field_cases(table)
    checked = 0
    for fieldlist in projections:
        for predicate in predicates:
            for order in orders:
                oracle.check_table(
                    table, model, fieldlist, predicate, order, context=layout
                )
                checked += 1
    assert checked >= 4


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_limit_pushdown_equals_reference_prefix(tables, layout):
    model, table = tables[layout]
    projections, predicates, orders = field_cases(table)
    predicate = predicates[-1]
    order = orders[-1]
    for limit in (0, 1, 7, 10_000):
        oracle.check_table(
            table, model, None, predicate, order, limit, context=layout
        )


@pytest.mark.parametrize("layout", ["rows", "columns", "grid", "folded"])
def test_batch_equals_reference_with_overflow(layout):
    store = RodentStore(page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA, layout=LAYOUTS[layout])
    table = store.load("T", make_records(150))
    model = oracle.Model(SCHEMA.names(), make_records(150), LAYOUTS[layout])
    overflow = [(1000 + i, i - 3, i, i % 5) for i in range(40)]
    pending = [(2000 + i, -i, 2 * i, i % 5) for i in range(17)]
    table.insert(overflow)
    table.flush_inserts()  # an on-disk overflow region ...
    table.insert(pending)  # ... + pending
    model.insert(overflow + pending)
    for fieldlist in (None, ["x", "t"]):
        for predicate in (None, Range("x", -10, 20)):
            for order in (None, ["t"]):
                oracle.check_table(
                    table, model, fieldlist, predicate, order, context=layout
                )


def test_scan_batches_flattens_to_scan(tables):
    _, table = tables["columns"]
    flattened = [
        row
        for batch in table.scan_batches(["x", "t"], Range("x", 0, 10))
        for row in batch
    ]
    assert flattened == list(table.scan(["x", "t"], Range("x", 0, 10)))


def test_scan_validates_eagerly(tables):
    """Bad fieldlist/predicate/order raise at scan() call time, not on
    first next()."""
    _, table = tables["rows"]
    with pytest.raises(QueryError):
        table.scan(fieldlist=["nope"])
    with pytest.raises(QueryError):
        table.scan(predicate=Range("nope", 0, 1))
    with pytest.raises(QueryError):
        table.scan(order=["nope"])


def test_index_probe_path_equals_reference():
    store = RodentStore(page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA)
    table = store.load("T", make_records(300))
    table.create_index("t")
    predicate = Range("t", 10, 20)
    model = oracle.Model(SCHEMA.names(), make_records(300))
    got = oracle.check_table(table, model, predicate=predicate)
    assert len(got) == 11


def test_scalar_predicate_compiles_and_matches(tables):
    from repro.algebra.parser import parse_condition

    model, table = tables["rows"]
    condition = parse_condition("r.x >= 0 and (r.g = 2 or r.y < 10)")
    predicate = from_scalar(condition)
    got = oracle.check_table(table, model, predicate=predicate)
    assert got  # the condition selects something


def test_grouped_aggregation_over_batches(tables):
    _, table = tables["columns"]
    spec = QuerySpec(
        table="T",
        group_by=("g",),
        aggregates=(
            Aggregate("count"),
            Aggregate("sum", "x"),
            Aggregate("min", "y"),
            Aggregate("max", "y"),
            Aggregate("avg", "t"),
        ),
        predicate=Range("t", 10, 190),
        order=(("g", True),),
    )
    got = execute(table, spec)

    rows = oracle.Model(SCHEMA.names(), make_records()).scan(
        predicate=spec.predicate
    )
    aggregates = [
        ("count", None), ("sum", "x"), ("min", "y"), ("max", "y"), ("avg", "t")
    ]
    grouped = oracle.group(rows, SCHEMA.names(), ["g"], aggregates)
    assert got == sorted(grouped)


def test_aggregation_over_no_rows():
    """SQL: without GROUP BY one row (count 0, the rest NULL); with it,
    no groups."""
    store = RodentStore(page_size=1024, pool_capacity=8)
    store.create_table("T", SCHEMA)
    table = store.load("T", [(0, 0, 0, 0)])
    aggregates = (Aggregate("count"), Aggregate("sum", "x"))
    spec = QuerySpec(
        table="T", aggregates=aggregates, predicate=Range("t", 5, 9)
    )
    assert execute(table, spec) == [(0, None)]
    spec = QuerySpec(
        table="T", aggregates=aggregates, predicate=Range("t", 5, 9),
        group_by=("g",),
    )
    assert execute(table, spec) == []


# ---------------------------------------------------------------------------
# codec round-trips
# ---------------------------------------------------------------------------

ints = st.lists(st.integers(-(2**40), 2**40), max_size=200)
small_ints = st.lists(st.integers(-100, 100), max_size=200)
non_negative = st.lists(st.integers(0, 2**33), max_size=200)
floats = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=64), max_size=200
)
strings = st.lists(st.text(max_size=12), max_size=120)

CODEC_CASES = [
    ("none", ints, INT),
    ("none", floats, FLOAT),
    ("none", strings, STRING),
    ("varint", ints, INT),
    ("delta", ints, INT),
    ("delta", floats, FLOAT),
    ("rle", small_ints, INT),
    ("rle", strings, STRING),
    ("dict", small_ints, INT),
    ("dict", strings, STRING),
    ("bitpack", non_negative, INT),
    ("for", ints, INT),
    ("lz", ints, INT),
    ("lz", strings, STRING),
    ("xor", floats, FLOAT),
]


@pytest.mark.parametrize(
    "codec_name,strategy,dtype",
    CODEC_CASES,
    ids=[f"{c}-{d.name}" for c, _, d in CODEC_CASES],
)
@given(data=st.data())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_decode_all_round_trip(codec_name, strategy, dtype, data):
    round_trip(codec_name, dtype, data.draw(strategy))
