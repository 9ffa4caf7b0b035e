"""Plan-based query stack: planner-vs-model equivalence + join oracle.

Two safety nets for the query compiler (QuerySpec → logical plan →
physical operators):

* an **equivalence sweep**: for every layout kind the renderer supports,
  planner-executed results must match a naive evaluation by the model's
  operators (``tests/oracle.py``) over the table's scan — itself checked
  against the model of the loaded rows — for projection / predicate /
  order / limit / aggregation combinations;
* a **join oracle**: hash-join results must equal a nested-loop join over
  the loaded rows, including multi-key joins, collision-qualified columns,
  join reordering, and SQL null-key semantics.

Also here: the `order_by` single-prefix fix, `count(field)` null
semantics, and `explain()` plan-tree rendering.
"""

import pytest

import oracle
from repro.engine.database import RodentStore
from repro.errors import QueryError
from repro.query import Q, QuerySpec, Range, Rect
from repro.query.executor import Aggregate, execute
from repro.query.expressions import And, Or
from repro.optimizer.cost_model import sort_cpu_ms
from repro.query.operators import (
    GroupByOp,
    HashJoinOp,
    LimitOp,
    RowsOp,
    SortOp,
    TableScanOp,
)
from repro.types import Schema

SCHEMA = Schema.of("t:int", "x:int", "y:int", "g:int")

#: Every layout kind the renderer supports (mirrors tests/test_batch_scan).
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
    return [(i, (i * 7) % 53 - 26, (i * i) % 41, i % 5) for i in range(n)]


@pytest.fixture(scope="module")
def tables():
    out = {}
    for name, layout in LAYOUTS.items():
        store = RodentStore(page_size=1024, pool_capacity=64)
        store.create_table("T", SCHEMA, layout=layout)
        out[name] = (store, store.load("T", make_records()))
    return out


# ---------------------------------------------------------------------------
# reference evaluation: the model's operators (tests/oracle.py)
# ---------------------------------------------------------------------------


def model_of(table, records=None):
    """The model of ``table`` loaded with ``records`` (its design's)."""
    records = make_records() if records is None else records
    model = oracle.Model(SCHEMA.names(), records, table.plan.expr.to_text())
    assert model.fields == tuple(table.scan_schema().names())
    return model


def reference_eval(table, spec, model=None):
    """``spec`` evaluated naively over the table's scan rows, after
    checking the scan against the model (group order is first-seen, so it
    follows the scan's row order)."""
    model = model_of(table) if model is None else model
    names = list(model.fields)
    rows = oracle.check_table(table, model)
    pos = {n: i for i, n in enumerate(names)}
    rows = [r for r in rows if oracle.matches(spec.predicate, r, pos)]
    limit = None if spec.limit is None else max(0, spec.limit)
    if spec.aggregates:
        out = oracle.group(
            rows, names, spec.group_by,
            [(a.func, a.source) for a in spec.aggregates],
        )
        out_names = list(spec.group_by) + [
            a.output_name for a in spec.aggregates
        ]
        return oracle.stable_sort(out, out_names, spec.order)[:limit]
    rows = oracle.stable_sort(rows, names, spec.order)[:limit]
    return oracle.project(rows, names, spec.fieldlist or names)


SPECS = {
    "full": QuerySpec(table="T"),
    "project": QuerySpec(table="T", fieldlist=("x",)),
    "project_predicate": QuerySpec(
        table="T", fieldlist=("y", "t"), predicate=Range("x", -10, 10)
    ),
    "rect_order_limit": QuerySpec(
        table="T",
        predicate=Rect({"x": (-5, 20), "y": (0, 30)}),
        order=(("t", False),),
        limit=17,
    ),
    "or_multisort": QuerySpec(
        table="T",
        predicate=Or(Range("x", -26, -10), Range("y", 0, 5)),
        order=(("x", True), ("t", False)),
    ),
    "group_all_aggs": QuerySpec(
        table="T",
        group_by=("g",),
        aggregates=(
            Aggregate("count", None, "n"),
            Aggregate("sum", "x", "sx"),
            Aggregate("min", "y"),
            Aggregate("max", "t"),
            Aggregate("avg", "x"),
        ),
    ),
    "group_count_field": QuerySpec(
        table="T",
        group_by=("g",),
        aggregates=(Aggregate("count", "x", "nx"),),
        order=(("g", True),),
    ),
    "global_agg": QuerySpec(
        table="T", aggregates=(Aggregate("avg", "y", "my"),)
    ),
    "global_agg_no_rows": QuerySpec(
        table="T",
        predicate=Range("t", 10**6, 10**6 + 1),
        aggregates=(
            Aggregate("count", None, "n"),
            Aggregate("count", "x", "nx"),
            Aggregate("sum", "x", "sx"),
            Aggregate("avg", "y", "my"),
            Aggregate("min", "y"),
            Aggregate("max", "t"),
        ),
    ),
    "group_no_rows": QuerySpec(
        table="T",
        predicate=Range("t", 10**6, 10**6 + 1),
        group_by=("g",),
        aggregates=(Aggregate("count", None, "n"),),
    ),
    "pred_group_order_limit": QuerySpec(
        table="T",
        predicate=Range("t", 50, 150),
        group_by=("g",),
        aggregates=(Aggregate("sum", "t", "st"),),
        order=(("st", False),),
        limit=3,
    ),
}

# order_by + limit directly above a group-by lower to one top-k SortOp;
# every group has the same count, so the answer is all tie order.
SPECS["group_topk_all_ties"] = QuerySpec(
    table="T",
    group_by=("g",),
    aggregates=(Aggregate("count", None, "n"),),
    order=(("n", False),),
    limit=3,
)
SPECS["group_topk_mixed_directions"] = QuerySpec(
    table="T",
    predicate=Range("x", -20, 20),
    group_by=("y",),
    aggregates=(Aggregate("count", None, "n"), Aggregate("max", "t", "mt")),
    order=(("n", False), ("mt", True)),
    limit=9,
)
SPECS["group_topk_limit_beyond_groups"] = QuerySpec(
    table="T",
    group_by=("g",),
    aggregates=(Aggregate("avg", "x", "ax"),),
    order=(("ax", True),),
    limit=500,
)

ARRAY_SPECS = {
    "full": QuerySpec(table="T"),
    "predicate_limit": QuerySpec(
        table="T", predicate=Range("value", 0, 30), limit=40
    ),
    "global_agg": QuerySpec(
        table="T",
        aggregates=(Aggregate("count", None, "n"), Aggregate("sum", "value")),
    ),
    "global_agg_no_rows": QuerySpec(
        table="T",
        predicate=Range("value", 10**6, 10**6 + 1),
        aggregates=(Aggregate("count", None, "n"), Aggregate("sum", "value")),
    ),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_planner_matches_reference(tables, layout):
    _, table = tables[layout]
    specs = ARRAY_SPECS if layout == "array" else SPECS
    for name, spec in specs.items():
        got = execute(table, spec)
        want = reference_eval(table, spec)
        assert got == want, f"layout={layout} spec={name}"


# ---------------------------------------------------------------------------
# joins vs a nested-loop oracle
# ---------------------------------------------------------------------------

DIM_SCHEMA = Schema.of("g:int", "label:int")
DIM = [(i, (i + 1) * 100) for i in range(5)]
CODE_SCHEMA = Schema.of("label:int", "code:int")
CODES = [((i + 1) * 100, i * 7) for i in range(4)]  # label 500 has no code


@pytest.fixture()
def join_store():
    store = RodentStore(page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA)
    store.load("T", make_records())
    store.create_table("D", DIM_SCHEMA)
    store.load("D", DIM)
    store.create_table("E", CODE_SCHEMA)
    store.load("E", CODES)
    return store


def test_join_matches_nested_loop_oracle(join_store):
    got = Q(join_store, "T").join("D", on="g").run()
    t_rows, d_rows = make_records(), DIM
    want = oracle.join(t_rows, d_rows, [(3, 0)])
    assert sorted(got) == sorted(want)
    # Output schema: base fields then joined fields, collisions qualified.
    fields = Q(join_store, "T").join("D", on="g").explain().root.fields
    assert fields == ("t", "x", "y", "g", "D.g", "label")


def test_three_way_join_oracle(join_store):
    got = (
        Q(join_store, "T")
        .join("D", on="g")
        .join("E", on="label")
        .select("t", "label", "code")
        .run()
    )
    t_rows, d_rows, e_rows = make_records(), DIM, CODES
    td = oracle.join(t_rows, d_rows, [(3, 0)])
    tde = oracle.join(td, e_rows, [(5, 0)])
    want = [(r[0], r[5], r[7]) for r in tde]
    assert sorted(got) == sorted(want)


def test_join_with_predicate_pushdown_and_residual(join_store):
    q = (
        Q(join_store, "T")
        .join("D", on="g")
        .where(And(Range("x", -10, 15), Range("D.g", 1, 3)))
    )
    got = q.run()
    t_rows, d_rows = make_records(), DIM
    want = [
        row
        for row in oracle.join(t_rows, d_rows, [(3, 0)])
        if -10 <= row[1] <= 15 and 1 <= row[4] <= 3
    ]
    assert sorted(got) == sorted(want)
    # The x-range pushes into the T scan; the qualified D.g range stays
    # residual (the scan below knows nothing about qualified names).
    text = str(q.explain())
    assert "Filter" in text and "D.g" in text


def test_join_group_by(join_store):
    got = (
        Q(join_store, "T")
        .join("D", on="g")
        .group_by("label")
        .agg(n="*", sx="sum:x")
        .order_by("label")
        .run()
    )
    records = make_records()
    want = []
    for g, label in DIM:
        members = [r for r in records if r[3] == g]
        if members:
            want.append((label, len(members), sum(r[1] for r in members)))
    want.sort()
    assert got == want


def test_join_composite_key(join_store):
    store = join_store
    store.create_table("P", Schema.of("a:int", "b:int", "tag:int"))
    pairs = [(i % 5, i % 3, i) for i in range(15)]
    store.load("P", pairs)
    got = (
        Q(store, "T")
        .join("P", on=[("g", "a"), ("g", "b")])
        .select("t", "tag")
        .run()
    )
    t_rows = make_records()
    want = [
        (t[0], p[2])
        for t in t_rows
        for p in pairs
        if t[3] == p[0] and t[3] == p[1]
    ]
    assert sorted(got) == sorted(want)


def test_join_unknown_key_raises(join_store):
    with pytest.raises(QueryError):
        Q(join_store, "T").join("D", on="nope").run()


def test_join_same_table_twice_raises(join_store):
    with pytest.raises(QueryError):
        Q(join_store, "T").join("D", on="g").join("D", on="g").run()


def test_hash_join_null_keys_never_match():
    left = RowsOp(("a", "k"), [(1, 1), (2, None), (3, 2)])
    right = RowsOp(("k2", "b"), [(1, 10), (None, 20), (2, 30)])
    for build_left in (True, False):
        op = HashJoinOp(left, right, ["k"], ["k2"], build_left=build_left)
        assert sorted(op.rows()) == [(1, 1, 1, 10), (3, 2, 2, 30)]


def test_join_ordering_prefers_small_table():
    store = RodentStore(page_size=1024, pool_capacity=64)
    store.create_table("Big", Schema.of("k:int", "v:int"))
    store.load("Big", [(i % 40, i) for i in range(800)])
    store.create_table("Small", Schema.of("k2:int", "w:int"))
    store.load("Small", [(i, i * 2) for i in range(10)])
    explain = (
        Q(store, "Big").join("Small", on=("k", "k2")).explain()
    )
    joins = [
        op
        for op in _walk(explain.root)
        if isinstance(op, HashJoinOp)
    ]
    assert len(joins) == 1
    # The estimated-smaller side is the hash build side.
    assert joins[0].build_left is False
    assert "build=right" in str(explain)


def test_point_range_join_keys_the_smaller_side():
    """``sales_olap``'s join: ``year = y`` keeps 1/9 of ``Sales``. A point
    range estimated 0 rows at the parent, so the join keyed the filtered
    ``Sales`` side (~2.2k here) instead of the 2 000 ``Customers``; now it
    is ``1 / distinct`` of the table, within 2x of the truth."""
    from repro.workloads.sales import SALES_SCHEMA, generate_sales

    store = RodentStore(page_size=4096, pool_capacity=256)
    store.create_table("Sales", SALES_SCHEMA, layout="columns(Sales)")
    sales = store.load("Sales", generate_sales(20_000, seed=3))
    store.create_table("Customers", Schema.of("customerid:int", "region:int"))
    store.load("Customers", [(c, c % 4) for c in range(2000)])
    year = Range("year", 2004, 2004)
    explain = (
        Q(store, "Sales")
        .where(year)
        .join("Customers", on="customerid")
        .group_by("region")
        .agg(n="*")
        .explain()
    )
    (join,) = [op for op in _walk(explain.root) if isinstance(op, HashJoinOp)]
    assert join.build_left is False and "build=right" in str(explain)
    truth = len(list(sales.scan(predicate=year)))
    assert truth / 2 <= join.left.est_rows <= truth * 2


def _walk(op):
    yield op
    for child in op.inputs():
        yield from _walk(child)


# ---------------------------------------------------------------------------
# satellite fixes: order_by prefix, count(field) nulls
# ---------------------------------------------------------------------------


def test_order_by_strips_single_prefix_only(join_store):
    assert Q(join_store, "T").order_by("-x").spec().order == (("x", False),)
    assert Q(join_store, "T").order_by("--x").spec().order == (("-x", False),)
    assert Q(join_store, "T").order_by("x").spec().order == (("x", True),)


def test_count_field_skips_none_values():
    src = RowsOp(
        ("g", "v"),
        [(1, 10), (1, None), (2, None), (2, None), (1, 5)],
    )
    op = GroupByOp(
        src,
        ("g",),
        (
            Aggregate("count", None, "all_rows"),
            Aggregate("count", "v", "nv"),
            Aggregate("sum", "v", "sv"),
            Aggregate("avg", "v", "av"),
            Aggregate("min", "v", "minv"),
            Aggregate("max", "v", "maxv"),
        ),
    )
    assert sorted(op.rows()) == [
        (1, 3, 2, 15, 7.5, 5, 10),
        (2, 2, 0, None, None, None, None),
    ]


# ---------------------------------------------------------------------------
# explain: plan tree with per-node cost/cardinality
# ---------------------------------------------------------------------------


def test_explain_renders_plan_tree(join_store):
    explain = (
        Q(join_store, "T")
        .join("D", on="g")
        .group_by("label")
        .agg(n="*")
        .explain()
    )
    text = str(explain)
    assert "HashJoin" in text
    assert "GroupBy" in text
    assert "TableScan" in text
    assert "rows≈" in text and "cost≈" in text
    assert explain.pages > 0  # numeric compatibility with the old API
    assert explain.ms > 0
    assert explain.est_rows > 0


def test_explain_reports_index_access_path():
    store = RodentStore(page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA)
    table = store.load("T", make_records())
    table.create_index("t")
    q = Q(store, "T").where(Range("t", 0, 10))
    kind, cost = table.access_path(predicate=Range("t", 0, 10))
    assert kind == "index"
    assert "IndexScan" in str(q.explain())
    # The displayed path matches what the scan actually does.
    assert q.run() == reference_eval(
        table, QuerySpec(table="T", predicate=Range("t", 0, 10))
    )


# ---------------------------------------------------------------------------
# top-k: Limit fused into Sort, ordering costed on the pre-limit rows
# ---------------------------------------------------------------------------


def test_pushed_down_order_limit_is_costed_on_pre_limit_rows(join_store):
    n = len(make_records())
    plain = Q(join_store, "T").explain()
    full = Q(join_store, "T").order_by("-x").explain()
    topk = Q(join_store, "T").order_by("-x").limit(2).explain()
    assert "order=[x desc] limit=2" in str(topk)
    assert topk.est_rows == 2 and full.est_rows == n
    # The runtime orders all 220 rows whatever the limit: one selection
    # pass with a limit, n log n without — never "a sort of 2 rows".
    assert topk.ms - plain.ms == pytest.approx(sort_cpu_ms(n, 2))
    assert full.ms - plain.ms == pytest.approx(sort_cpu_ms(n))
    assert sort_cpu_ms(2) < sort_cpu_ms(n, 2) < sort_cpu_ms(n)


def test_limit_above_sort_fuses_into_one_topk_operator(join_store):
    def grouped():
        return Q(join_store, "T").group_by("g").agg(n="*")

    explain = grouped().order_by("-n", "g").limit(3).explain()
    ops = list(_walk(explain.root))
    assert isinstance(explain.root, SortOp) and explain.root.limit == 3
    assert not any(isinstance(op, LimitOp) for op in ops)
    assert "Sort n desc, g top=3" in str(explain)
    child = explain.root.child
    assert explain.est_rows == 3
    assert explain.ms - child.est_cost.ms == pytest.approx(
        sort_cpu_ms(child.est_rows, 3)
    )
    # Without an order there is nothing to fuse into; without a limit the
    # sort is a full one.
    full = grouped().order_by("-n", "g").explain().root
    assert isinstance(full, SortOp) and full.limit is None
    assert isinstance(grouped().limit(3).explain().root, LimitOp)


TOPK_LAYOUTS = {
    "flat": "columns(T)",
    "partitioned": "partition[r.g](T)",
    "levelled": "levels[2; 2](columns(T))",
}


@pytest.mark.parametrize("kind", sorted(TOPK_LAYOUTS))
def test_topk_above_group_by_and_join(kind):
    """order_by + limit above a group-by and above a join (the fused
    SortOp) on flat, partitioned and levelled tables, with rows still in
    the pending buffer: answers equal the naive evaluation, tie order
    included."""
    store = RodentStore(page_size=1024, pool_capacity=64, level_seal_rows=32)
    store.create_table("T", SCHEMA, layout=TOPK_LAYOUTS[kind])
    records = make_records()
    table = store.load("T", records[:150])
    table.insert(records[150:200])
    table.flush_inserts()
    table.insert(records[200:])
    model = model_of(table, records[:150])
    model.insert(records[150:200])
    model.insert(records[200:])
    store.create_table("D", DIM_SCHEMA)
    store.load("D", DIM + [(2, 999)])  # g=2 joins twice

    for limit in (0, 1, 4, 1000):
        spec = QuerySpec(
            table="T",
            predicate=Range("t", 20, 210),
            group_by=("g",),
            aggregates=(
                Aggregate("count", None, "n"),
                Aggregate("min", "y", "low"),
            ),
            order=(("low", True), ("n", False)),
            limit=limit,
        )
        want = reference_eval(table, spec, model)
        assert execute(table, spec) == want, (kind, limit)

        q = (
            Q(store, "T")
            .join("D", on="g")
            .where(Range("x", -20, 20))
            .select("label", "y", "t")
            .order_by("-label", "y", "-t")
            .limit(limit)
        )
        root = q.explain().root
        assert isinstance(root.child, SortOp) and root.child.limit == limit
        t_rows = [r for r in records if -20 <= r[1] <= 20]
        d_rows = DIM + [(2, 999)]
        joined = [
            (r[5], r[2], r[0]) for r in oracle.join(t_rows, d_rows, [(3, 0)])
        ]
        # (label, y, t) is unique per output row: one right answer.
        want = sorted(joined, key=lambda r: (-r[0], r[1], -r[2]))[:limit]
        assert q.run() == want, (kind, limit)
    store.close()


def test_store_query_convenience(join_store):
    assert join_store.query("T").limit(3).run() == make_records()[:3]
