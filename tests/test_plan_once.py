"""Plan once, decide once: the planner's access decision is the scan's.

``Table.scan_access`` (``engine/access.py::decide_scan``) decides a scan node
once — the surviving regions with every run's ``RunAccess``, an index probe
where a run holds a selective index — and ``TableScanOp`` carries that value
to the scan, which reads through it while its pinned snapshot still holds
the very runs (and a probe's index) it was decided on. Pinned here: one
``open_run`` per run, and one index lookup per probed run, per scan node on
every bench layout shape (an earlier engine made every decision twice),
exact answers when the plan goes stale between compile and run, and the
bisect selectivity against the linear walk it replaced.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from repro.engine import access
from repro.engine import table as table_module
from repro.engine.database import RodentStore
from repro.engine.indexes import FieldIndex
from repro.engine.stats import FieldStats, TableStats
from repro.layout.renderer import LayoutRenderer
from repro.query import Q, Range, Rect
from repro.query.planner import compile_query
from repro.types import Schema
from repro.workloads.cartel import BOSTON, TRACE_SCHEMA, generate_traces
from repro.workloads.sales import SALES_SCHEMA, generate_sales
from repro.workloads.timeseries import TIMESERIES_SCHEMA, generate_timeseries

N4 = (
    "compress[varint; lat, lon](delta[lat, lon](zorder("
    "grid[lat, lon],[{lat:g}, {lon:g}]"
    "(project[lat, lon](groupby[id](orderby[t](TracesGrid)))))))"
).format(lat=BOSTON.lat_span / 8, lon=BOSTON.lon_span / 8)


def _square(lat0, lon0, coverage):
    side_lat = int(math.sqrt(coverage) * BOSTON.lat_span)
    side_lon = int(math.sqrt(coverage) * BOSTON.lon_span)
    return Rect(
        {"lat": (lat0, lat0 + side_lat), "lon": (lon0, lon0 + side_lon)}
    )


REGION = _square(BOSTON.lat_min + 26_000, BOSTON.lon_min + 77_000, 0.05)


@pytest.fixture(scope="module")
def traces():
    return generate_traces(2_000, n_vehicles=20, seed=5)


def cartel_store(traces, grid=N4, **kwargs):
    store = RodentStore(page_size=4096, pool_capacity=48, **kwargs)
    store.create_table("TracesGrid", TRACE_SCHEMA, layout=grid)
    store.load("TracesGrid", traces)
    store.create_table("Traces", TRACE_SCHEMA, layout="orderby[id](Traces)")
    store.load("Traces", traces).create_index("id")
    return store


# -- one decision per scan node ------------------------------------------------


@pytest.fixture
def calls(monkeypatch):
    """Count ``open_run`` wherever the engine calls it, and the B+Tree
    lookups of index probes."""
    counted = {"open_run": 0, "lookups": 0}
    open_run, lookup = access.open_run, FieldIndex.positions_in_range

    def open_spy(*args, **kwargs):
        counted["open_run"] += 1
        return open_run(*args, **kwargs)

    def lookup_spy(*args, **kwargs):
        counted["lookups"] += 1
        return lookup(*args, **kwargs)

    for module in (access, table_module):
        monkeypatch.setattr(module, "open_run", open_spy)
    monkeypatch.setattr(FieldIndex, "positions_in_range", lookup_spy)
    return counted


def _runs_read(table, predicate):
    return sum(len(r.runs) for r in table.partition_survivors(predicate))


def _shapes(traces):
    """``(name, store, query, table name, predicate, uses an index)`` for
    every bench layout shape."""
    cartel = cartel_store(traces)
    trip = traces[0][3]
    yield "grid", cartel, Q(cartel, "TracesGrid").select("lat", "lon").where(
        REGION
    ), "TracesGrid", REGION, False
    yield "grid count", cartel, Q(cartel, "TracesGrid").where(REGION).agg(
        n="*"
    ), "TracesGrid", REGION, False
    point = Range("id", trip, trip)
    yield "indexed rows", cartel, Q(cartel, "Traces").where(
        point
    ), "Traces", point, True

    olap = RodentStore(page_size=4096, pool_capacity=256)
    olap.create_table("Sales", SALES_SCHEMA, layout="columns(Sales)")
    olap.load("Sales", generate_sales(3_000, seed=3))
    year = Range("year", 2004, 2004)
    yield "columns", olap, Q(olap, "Sales").select(
        "productid", "quantity"
    ).where(year), "Sales", year, False

    series = RodentStore(page_size=4096, pool_capacity=64, level_seal_rows=64)
    series.create_table(
        "Series", TIMESERIES_SCHEMA, layout="levels[4; 4](columns(Series))"
    )
    stream = generate_timeseries(650, seed=9)
    levelled = series.load("Series", stream[:300])
    for start in range(300, 650, 100):  # three sealed runs, then pending
        levelled.insert(stream[start : start + 100])
    assert levelled.run_count >= 3
    window = Range("t", stream[-1][1] - 50, stream[-1][1])
    yield "levels", series, Q(series, "Series").where(
        window
    ), "Series", window, False

    mixed = RodentStore(page_size=4096, pool_capacity=32)
    mixed.create_table("Sales", SALES_SCHEMA, layout="partition[r.year](Sales)")
    fresh = generate_sales(400, seed=4)
    partitioned = mixed.load("Sales", generate_sales(3_000, seed=3))
    partitioned.insert(fresh[:200])
    partitioned.flush_inserts()  # a second run per partition
    partitioned.insert(fresh[200:])  # pending
    assert len(partitioned.partitions[0].runs) == 2
    slice_ = Rect({"year": (2005, 2005), "zipcode": (10000, 10050)})
    yield "partitioned", mixed, Q(mixed, "Sales").where(
        slice_
    ), "Sales", slice_, False


def test_one_open_run_per_run_and_one_probe_per_scan(traces, calls):
    for name, store, query, table_name, predicate, probe in _shapes(traces):
        table = store.table(table_name)
        expected = query.run()
        assert expected, name
        for key in calls:
            calls[key] = 0
        assert query.run() == expected, name
        runs = _runs_read(table, predicate)
        assert calls == {
            "open_run": runs, "lookups": runs if probe else 0
        }, (name, calls)
        assert runs, name


def test_join_decides_each_scan_node_once(calls):
    store = RodentStore(page_size=4096, pool_capacity=256)
    store.create_table("Sales", SALES_SCHEMA, layout="columns(Sales)")
    store.load("Sales", generate_sales(3_000, seed=3))
    store.create_table("Customers", Schema.of("customerid:int", "region:int"))
    store.load("Customers", [(c, c % 4) for c in range(2000)])
    query = (
        Q(store, "Sales")
        .where(Range("year", 2004, 2004))
        .join("Customers", on="customerid")
        .group_by("region")
        .agg(n="*")
    )
    query.run()
    for key in calls:
        calls[key] = 0
    query.run()
    assert calls == {"open_run": 2, "lookups": 0}


def test_a_query_that_is_only_run_prices_nothing(traces, monkeypatch):
    """Plan costs are folded when ``explain()`` asks: running a query pays
    for no page arithmetic (the parent priced every scan node eagerly)."""
    store = cartel_store(traces)
    priced = []
    original = LayoutRenderer.pages_for_stream_ranges

    def counted(self, layout, ranges):
        priced.append(len(ranges))
        return original(self, layout, ranges)

    monkeypatch.setattr(LayoutRenderer, "pages_for_stream_ranges", counted)
    query = Q(store, "TracesGrid").select("lat", "lon").where(REGION)
    assert query.run() and priced == []
    assert query.explain().pages > 0 and priced


# -- stale plans ---------------------------------------------------------------

SCHEMA = Schema.of("t:int", "x:int", "g:int")
RECORDS = [(i, (i * 37) % 101, i % 5) for i in range(1500)]
MORE = [(2000 + i, (i * 11) % 101, i % 5) for i in range(300)]


def _insert(store, table, model):
    table.insert(MORE)
    model.insert(MORE)


def _flush(store, table, model):
    _insert(store, table, model)
    table.flush_inserts()


def _compact(store, table, model):
    _flush(store, table, model)
    table.compact()
    model.compact()


def _relayout(store, table, model):
    store.relayout("T", "columns(T)")
    model.relayout("columns(T)")


def _zones_off(store, table, model):
    store.zone_pruning = False


def _create_index(store, table, model):
    table.create_index("x")


def _drop_index(store, table, model):
    table.drop_index("t")


MUTATIONS = {
    "insert": _insert,
    "flush": _flush,
    "compact": _compact,
    "relayout": _relayout,
    "zones_off": _zones_off,
    "create_index": _create_index,
    "drop_index": _drop_index,
}
STALE_LAYOUTS = {
    "rows": "T",
    "sorted": "orderby[t](T)",
    "columns": "columns(T)",
    "partitioned": "partition[t; range, 400](T)",
    "levels": "levels[4; 4](columns(T))",
}
PREDICATES = {
    "probe": Range("t", 100, 140),
    "scan": Range("x", 10, 30),
    "point": Range("t", 700, 700),
}


ROWS = ("rows", "sorted", "partitioned")  # secondary indexes: rows runs


@pytest.mark.parametrize(
    "layout, mutation",
    [
        (layout, mutation)
        for layout in sorted(STALE_LAYOUTS)
        for mutation in sorted(MUTATIONS)
        if layout in ROWS or not mutation.endswith("index")
    ],
)
def test_stale_plans_answer_like_fresh_ones(layout, mutation):
    indexed = layout in ROWS
    store = RodentStore(page_size=1024, pool_capacity=64, level_seal_rows=128)
    store.create_table("T", SCHEMA, layout=STALE_LAYOUTS[layout])
    table = store.load("T", RECORDS)
    model = oracle.Model(SCHEMA.names(), RECORDS, STALE_LAYOUTS[layout])
    if indexed:
        table.create_index("t")
    plans = {}
    for name, predicate in PREDICATES.items():
        spec = Q(store, "T").select("t", "x").where(predicate).spec()
        plans[name] = (spec, compile_query(store.table("T"), spec))
    MUTATIONS[mutation](store, table, model)
    for name, (spec, stale) in plans.items():
        fresh = compile_query(store.table("T"), spec)
        got = stale.rows()
        assert got == fresh.rows(), name
        oracle.check_scan(got, model, ["t", "x"], spec.predicate, context=name)


def test_adaptive_re_render_between_plan_and_scan(traces):
    """``adapt_interval=1``: every observed scan may re-render the table
    after it was planned — the carried verdicts go stale mid-query. The
    region table starts unclustered, so the loop does re-render it."""
    store = cartel_store(
        traces, grid="TracesGrid", adaptive=True, adapt_interval=1
    )
    store.adaptivity.min_observations = 1
    trips = sorted({r[3] for r in traces})
    for i in range(30):
        lat0 = BOSTON.lat_min + (i * 7919) % (BOSTON.lat_span // 2)
        lon0 = BOSTON.lon_min + (i * 104_729) % (BOSTON.lon_span // 2)
        square = _square(lat0, lon0, 0.01 if i % 3 else 0.001)
        (lat_lo, lat_hi), (lon_lo, lon_hi) = (
            square.ranges()["lat"], square.ranges()["lon"]
        )
        inside = [
            (r[1], r[2]) for r in traces
            if lat_lo <= r[1] <= lat_hi and lon_lo <= r[2] <= lon_hi
        ]
        if i % 10 == 9:
            trip = trips[i % len(trips)]
            got = Q(store, "Traces").where(Range("id", trip, trip)).run()
            assert sorted(got) == sorted(r for r in traces if r[3] == trip)
        elif i % 3:
            got = Q(store, "TracesGrid").select("lat", "lon").where(
                square
            ).run()
            assert sorted(got) == sorted(inside)
        else:
            got = Q(store, "TracesGrid").where(square).agg(n="*").run()
            assert got == [(len(inside),)]
    assert store.adaptivity.adaptations >= 1


# -- selectivity ---------------------------------------------------------------


def linear_walk(stats: FieldStats, lo: float, hi: float) -> float:
    """``FieldStats.selectivity`` as a walk over every bucket."""
    if stats.count == 0 or not stats.is_numeric:
        return 1.0
    span_lo, span_hi = float(stats.min_value), float(stats.max_value)
    if span_hi <= span_lo:
        return 1.0 if lo <= span_lo <= hi else 0.0
    if not stats.histogram:
        overlap = max(0.0, min(hi, span_hi) - max(lo, span_lo))
        return min(1.0, overlap / (span_hi - span_lo))
    # The domain ends are exact: a range reaching one covers its end bucket
    # whole, however the bucket width rounds (a subnormal span).
    lo = -math.inf if lo <= span_lo else lo
    hi = math.inf if hi >= span_hi else hi
    width = (span_hi - span_lo) / len(stats.histogram)
    total = sum(stats.histogram)
    if total == 0 or width == 0:
        return 1.0
    covered = 0.0
    for i, bucket in enumerate(stats.histogram):
        b_lo = span_lo + i * width
        b_hi = b_lo + width
        overlap = max(0.0, min(hi, b_hi) - max(lo, b_lo))
        if overlap > 0:
            covered += bucket * (overlap / width)
    return min(1.0, covered / total)


def _stats(dtype, values) -> FieldStats:
    schema = Schema.of(f"v:{dtype}")
    return TableStats.collect(schema, [(v,) for v in values]).fields["v"]


FLOATS = st.floats(-1e6, 1e6, allow_nan=False)
INTS = st.integers(-10_000, 10_000)


@settings(max_examples=200, deadline=None)
@given(st.lists(FLOATS, min_size=2, max_size=300), FLOATS, FLOATS)
@example(values=[0.0, 2.2250738585e-313], a=0.0, b=1.0)  # a subnormal span
@example(values=[0.0, -135300.4861375778], a=0.0, b=-4.1032287211654156e-54)
def test_float_ranges_equal_the_linear_walk(values, a, b):
    stats = _stats("float", values)
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        return  # a point range: 1 / distinct, below
    got = stats.selectivity(lo, hi)
    assert abs(got - linear_walk(stats, lo, hi)) <= 1e-12
    assert 0.0 <= got <= 1.0


@settings(max_examples=200, deadline=None)
@given(st.lists(INTS, min_size=2, max_size=300), INTS, INTS)
def test_integer_ranges_count_points(values, a, b):
    stats = _stats("int", values)
    lo, hi = min(a, b), max(a, b)
    got = stats.selectivity(lo, hi)
    assert 0.0 <= got <= 1.0
    in_domain = stats.min_value <= lo <= stats.max_value
    if lo == hi:
        assert got == (1 / stats.distinct if in_domain else 0.0)
    if any(lo <= v <= hi for v in values):
        assert got > 0  # a range holding rows is never estimated empty
    if hi < stats.min_value or lo > stats.max_value:
        assert got == 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(FLOATS, min_size=2, max_size=200, unique=True))
def test_float_point_ranges_are_one_over_distinct(values):
    stats = _stats("float", values)
    for v in values[:5]:
        assert stats.selectivity(v, v) == 1 / len(values)
    assert stats.selectivity(max(values) + 1, max(values) + 1) == 0.0


def test_bench_point_ranges():
    """The three point ranges the bench plans: ``year`` (9 years),
    ``Traces.id`` (200 trips of 250 rows) and ``customerid`` (2 000)."""
    sales = TableStats.collect(SALES_SCHEMA, generate_sales(20_000, seed=1))
    assert sales.fields["year"].selectivity(2004, 2004) == 1 / 9
    assert sales.fields["customerid"].selectivity(7, 7) == 1 / 2000
    rows = [(i, 0, 0, i // 250) for i in range(50_000)]
    schema = Schema.of("t:int", "a:int", "b:int", "id:int")
    trips = TableStats.collect(schema, rows)
    assert trips.fields["id"].selectivity(17, 17) * 50_000 == pytest.approx(250)
