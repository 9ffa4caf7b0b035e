"""The shapes of the paper's results at reduced scale, and its ablations.

The paper's testbed is 10 M observations on 1000 KB pages; these tests run
pure Python at a few tens of thousands of records and assert the *shape* of
each result (orderings, ratios, page and seek counts), never wall times.
Figure 2 itself is in ``test_experiments.py``. The end-to-end, timed
benchmark is ``bench/run.py``.
"""

from __future__ import annotations

import random

import pytest

from repro import vector
from repro.algebra import ast
from repro.algebra.parser import parse
from repro.compression import get_codec
from repro.engine.cost import CostModel
from repro.engine.database import RodentStore
from repro.engine.stats import TableStats
from repro.experiments.figure2 import n3_expr
from repro.index import MBR, RTree
from repro.optimizer import (
    PlanCostEstimator,
    Query,
    Workload,
    enumerate_candidates,
    exhaustive_search,
    greedy_stride_descent,
    simulated_annealing,
)
from repro.optimizer.reorganize import Policy, ReorganizationManager
from repro.query.expressions import Range
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.types import INT, Schema
from repro.workloads import (
    BOSTON,
    SALES_SCHEMA,
    TRACE_SCHEMA,
    generate_sales,
    generate_timeseries,
    generate_traces,
    grid_strides_for,
    random_region_queries,
    series_column,
    year_zip_queries,
)

# Every generator is deterministic and emits records in sequence, so a
# prefix of a longer run is exactly the shorter run: the tests below slice
# one shared data set instead of regenerating it.


@pytest.fixture(scope="module")
def traces_10v():
    """20 000 observations from 10 vehicles."""
    return generate_traces(20_000, n_vehicles=10)


@pytest.fixture(scope="module")
def traces_15v():
    """25 000 observations from 15 vehicles."""
    return generate_traces(25_000, n_vehicles=15)


@pytest.fixture(scope="module")
def region_queries():
    """1%-area square queries over the trace region."""
    return random_region_queries(20)


@pytest.fixture(scope="module")
def sales():
    return generate_sales(30_000)


def cold_io(store, table, queries, fieldlist=None):
    """Mean (pages, seeks) per query, each run on a cold pool, and the rows
    every query returned in total."""
    pages = seeks = rows = 0
    for q in queries:
        got, io = store.run_cold(
            lambda q=q: list(table.scan(fieldlist=fieldlist, predicate=q))
        )
        pages += io.page_reads
        seeks += io.read_seeks
        rows += len(got)
    return pages / len(queries), seeks / len(queries), rows


# -- §1: zorder(grid[y, z](N)) on sales ----------------------------------------


def test_sales_zorder_grid(sales):
    """"The algebraic expression zorder(grid[y, z](N)) would repartition (or
    grid) the tuples into a matrix where years (y) are on the X axis and
    zipcodes (z) on the Y axis." Year x zipcode slices read far fewer pages
    from that design than from the raw rows, and return the same rows."""
    queries = year_zip_queries(20)
    measured = []
    for layout in (
        "Sales",
        "zorder(grid[year, zipcode],[1, 10](project[year, zipcode, quantity,"
        " price](Sales)))",
    ):
        store = RodentStore(page_size=8_192, pool_capacity=64)
        store.create_table("Sales", SALES_SCHEMA, layout=layout)
        table = store.load("Sales", sales)
        pages, _, rows = cold_io(
            store, table, queries, fieldlist=["quantity", "price"]
        )
        measured.append((pages, rows))
    (rows_pages, rows_count), (grid_pages, grid_count) = measured
    assert rows_count == grid_count
    assert grid_pages * 5 < rows_pages


# -- §1: rows vs columns vs column groups vs mirrors ---------------------------

LAYOUTS = {
    "rows": "Sales",
    "columns": "columns(Sales)",
    "grouped": "columns[[year, month, day], [zipcode], [customerid], "
    "[productid], [quantity, price]](Sales)",
    "mirror": "mirror(rows(Sales), columns(Sales))",
}
PROJECTIONS = {
    "1 col": ["price"],
    "2 cols": ["productid", "quantity"],
    "all cols": None,
}


@pytest.fixture(scope="module")
def sales_layouts(sales):
    """25 000 sales loaded under each layout: ``{layout: (store, table)}``."""
    out = {}
    for layout, expr in LAYOUTS.items():
        store = RodentStore(page_size=8_192, pool_capacity=96)
        store.create_table("Sales", SALES_SCHEMA, layout=expr)
        out[layout] = (store, store.load("Sales", sales[:25_000]))
    return out


def test_projection_widths(sales_layouts):
    """Narrow projections over a column layout read a fraction of the pages a
    row store reads; wide scans favour rows; a mirror gets the better side of
    both."""
    grid = {
        layout: {
            label: cold_io(store, table, [None], fieldlist=fields)[0]
            for label, fields in PROJECTIONS.items()
        }
        for layout, (store, table) in sales_layouts.items()
    }

    assert grid["columns"]["1 col"] * 4 < grid["rows"]["1 col"]
    assert grid["rows"]["all cols"] <= grid["columns"]["all cols"] * 1.3
    assert grid["mirror"]["1 col"] <= grid["columns"]["1 col"] * 1.1
    assert grid["mirror"]["all cols"] <= grid["rows"]["all cols"] * 1.1
    # Column groups still beat rows on narrow projections (their win over
    # pure columns is fewer objects/seeks, not raw pages — mini-record
    # slotted pages carry per-record overhead that packed vectors avoid).
    assert grid["grouped"]["2 cols"] < grid["rows"]["2 cols"]


def test_full_width_scan_returns_every_sale(sales_layouts):
    for layout, (_, table) in sales_layouts.items():
        assert sum(1 for _ in table.scan()) == 25_000, layout


def test_narrow_scan_returns_every_sale(sales_layouts):
    for layout, (_, table) in sales_layouts.items():
        for fields in (["price"], ["productid", "quantity"]):
            count = sum(1 for _ in table.scan(fieldlist=fields))
            assert count == 25_000, (layout, fields)


# -- Case study ablations: grid geometry, page size, cell order ----------------


def test_grid_cell_size_sweep(traces_15v, region_queries):
    """The case study picks cells "about 400 m^2": too-coarse cells read
    excess data, too-fine cells cost more seeks."""
    series = {}
    for cells in (4, 8, 16, 32, 64):
        lat, lon = grid_strides_for(BOSTON, cells)
        store = RodentStore(page_size=8_192, pool_capacity=64)
        # Cell-directory pruning only: zone maps also prune on each cell's
        # actual extent, which would hide the geometry this sweep isolates.
        store.zone_pruning = False
        store.create_table("Traces", TRACE_SCHEMA, layout=n3_expr(lat, lon))
        table = store.load("Traces", traces_15v)
        series[cells] = cold_io(store, table, region_queries[:15])[:2]

    best_pages = min(pages for pages, _ in series.values())
    assert series[4][0] > best_pages
    assert series[64][1] >= series[4][1]


def test_page_size_sweep(traces_15v, region_queries):
    """"What is the appropriate disk page size to use?" (§4.2): a grid query
    reads fewer 128 KB pages than 2 KB pages, but the 2 KB pages move at
    most 1.5x the bytes."""
    lat, lon = grid_strides_for(BOSTON, 32)
    series = {}
    for page_size in (2_048, 131_072):
        store = RodentStore(
            page_size=page_size,
            pool_capacity=64,
            cost_model=CostModel(page_size=page_size),
        )
        store.create_table("Traces", TRACE_SCHEMA, layout=n3_expr(lat, lon))
        table = store.load("Traces", traces_15v)
        pages, _, _ = cold_io(store, table, region_queries[:10])
        series[page_size] = (pages, pages * page_size / 1024)

    (small_pages, small_kb), (large_pages, large_kb) = series.values()
    assert small_pages > large_pages
    assert small_kb <= large_kb * 1.5


CELL_BASE = (
    "grid[lat, lon],[{lat:g}, {lon:g}]"
    "(project[lat, lon](groupby[id](orderby[t](Traces))))"
)


def test_cell_orderings(traces_15v, region_queries):
    """"We reorder the cells on disk using a space-filling curve in order to
    minimize the disk seek times" (§3.5.3): the curves read no more pages
    than row-major cell order and seek less."""
    lat, lon = grid_strides_for(BOSTON, 48)
    results = {}
    for name, template in (
        ("rowmajor", CELL_BASE),
        ("zorder", f"zorder({CELL_BASE})"),
        ("hilbert", f"hilbert({CELL_BASE})"),
    ):
        store = RodentStore(page_size=4_096, pool_capacity=64)
        store.create_table(
            "Traces", TRACE_SCHEMA, layout=template.format(lat=lat, lon=lon)
        )
        table = store.load("Traces", traces_15v)
        results[name] = cold_io(store, table, region_queries)[:2]

    # Co-queried cells pack into shared pages along the curve, often fewer.
    assert results["zorder"][0] <= results["rowmajor"][0] * 1.05
    assert results["zorder"][1] < results["rowmajor"][1]
    assert results["hilbert"][1] <= results["zorder"][1] * 1.25


# -- §3.5.2: compression codecs ------------------------------------------------


CODECS = ("none", "varint", "delta", "rle", "dict", "bitpack", "lz")


@pytest.fixture(scope="module")
def encoded_columns(traces_10v):
    """``{(codec, column): (values, encoded)}`` for every codec and every
    column it accepts."""
    columns = {
        "trace.lat": [r[1] for r in traces_10v],
        "trace.id": [r[3] for r in traces_10v],
        "ts.smooth": series_column(
            generate_timeseries(20_000, n_series=1, kind="smooth"), 0
        ),
        "ts.steppy": series_column(
            generate_timeseries(20_000, n_series=1, kind="steppy"), 0
        ),
    }
    out = {}
    for codec_name in CODECS:
        codec = get_codec(codec_name)
        for name, values in columns.items():
            try:
                out[codec_name, name] = (values, codec.encode(values, INT))
            except Exception:
                continue
    return out


def test_compression_ratios(encoded_columns):
    """Delta codecs crush smooth series, RLE steppy ones, and dictionaries
    low-cardinality ids."""

    def ratio(codec_name, column):
        encoded = encoded_columns[codec_name, column][1]
        return len(encoded) / len(encoded_columns["none", column][1])

    assert ratio("delta", "ts.smooth") < 0.35
    assert ratio("rle", "ts.steppy") < 0.2
    assert ratio("delta", "trace.lat") < 0.6
    assert ratio("dict", "trace.id") < 0.3


@pytest.mark.parametrize("codec_name", CODECS)
def test_decode_round_trip(encoded_columns, codec_name):
    """The codec decodes every column it accepts back to its values."""
    codec = get_codec(codec_name)
    columns = [key[1] for key in encoded_columns if key[0] == codec_name]
    assert "ts.smooth" in columns
    for column in columns:
        values, encoded = encoded_columns[codec_name, column]
        assert vector.to_list(codec.decode(encoded, INT)) == values, column


# -- §4.2: the buffer pool in front of the disk --------------------------------

BUFFER_SCHEMA = Schema.of("t:int", "x:int", "y:int", "g:int")
BUFFER_RECORDS = [
    (i, (i * 37) % 500, (i * 53) % 500, i % 7) for i in range(6000)
]


def buffer_table(capacity: int):
    store = RodentStore(page_size=1024, pool_capacity=capacity)
    store.create_table("T", BUFFER_SCHEMA)
    return store, store.load("T", BUFFER_RECORDS)


def hot_set_hit_rate(capacity: int) -> float:
    """Hit rate of 300 positional probes, 80% of them into the first 20% of
    the rows."""
    store, table = buffer_table(capacity)
    rng = random.Random(1)
    n = table.row_count
    for _ in range(300):
        table.get_element(rng.randrange(n // 5 if rng.random() < 0.8 else n))
    return store.storage_stats()["buffer_pool"]["hit_rate"]


def test_eviction_policies():
    """The pool's LRU keeps a hot set resident."""
    assert hot_set_hit_rate(64) > 0.5


def test_pool_capacity_sweep():
    assert hot_set_hit_rate(512) > hot_set_hit_rate(8)


# -- Index access paths --------------------------------------------------------


def test_rtree_window_query():
    """A 50 x 50 window over 20 000 STR-packed boxes in a 1000 x 1000 space
    reads under a fifth of the tree's pages."""
    disk = DiskManager(page_size=4_096)
    rng = random.Random(5)
    boxes = []
    for i in range(20_000):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        boxes.append((MBR(x, y, x + rng.uniform(0, 5), y + rng.uniform(0, 5)), i))
    tree = RTree(BufferPool(disk, capacity=512), boxes)
    tree.pool.clear()
    with disk.measure() as io:
        tree.search(MBR(500, 500, 550, 550))
    assert io.page_reads < 0.2 * disk.num_pages


def test_secondary_index_scan(traces_10v):
    """A B+Tree over ``lat`` of a rows layout answers a selective range from
    fewer pages than the full scan, with the same rows."""
    store = RodentStore(page_size=4_096, pool_capacity=256)
    store.create_table("Traces", TRACE_SCHEMA)
    table = store.load("Traces", traces_10v)
    lat_lo = 42_310_000
    q = Range("lat", lat_lo, lat_lo + 3_000)
    _, io_full = store.run_cold(lambda: list(table.scan(predicate=q)))
    table.create_index("lat")
    result, io_index = store.run_cold(lambda: list(table.scan(predicate=q)))
    assert sorted(result) == sorted(
        r for r in traces_10v if lat_lo <= r[1] <= lat_lo + 3_000
    )
    assert io_index.page_reads < io_full.page_reads


# -- §5: the design optimizer and its search strategies ------------------------


@pytest.fixture(scope="module")
def design_search(traces_10v, region_queries):
    stats = TableStats.collect(TRACE_SCHEMA, traces_10v)
    estimator = PlanCostEstimator(stats, CostModel(page_size=8_192), 8_192)
    workload = Workload("Traces")
    for i, q in enumerate(region_queries[:10]):
        workload.add(Query(name=f"q{i}", fieldlist=("lat", "lon"), predicate=q))
    candidates = enumerate_candidates(TRACE_SCHEMA, stats, workload)
    exhaustive = exhaustive_search(candidates, TRACE_SCHEMA, estimator, workload)
    return estimator, workload, candidates, exhaustive


def test_exhaustive_search(design_search):
    """"If there are n columns in a table, there are 2^n ways to co-locate
    that table's columns": the candidate pool costs fewer designs than that,
    and the spatial workload lands on a gridded design."""
    *_, result = design_search
    assert result.evaluated < 2 ** len(TRACE_SCHEMA)
    assert any(isinstance(n, ast.Grid) for n in result.expression.walk())


def test_stride_descent(design_search):
    """"To find the best gridding, we could use gradient descent": the
    descent never ends above its seed design."""
    estimator, workload, _, _ = design_search
    seed = parse("grid[lat, lon],[60000, 80000](project[lat, lon](Traces))")
    result = greedy_stride_descent(seed, TRACE_SCHEMA, estimator, workload)
    assert result.best.total_ms <= result.trace[0][1]


def test_simulated_annealing(design_search):
    """"... or simulated annealing": 120 steps land within 2x of the
    exhaustive optimum."""
    estimator, workload, candidates, exhaustive = design_search
    result = simulated_annealing(
        candidates, TRACE_SCHEMA, estimator, workload, iterations=120, seed=1
    )
    assert result.best.total_ms <= exhaustive.best.total_ms * 2


# -- §5: reorganization policies -----------------------------------------------


def run_policy(policy, records, queries):
    """Apply a grid design under ``policy``, then run ten cold region
    queries, each after one access tick."""
    store = RodentStore(page_size=8_192, pool_capacity=64)
    store.create_table("Traces", TRACE_SCHEMA)
    store.load("Traces", records)
    manager = ReorganizationManager(store)
    manager.lazy_access_threshold = 4
    manager.set_policy("Traces", policy)
    lat, lon = grid_strides_for(BOSTON, 32)
    manager.apply_design("Traces", f"grid[lat, lon],[{lat:g}, {lon:g}](Traces)")
    read_pages = 0
    for i in range(10):
        manager.on_access("Traces")
        table = store.table("Traces")
        q = queries[i % len(queries)]
        _, io = store.run_cold(
            lambda q=q: list(table.scan(fieldlist=["lat", "lon"], predicate=q))
        )
        read_pages += io.page_reads
    return (
        manager.store.obs["adaptivity.reorganizations"],
        store.table("Traces").main_plan.kind,
        read_pages,
    )


def test_reorganization_policies(traces_10v, region_queries):
    """Eager rewrites at once and reads cheaply ever after; new-data-only
    never rewrites and keeps reading rows; lazy rewrites once the access
    threshold passes, so its reads land between the two."""
    records, queries = traces_10v[:15_000], region_queries[:5]
    eager = run_policy(Policy.EAGER, records, queries)
    newdata = run_policy(Policy.NEW_DATA_ONLY, records, queries)
    lazy = run_policy(Policy.LAZY, records, queries)
    assert eager[:2] == (1, "grid")
    assert newdata[:2] == (0, "rows")
    assert newdata[2] > eager[2]
    assert lazy[:2] == (1, "grid")
    assert eager[2] <= lazy[2] <= newdata[2]
