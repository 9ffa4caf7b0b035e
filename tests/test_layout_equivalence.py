"""Property: every physical design of a table answers queries identically.

The central promise of the paper — "RodentStore supports a wide range of
physical structures ... while still exposing logical tables" — stated as a
hypothesis property: for random records and any supported layout expression,
``scan`` returns the same multiset of records (modulo declared projections),
and predicates filter identically.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import vector
from repro.engine.database import RodentStore
from repro.query.expressions import Range, Rect
from repro.types import Schema
from test_batch_scan import LAYOUTS as BATCH_SCAN_LAYOUTS
from test_columnar_ingest import _zones as zone_maps

SCHEMA = Schema.of("t:int", "x:int", "y:int", "g:int")

records_strategy = st.lists(
    st.tuples(
        st.integers(0, 10_000),
        st.integers(-100, 100),
        st.integers(-100, 100),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=120,
)

# Layouts that preserve every field (so scans are directly comparable).
FULL_LAYOUTS = [
    "T",
    "orderby[t](T)",
    "orderby[g DESC, t ASC](T)",
    "columns(T)",
    "columns[[t, g], [x, y]](T)",
    "grid[x, y],[25, 25](T)",
    "zorder(grid[x, y],[40, 40](T))",
    "hilbert(grid[x, y],[40, 40](T))",
    "delta[x, y](grid[x, y],[25, 25](T))",
    "compress[varint; x, y](delta[x, y](zorder(grid[x, y],[25, 25](T))))",
    "compress[lz](columns(T))",
    "fold[t, x, y; g](T)",
    "mirror(rows(T), columns(T))",
    "groupby[g](T)",
    "partition[r.g](T)",
]


def build(layout, records):
    store = RodentStore(page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA, layout=layout)
    return store, store.load("T", records)


def canonical(rows, fields):
    """Project rows to SCHEMA order for comparison across layouts."""
    index = {f: i for i, f in enumerate(fields)}
    order = [index[f] for f in SCHEMA.names()]
    return sorted(tuple(r[i] for i in order) for r in rows)


@pytest.mark.parametrize("layout", FULL_LAYOUTS)
@given(records=records_strategy)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_scan_multiset_invariant(layout, records):
    _, table = build(layout, records)
    fields = table.scan_schema().names()
    got = canonical(table.scan(), fields)
    assert got == sorted(map(tuple, records))


@pytest.mark.parametrize(
    "layout",
    [
        "T",
        "orderby[x](T)",
        "columns(T)",
        "zorder(grid[x, y],[25, 25](T))",
        "fold[t, y; g](T)",  # note: x not stored first => predicate on x
        "mirror(rows(T), columns(T))",
    ],
)
@given(records=records_strategy, data=st.data())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_predicate_invariant(layout, records, data):
    lo = data.draw(st.integers(-100, 100))
    hi = data.draw(st.integers(lo, 100))
    _, table = build(layout, records)
    fields = table.scan_schema().names()
    if "x" not in fields:
        return
    predicate = Range("x", lo, hi)
    got = canonical(table.scan(predicate=predicate), fields) if set(
        fields
    ) == set(SCHEMA.names()) else None
    if got is None:
        return
    want = sorted(tuple(r) for r in records if lo <= r[1] <= hi)
    assert got == want


@given(records=records_strategy, data=st.data())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_grid_rect_query_equals_row_filter(records, data):
    """Grid-pruned rectangle queries equal the brute-force row filter."""
    x_lo = data.draw(st.integers(-100, 100))
    x_hi = data.draw(st.integers(x_lo, 100))
    y_lo = data.draw(st.integers(-100, 100))
    y_hi = data.draw(st.integers(y_lo, 100))
    rect = Rect({"x": (x_lo, x_hi), "y": (y_lo, y_hi)})

    _, rows_table = build("T", records)
    _, grid_table = build(
        "compress[varint; x, y](delta[x, y](zorder(grid[x, y],[30, 30](T))))",
        records,
    )
    want = sorted(rows_table.scan(predicate=rect))
    got = sorted(grid_table.scan(predicate=rect))
    assert got == want


#: The page audit's designs: every record layout of the batch-scan suite
#: (an array takes no inserts), which keep every record whole, then Figure
#: 2's N2–N4 over this schema and a record operator above a grid.
_N2 = "project[x, y](groupby[g](orderby[t](T)))"
LOSSLESS_LAYOUTS = [
    layout for layout in BATCH_SCAN_LAYOUTS.values()
    if not layout.startswith("transpose")
]
AUDITED_LAYOUTS = [
    *LOSSLESS_LAYOUTS,
    _N2,
    f"grid[x, y],[25, 25]({_N2})",
    f"compress[varint; x, y](delta[x, y](zorder(grid[x, y],[25, 25]({_N2}))))",
    "limit[5](grid[x, y],[25, 25](T))",
]


def page_images(table):
    """The main run's page images, the 8-byte next-page field at offset 4
    masked (page ids differ between two renders), and its zone maps."""
    layout = table.layout
    disk = table.store.disk
    images = [bytes(page[:4] + page[12:])
              for page in map(disk.read_page, layout.page_ids())]
    zones = [zone_maps(part) for part in (layout, *layout.mirrors)
             if part.synopsis is not None]
    return images, zones


@given(records=records_strategy)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_insert_then_scan_matches_bulk_load(records):
    """Loading everything at once equals loading nothing, then inserting,
    flushing and compacting everything: one render path, so the same page
    images and the same zone maps, with numpy on and off. Where the design
    keeps every record whole, the bulk load and a load of half the records
    plus an insert and flush of the other half (main run and overflow)
    both scan back to exactly the input records."""
    expected = sorted(map(tuple, records))
    half = len(records) // 2
    modes = [False] + ([True] if vector.numpy_module() is not None else [])
    for numpy_on in modes:
        previous = vector.set_numpy_enabled(numpy_on)
        try:
            for layout in AUDITED_LAYOUTS:
                _, bulk = build(layout, records)
                _, incremental = build(layout, [])
                incremental.insert(records)
                incremental.flush_inserts()
                incremental.compact()
                context = (layout, numpy_on)
                assert page_images(incremental) == page_images(bulk), context
                assert list(incremental.scan()) == list(bulk.scan()), context
                if layout not in LOSSLESS_LAYOUTS:
                    continue
                fields = bulk.scan_schema().names()
                assert canonical(bulk.scan(), fields) == expected, context
                _, halves = build(layout, records[:half])
                halves.insert(records[half:])
                halves.flush_inserts()
                assert canonical(halves.scan(), fields) == expected, context
        finally:
            vector.set_numpy_enabled(previous)
