"""Zone-map synopses: pruning equivalence, I/O savings, explain, persistence.

The invariant under test: enabling zone-map pruning (``store.zone_pruning``)
never changes what a scan returns — values and order — for any layout kind,
including overflow regions and in-memory pending rows; it only changes how
many pages the scan touches. Both are checked against the naive model of
the loaded rows (``tests/oracle.py``), which has no zone maps at all.
"""

import pytest

import oracle

from repro.engine.database import RodentStore
from repro.engine.stats import zone_survival_fraction
from repro.engine.synopsis import predicate_intervals
from repro.errors import StoreFormatError
from repro.migrate import migrate
from repro.query.expressions import And, Not, Or, Range, Rect
from repro.types import Schema

SCHEMA = Schema.of("t:int", "x:int", "y:int", "g:int")

#: Every layout kind, mirroring tests/test_batch_scan.py, so pruning is
#: exercised against rows, sorted rows, delta rows, pure/grouped/compressed
#: columns, mirrors, grids (plain and delta-compressed), folds, and arrays.
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


def predicates_for(table):
    names = set(table.scan_schema().names())
    if names == {"value"}:
        return [Range("value", 5, 25), Range("value", 9999, 10000)]
    cases = [
        Range("t", 0, 10),
        Range("t", 100, 150),
        Range("t", 5000, 6000),  # empty result: every zone pruned
        Range("x", -5, 5),
        Rect({"x": (-5, 15), "y": (3, 30)}),
        And(Range("t", 20, 200), Not(Range("g", 2, 2))),
        Or(Range("t", 0, 5), Range("t", 210, 400)),
    ]
    return [p for p in cases if p.fields_used() <= names]


@pytest.fixture(scope="module")
def tables():
    out = {}
    for name, layout in LAYOUTS.items():
        store = RodentStore(page_size=1024, pool_capacity=64)
        store.create_table("T", SCHEMA, layout=layout)
        out[name] = (store, store.load("T", make_records()))
    return out


def model_of(layout, records=None):
    records = make_records() if records is None else records
    return oracle.Model(SCHEMA.names(), records, LAYOUTS[layout])


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_pruned_scan_equals_unpruned_and_reference(tables, layout):
    store, table = tables[layout]
    model = model_of(layout)
    for predicate in predicates_for(table):
        for fieldlist in (None, sorted(predicate.fields_used())):
            store.zone_pruning = True
            pruned = oracle.check_table(table, model, fieldlist, predicate)
            store.zone_pruning = False
            unpruned = list(table.scan(fieldlist, predicate=predicate))
            store.zone_pruning = True
            assert pruned == unpruned, (layout, predicate, fieldlist)


@pytest.mark.parametrize("layout", ["rows", "columns", "grid", "folded"])
def test_pruning_equivalence_with_overflow_and_pending(layout):
    store = RodentStore(page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA, layout=LAYOUTS[layout])
    table = store.load("T", make_records(150))
    model = model_of(layout, make_records(150))
    overflow = [(1000 + i, i - 3, i, i % 5) for i in range(40)]
    pending = [(2000 + i, -i, 2 * i, i % 5) for i in range(17)]
    table.insert(overflow)
    table.flush_inserts()  # an on-disk overflow region (with its own zones)
    table.insert(pending)
    model.insert(overflow + pending)
    for predicate in (
        Range("t", 0, 20),
        Range("t", 1005, 1010),  # only overflow rows match
        Range("t", 2000, 2100),  # only pending rows match
        Range("t", 140, 1002),  # straddles main and overflow
        Range("x", -2, 2),
    ):
        store.zone_pruning = True
        oracle.check_table(table, model, predicate=predicate, context=layout)


@pytest.mark.parametrize("layout", ["rows", "columns", "grid", "folded"])
def test_pruned_scan_fetches_fewer_pages(layout):
    """Satellite: storage_stats shows pruned scans fetch fewer pool pages."""
    store = RodentStore(page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA, layout=LAYOUTS[layout])
    # g is clustered (i // 150) so folded records cover disjoint t ranges;
    # interleaved groups would make every nested vector span all of t.
    table = store.load(
        "T",
        [(i, (i * 7) % 53 - 26, (i * i) % 41, i // 150) for i in range(600)],
    )
    predicate = Range("t", 0, 10)

    def cold_fetches(pruning):
        store.zone_pruning = pruning
        before = store.storage_stats()["buffer_pool"]["fetches"]
        # Cold: no page in the pool, nothing decoded in the decoded cache.
        count, _ = store.run_cold(
            lambda: sum(1 for _ in table.scan(predicate=predicate))
        )
        after = store.storage_stats()["buffer_pool"]["fetches"]
        return count, after - before

    count_on, fetches_on = cold_fetches(True)
    count_off, fetches_off = cold_fetches(False)
    store.zone_pruning = True
    assert count_on == count_off == 11
    assert fetches_on < fetches_off, (layout, fetches_on, fetches_off)


def test_storage_stats_counters_move():
    store = RodentStore(page_size=1024, pool_capacity=8)
    store.create_table("T", SCHEMA)
    table = store.load("T", make_records(400))
    list(table.scan())
    stats = store.storage_stats()
    assert stats["buffer_pool"]["fetches"] > 0
    assert stats["disk"]["page_reads"] > 0
    assert stats["buffer_pool"]["evictions"] > 0  # tiny pool must evict
    assert 0.0 <= stats["buffer_pool"]["hit_rate"] <= 1.0


def test_pruned_pages_metadata_matches_io():
    """pruned_pages() is exact: total pages == pages read + pages pruned."""
    store = RodentStore(page_size=1024, pool_capacity=256)
    store.create_table("T", SCHEMA)
    table = store.load("T", make_records(600))
    predicate = Range("t", 0, 10)
    pruned = table.pruned_pages(predicate)
    assert pruned > 0
    _, io = store.run_cold(lambda: list(table.scan(predicate=predicate)))
    assert io.page_reads + pruned == table.layout.total_pages()
    # No predicate, disabled pruning, or unloaded metadata -> 0.
    assert table.pruned_pages(None) == 0
    store.zone_pruning = False
    assert table.pruned_pages(predicate) == 0


def test_explain_reports_pages_pruned():
    store = RodentStore(page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA)
    store.load("T", make_records(600))
    plan = store.query("T").where(Range("t", 0, 10)).explain()
    rendered = str(plan)
    assert "pages_pruned=" in rendered
    assert plan.root.pages_pruned > 0
    # The scan-node cost reflects the skipped pages.
    full = store.query("T").explain()
    assert plan.pages < full.pages


def test_scan_cost_reflects_zone_pruning():
    store = RodentStore(page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA)  # unsorted rows: zones only
    table = store.load("T", make_records(600))
    selective = table.scan_cost(predicate=Range("t", 0, 10))
    full = table.scan_cost()
    assert selective.pages < full.pages
    store.zone_pruning = False
    assert table.scan_cost(predicate=Range("t", 0, 10)).pages == full.pages


def test_pending_zone_skips_unmatching_pending_batch():
    store = RodentStore(page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA)
    table = store.load("T", make_records(50))
    table.insert([(1000 + i, 0, 0, 0) for i in range(10)])
    model = oracle.Model(SCHEMA.names(), make_records(50))
    model.insert([(1000 + i, 0, 0, 0) for i in range(10)])
    # Predicate excludes every pending row; results must still be exact.
    oracle.check_table(table, model, predicate=Range("t", 0, 20))
    got = list(table.scan(predicate=Range("t", 1000, 1004)))
    assert [r[0] for r in got] == [1000, 1001, 1002, 1003, 1004]


def test_synopsis_survives_catalog_persistence(tmp_path):
    db = tmp_path / "db.pages"
    cat = tmp_path / "catalog.json"
    store = RodentStore(path=str(db), page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA)
    table = store.load("T", make_records(600))
    predicate = Range("t", 0, 10)
    expected = list(table.scan(predicate=predicate))
    pruned = table.pruned_pages(predicate)
    store.save_catalog(str(cat))
    store.close()

    reopened = RodentStore.open(str(db), str(cat), page_size=1024)
    table2 = reopened.table("T")
    assert table2.layout.synopsis is not None
    assert table2.pruned_pages(predicate) == pruned
    assert list(table2.scan(predicate=predicate)) == expected
    _, io = reopened.run_cold(
        lambda: list(table2.scan(predicate=predicate))
    )
    assert io.page_reads < table2.layout.total_pages()


def _per_zone_shape(zones):
    """A columnar persisted zone table rewritten in the per-zone JSON shape
    earlier catalogs used: ``[{"rows": n, "fields": {name: [min, max,
    nulls, distinct_hint]}}, ...]``."""
    return [
        {
            "rows": rows,
            "fields": {
                name: [mins[i], maxs[i], nulls[i], 1]
                for name, (mins, maxs, nulls) in zones["fields"].items()
            },
        }
        for i, rows in enumerate(zones["rows"])
    ]


@pytest.mark.parametrize("layout", ["rows", "grouped", "grid", "folded"])
def test_old_per_zone_catalog_loads_and_prunes_identically(tmp_path, layout):
    import json

    db = tmp_path / "db.pages"
    cat = tmp_path / "db.pages.catalog.json"
    store = RodentStore(path=str(db), page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA, layout=LAYOUTS[layout])
    table = store.load("T", make_records(600))
    predicates = predicates_for(table)
    expected = [
        (table.pruned_pages(p), list(table.scan(predicate=p)))
        for p in predicates
    ]
    assert any(pruned for pruned, _ in expected)
    store.save_catalog(str(cat))
    store.close()

    payload = json.loads(cat.read_text())
    del payload["crc32"]  # pre-integrity files carry no checksum either
    payload["version"] = 1
    synopsis = payload["tables"][0]["runs"][0]["synopsis"]
    for key in ("page_zones", "cell_zones", "folded_zones"):
        synopsis[key] = _per_zone_shape(synopsis[key])
    synopsis["group_zones"] = [
        _per_zone_shape(zones) for zones in synopsis["group_zones"]
    ]
    cat.write_text(json.dumps(payload))

    with pytest.raises(StoreFormatError, match="python -m repro.migrate"):
        RodentStore.open(str(db), str(cat), page_size=1024)
    migrate(str(db))
    reopened = RodentStore.open(str(db), str(cat), page_size=1024)
    table2 = reopened.table("T")
    assert table2.layout.synopsis is not None
    got = [
        (table2.pruned_pages(p), list(table2.scan(predicate=p)))
        for p in predicates
    ]
    assert got == expected
    reopened.close()


def test_hand_written_per_zone_synopsis_converts():
    """The old shape, literally, through the migrator: a field one zone
    lacks reads as unknown bounds (kept), the 4th ``distinct_hint`` entry
    is ignored."""
    from repro.engine.persistence import synopsis_from_dict
    from repro.migrate import upgrade_synopsis

    synopsis = synopsis_from_dict(upgrade_synopsis(
        {
            "page_zones": [
                {"rows": 4, "fields": {"t": [0, 9, 0, 4], "x": [1, 2, 0, 2]}},
                {"rows": 4, "fields": {"t": [10, 19, 0, 4]}},
                {"rows": 2, "fields": {"t": [None, None, 2, 0], "x": [5, 6, 0, 2]}},
                {"rows": 0, "fields": {}},
            ],
            "group_zones": [],
            "cell_zones": [],
            "folded_zones": [],
        }
    ))
    zones = synopsis.page_zones
    assert list(zones.row_counts) == [4, 4, 2, 0]
    assert list(zones.fields["x"].mins) == [1, None, 5, None]
    assert zones.pruned_indexes({"t": (0, 5)}) == [1, 2, 3]
    assert zones.pruned_indexes({"x": (5, 9)}) == [0, 3]  # zone 1: unknown


def test_next_resumes_after_get_element_batchwise():
    """Satellite: the cursor rebuild after get_element skips batch-wise and
    still yields exactly the rows after the access position."""
    store = RodentStore(page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA)
    table = store.load("T", make_records(400))
    all_rows = list(table.scan())
    position = 137
    assert table.get_element(position) == all_rows[position]
    assert table.next() == all_rows[position + 1]
    assert table.next() == all_rows[position + 2]
    # Rebuild at the very end raises cleanly.
    table.get_element(399)
    from repro.errors import QueryError

    with pytest.raises(QueryError):
        table.next()


# ---------------------------------------------------------------------------
# unit tests of the pruning inputs (the kernel itself: test_zone_kernels.py)
# ---------------------------------------------------------------------------


def test_predicate_intervals_drop_unbounded():
    assert predicate_intervals(None) == {}
    assert predicate_intervals(Not(Range("t", 0, 1))) == {}
    got = predicate_intervals(And(Range("t", 0, 9), Range("x", 1, 2)))
    assert got == {"t": (0, 9), "x": (1, 2)}


def test_zone_survival_fraction_shape():
    assert zone_survival_fraction(0.0, 100) == 0.0
    assert zone_survival_fraction(1.0, 100) == 1.0
    mid = zone_survival_fraction(0.01, 100)
    assert 0.0 < mid < 1.0
    # More rows per zone -> more zones survive.
    assert zone_survival_fraction(0.01, 1000) > mid
