"""Tests for repro.engine.indexes (secondary B+Tree and R-Tree access paths)."""

import pytest

from repro.engine.access import INDEX_SELECTIVITY_THRESHOLD, index_access
from repro.engine.database import RodentStore
from repro.engine.indexes import (
    FieldIndex,
    fetch_rows_by_position,
    pages_for_positions,
)
from repro.errors import IndexError_, QueryError
from repro.query.expressions import And, Range, Rect
from repro.types import Schema

SCHEMA = Schema.of("t:int", "lat:int", "lon:int", "id:int")
RECORDS = [(i, (i * 37) % 1000, (i * 53) % 1000, i % 7) for i in range(1500)]


@pytest.fixture
def setup():
    store = RodentStore(page_size=1024, pool_capacity=256)
    store.create_table("T", SCHEMA)
    table = store.load("T", RECORDS)
    return store, table


class TestFieldIndex:
    def test_index_scan_matches_full_scan(self, setup):
        store, table = setup
        table.create_index("lat")
        predicate = Range("lat", 100, 150)
        got = sorted(table.scan(predicate=predicate))
        want = sorted(r for r in RECORDS if 100 <= r[1] <= 150)
        assert got == want

    def test_index_scan_reads_fewer_pages(self, setup):
        store, table = setup
        q = Range("lat", 100, 120)
        _, io_full = store.run_cold(lambda: list(table.scan(predicate=q)))
        table.create_index("lat")
        _, io_index = store.run_cold(lambda: list(table.scan(predicate=q)))
        assert io_index.page_reads < io_full.page_reads

    def test_unselective_range_falls_back(self, setup):
        store, table = setup
        table.create_index("lat")
        # Nearly the whole table: index should NOT be used.
        q = Range("lat", 0, 990)
        _, io = store.run_cold(lambda: list(table.scan(predicate=q)))
        assert io.page_reads <= table.layout.total_pages() + 2

    def test_unbounded_range_not_indexed(self, setup):
        _, table = setup
        table.create_index("lat")
        assert index_access(table, Range("lat", lo=100)) is None

    def test_projection_over_index_path(self, setup):
        _, table = setup
        table.create_index("lat")
        got = sorted(table.scan(fieldlist=["t"], predicate=Range("lat", 0, 50)))
        want = sorted((r[0],) for r in RECORDS if r[1] <= 50)
        assert got == want

    def test_unknown_field(self, setup):
        _, table = setup
        with pytest.raises(QueryError):
            table.create_index("bogus")

    def test_requires_rows_layout(self, setup):
        store, _ = setup
        store.create_table("C", SCHEMA, layout="columns(C)")
        ctable = store.load("C", RECORDS)
        with pytest.raises(IndexError_):
            ctable.create_index("lat")

    def test_insert_marks_stale(self, setup):
        _, table = setup
        index = table.create_index("lat")
        table.insert([RECORDS[0]])
        assert index.stale
        # Stale index is bypassed; scan still correct.
        got = sorted(table.scan(predicate=Range("lat", 0, 50)))
        want = sorted(
            r for r in RECORDS + [RECORDS[0]] if r[1] <= 50
        )
        assert got == want

    def test_rebuild_clears_stale(self, setup):
        _, table = setup
        table.create_index("lat")
        table.insert([RECORDS[0]])
        table.flush_inserts()
        table.compact()
        index = table.create_index("lat")
        assert not index.stale
        assert index_access(table, Range("lat", 0, 10)) is not None

    def test_load_drops_indexes(self, setup):
        store, table = setup
        table.create_index("lat")
        store.load("T", RECORDS[:100])
        assert store.catalog.entry("T").indexes == {}

    def test_drop_index(self, setup):
        _, table = setup
        table.create_index("lat")
        table.drop_index("lat")
        assert index_access(table, Range("lat", 0, 10)) is None

    def test_scan_cost_considers_index(self, setup):
        _, table = setup
        full = table.scan_cost(predicate=Range("lat", 100, 110))
        table.create_index("lat")
        indexed = table.scan_cost(predicate=Range("lat", 100, 110))
        assert indexed.ms <= full.ms


def test_the_index_that_is_priced_is_the_index_that_is_probed(monkeypatch):
    """With two eligible indexes the label, the cost and the probe are one
    choice — the cheapest (the parent priced ``b`` and probed ``a``)."""
    store = RodentStore(page_size=1024, pool_capacity=256)
    store.create_table("T", Schema.of("a:int", "b:int"))
    records = [(i, i % 1000) for i in range(5000)]
    table = store.load("T", records)
    table.create_index("a")
    table.create_index("b")
    ranges = {"a": (0, 1400), "b": (0, 5)}
    predicate = And(*(Range(name, lo, hi) for name, (lo, hi) in ranges.items()))
    probed = []
    probe = FieldIndex.positions_in_range
    monkeypatch.setattr(
        FieldIndex,
        "positions_in_range",
        lambda self, lo, hi: probed.append(self.field_name) or probe(self, lo, hi),
    )

    def priced(name):  # pages of probing ``name``, from the same statistics
        fraction = table.stats.fields[name].selectivity(*ranges[name])
        assert fraction <= INDEX_SELECTIVITY_THRESHOLD  # both are eligible
        height = table._indexes[name].tree.height
        return height + max(1.0, fraction * table.layout.total_pages())

    label, cost = table.access_path(predicate=predicate)
    chosen = index_access(table, predicate)
    assert label == "index" and chosen.verdict.field_name == "b"
    assert cost == chosen.cost(store.cost_model)
    assert cost.pages == priced("b") < priced("a")
    assert probed == []  # pricing probes nothing
    rows = list(table.scan(predicate=predicate))
    assert probed == ["b"]
    assert rows == [r for r in records if r[0] <= 1400 and r[1] <= 5]


class TestSpatialIndex:
    def test_spatial_scan_matches_full(self, setup):
        store, table = setup
        table.create_spatial_index("lat", "lon")
        q = Rect({"lat": (100, 200), "lon": (300, 400)})
        got = sorted(table.scan(predicate=q))
        want = sorted(
            r
            for r in RECORDS
            if 100 <= r[1] <= 200 and 300 <= r[2] <= 400
        )
        assert got == want

    def test_spatial_scan_reads_fewer_pages(self, setup):
        store, table = setup
        q = Rect({"lat": (100, 160), "lon": (300, 360)})
        _, io_full = store.run_cold(lambda: list(table.scan(predicate=q)))
        table.create_spatial_index("lat", "lon")
        _, io_index = store.run_cold(lambda: list(table.scan(predicate=q)))
        assert io_index.page_reads < io_full.page_reads

    def test_partial_box_not_used(self, setup):
        _, table = setup
        table.create_spatial_index("lat", "lon")
        # Only one of the two dimensions bounded: spatial index skipped.
        assert index_access(table, Range("lat", 0, 10)) is None

    def test_stale_after_insert(self, setup):
        _, table = setup
        index = table.create_spatial_index("lat", "lon")
        table.insert([RECORDS[0]])
        assert index.stale


class TestPositionHelpers:
    def test_fetch_rows_by_position(self, setup):
        store, table = setup
        positions = [0, 1, 5, 700, 1499]
        batches = list(
            fetch_rows_by_position(store.renderer, table.layout, positions)
        )
        assert [b.n_rows for b in batches] == [3, 1, 1]  # one per page
        got = [row for batch in batches for row in batch.rows()]
        assert got == [RECORDS[p] for p in positions]

    def test_fetch_out_of_range(self, setup):
        store, table = setup
        with pytest.raises(QueryError):
            list(
                fetch_rows_by_position(
                    store.renderer, table.layout, [len(RECORDS)]
                )
            )

    def test_pages_for_positions(self, setup):
        _, table = setup
        # All positions on the first page -> 1 page.
        first_page_rows = table.layout.page_row_counts[0]
        assert pages_for_positions(table, list(range(first_page_rows))) == 1
        assert pages_for_positions(table, [0, len(RECORDS) - 1]) == 2

    def test_shared_page_fetched_once(self, setup):
        store, table = setup
        first_page_rows = table.layout.page_row_counts[0]
        positions = list(range(min(5, first_page_rows)))
        store.pool.clear()
        store.disk.stats.reset()
        list(fetch_rows_by_position(store.renderer, table.layout, positions))
        assert store.disk.stats.page_reads == 1
