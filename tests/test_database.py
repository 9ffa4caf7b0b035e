"""Tests for repro.engine.database (the RodentStore engine)."""

import pytest

import oracle
from repro.engine.database import RodentStore
from repro.errors import CatalogError, StorageError
from repro.query.expressions import Range
from repro.types import Schema

SCHEMA = Schema.of("t:int", "lat:int", "lon:int", "id:int")
RECORDS = [(i, (i * 37) % 500, (i * 53) % 500, i % 7) for i in range(300)]


class TestDDL:
    def test_create_default_rows_layout(self, store):
        table = store.create_table("T", SCHEMA)
        assert table.plan.kind == "rows"

    def test_duplicate_table_rejected(self, store):
        store.create_table("T", SCHEMA)
        with pytest.raises(CatalogError):
            store.create_table("T", SCHEMA)

    def test_drop_table(self, store):
        store.create_table("T", SCHEMA)
        store.load("T", RECORDS)
        store.drop_table("T")
        assert "T" not in store.tables()
        with pytest.raises(CatalogError):
            store.table("T")

    def test_drop_frees_pages(self, store):
        store.create_table("T", SCHEMA)
        table = store.load("T", RECORDS)
        pages_before = store.disk.num_pages
        store.drop_table("T")
        store.create_table("U", SCHEMA)
        store.load("U", RECORDS[:50])
        # Freed pages are recycled: allocation should not grow by much.
        assert store.disk.num_pages <= pages_before + 5

    def test_tables_listing(self, store):
        store.create_table("B", SCHEMA)
        store.create_table("A", SCHEMA)
        assert store.tables() == ["A", "B"]

    def test_layout_accepts_ast(self, store):
        from repro.algebra import ast

        table = store.create_table("T", SCHEMA, layout=ast.columns(ast.table("T")))
        assert table.plan.kind == "columns"


class TestLoad:
    def test_load_coerces_records(self, store):
        store.create_table("T", Schema.of("a:int", "b:float"))
        table = store.load("T", [(1, 2), (3, 4.5)])
        assert list(table.scan()) == [(1, 2.0), (3, 4.5)]

    def test_load_collects_stats(self, store):
        store.create_table("T", SCHEMA)
        store.load("T", RECORDS)
        stats = store.catalog.entry("T").stats
        assert stats.row_count == len(RECORDS)
        assert stats.fields["lat"].min_value == min(r[1] for r in RECORDS)

    def test_load_without_plan_fails(self, store):
        store.catalog.create("X", SCHEMA)
        with pytest.raises(CatalogError):
            store.load("X", RECORDS)

    @pytest.mark.parametrize(
        "layout",
        ["rows(T)", "partition[r.id](T)", "levels[2; 2](rows(T))"],
    )
    def test_reload_replaces_layout(self, store, layout):
        """``load`` on a loaded table replaces it in every shape: runs,
        flushed overflow and pending rows of the old contents all go."""
        store.create_table("T", SCHEMA, layout=layout)
        table = store.load("T", RECORDS)
        table.insert([(1000 + i, 1, 2, i % 7) for i in range(50)])
        table.flush_inserts()
        table.insert([(2000 + i, 3, 4, i % 7) for i in range(5)])
        assert table.row_count == len(RECORDS) + 55
        table = store.load("T", RECORDS[:100])
        assert table.row_count == 100
        assert table.unmerged_row_count == 0
        assert sorted(table.scan()) == sorted(RECORDS[:100])
        model = oracle.Model(SCHEMA.names(), RECORDS[:100], layout)
        oracle.check_table(table, model, predicate=Range("lat", 0, 250))

    def test_unknown_table_load(self, store):
        with pytest.raises(CatalogError):
            store.load("nope", RECORDS)


class TestRelayout:
    def test_relayout_from_stored_records(self, store):
        store.create_table("T", SCHEMA)
        store.load("T", RECORDS)
        table = store.relayout("T", "columns(T)")
        assert table.plan.kind == "columns"
        assert sorted(table.scan()) == sorted(RECORDS)

    def test_relayout_lossy_requires_source(self, store):
        store.create_table("T", SCHEMA, layout="project[lat, lon](T)")
        store.load("T", RECORDS)
        with pytest.raises(StorageError):
            store.relayout("T", "columns(T)")

    def test_relayout_lossy_with_source(self, store):
        store.create_table("T", SCHEMA, layout="project[lat, lon](T)")
        store.load("T", RECORDS)
        table = store.relayout("T", "columns(T)", source_records=RECORDS)
        assert sorted(table.scan()) == sorted(RECORDS)

    def test_relayout_to_grid_supports_spatial(self, store):
        store.create_table("T", SCHEMA)
        store.load("T", RECORDS)
        table = store.relayout(
            "T", "grid[lat, lon],[100, 100](project[lat, lon](T))"
        )
        got = sorted(table.scan(predicate=Range("lat", 0, 99)))
        want = sorted((r[1], r[2]) for r in RECORDS if r[1] <= 99)
        assert got == want

    def test_relayout_clears_overflow(self, store):
        store.create_table("T", SCHEMA)
        table = store.load("T", RECORDS[:100])
        table.insert(RECORDS[100:120])
        table.flush_inserts()
        store.relayout("T", "columns(T)", source_records=RECORDS[:100])
        assert store.table("T").unmerged_row_count == 0


class TestRunCold:
    def test_cold_run_counts_fresh_io(self, loaded_store):
        table = loaded_store.table("T")
        _, io1 = loaded_store.run_cold(lambda: list(table.scan()))
        _, io2 = loaded_store.run_cold(lambda: list(table.scan()))
        assert io1.page_reads == io2.page_reads > 0

    def test_warm_scan_hits_pool(self, loaded_store):
        table = loaded_store.table("T")
        loaded_store.run_cold(lambda: list(table.scan()))
        with loaded_store.disk.measure() as io:
            list(table.scan())
        assert io.page_reads == 0  # everything cached

    def test_result_passthrough(self, loaded_store):
        table = loaded_store.table("T")
        result, _ = loaded_store.run_cold(lambda: 42)
        assert result == 42


class TestLifecycle:
    def test_context_manager_closes(self, tmp_path):
        path = str(tmp_path / "db.pages")
        with RodentStore(path=path, page_size=1024) as store:
            store.create_table("T", SCHEMA)
            store.load("T", RECORDS[:20])
        # File persisted.
        import os

        assert os.path.getsize(path) > 0

    def test_file_backed_reopen_reads_pages(self, tmp_path):
        path = str(tmp_path / "db.pages")
        store = RodentStore(path=path, page_size=1024)
        store.create_table("T", SCHEMA)
        table = store.load("T", RECORDS[:20])
        extent = list(table.layout.extent.page_ids)
        store.close()
        from repro.storage.disk import DiskManager

        disk = DiskManager(path, page_size=1024)
        assert disk.num_pages >= len(extent)
        disk.close()

    def test_transactions_available(self, store):
        txn = store.transactions.begin()
        txn.lock_exclusive("table:T")
        assert store.locks.holder("table:T") == txn.txn_id
        txn.commit()
        assert store.locks.holder("table:T") is None
        assert store.obs["transactions.txns_committed"] == 1
