"""Tests for repro.engine.persistence (save/reopen a store)."""

import pytest

from repro.engine.database import RodentStore
from repro.engine.levels import redesign
from repro.errors import CatalogError, StoreFormatError
from repro.migrate import migrate
from repro.query.expressions import Range, Rect
from repro.types import Schema

SCHEMA = Schema.of("t:int", "lat:int", "lon:int", "id:int")
RECORDS = [(i, (i * 37) % 500, (i * 53) % 500, i % 7) for i in range(400)]

LAYOUTS = {
    "rows": "T",
    "ordered": "orderby[t](T)",
    "columns": "columns[[t], [lat, lon], [id]](T)",
    "grid": "compress[varint; lat, lon](delta[lat, lon](zorder("
            "grid[lat, lon],[100, 100](project[lat, lon](T)))))",
    "folded": "fold[lat, lon; id](T)",
    "mirror": "mirror(rows(T), columns(T))",
}


def save_and_reopen(tmp_path, layout):
    db_path = str(tmp_path / "db.pages")
    cat_path = str(tmp_path / "catalog.json")
    store = RodentStore(path=db_path, page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA, layout=layout)
    store.load("T", RECORDS)
    store.save_catalog(cat_path)
    store.close()
    return RodentStore.open(db_path, cat_path, page_size=1024)


class TestRoundTrip:
    @pytest.mark.parametrize("name", list(LAYOUTS))
    def test_scan_after_reopen(self, tmp_path, name):
        reopened = save_and_reopen(tmp_path, LAYOUTS[name])
        table = reopened.table("T")
        got = sorted(table.scan())
        original = RodentStore(page_size=1024)
        original.create_table("T", SCHEMA, layout=LAYOUTS[name])
        expected = sorted(original.load("T", RECORDS).scan())
        assert got == expected

    def test_grid_pruning_survives(self, tmp_path):
        reopened = save_and_reopen(tmp_path, LAYOUTS["grid"])
        table = reopened.table("T")
        q = Rect({"lat": (0, 99), "lon": (0, 99)})
        _, io = reopened.run_cold(lambda: list(table.scan(predicate=q)))
        assert io.page_reads < table.layout.total_pages()
        got = sorted(table.scan(predicate=q))
        want = sorted(
            (r[1], r[2]) for r in RECORDS if r[1] <= 99 and r[2] <= 99
        )
        assert got == want

    def test_plan_recompiled(self, tmp_path):
        reopened = save_and_reopen(tmp_path, LAYOUTS["grid"])
        plan = reopened.table("T").plan
        assert plan.kind == "grid"
        assert plan.grid.cell_order == "zorder"
        assert plan.delta_fields == ("lat", "lon")
        assert plan.codec_for("lat") == "varint"

    def test_stats_survive(self, tmp_path):
        reopened = save_and_reopen(tmp_path, LAYOUTS["rows"])
        stats = reopened.catalog.entry("T").stats
        assert stats.row_count == len(RECORDS)
        assert stats.fields["lat"].min_value == min(r[1] for r in RECORDS)
        assert stats.fields["lat"].histogram  # histograms persisted

    def test_overflow_survives(self, tmp_path):
        db_path = str(tmp_path / "db.pages")
        cat_path = str(tmp_path / "catalog.json")
        store = RodentStore(path=db_path, page_size=1024)
        store.create_table("T", SCHEMA)
        table = store.load("T", RECORDS[:300])
        table.insert(RECORDS[300:])
        table.flush_inserts()
        store.save_catalog(cat_path)
        store.close()
        reopened = RodentStore.open(db_path, cat_path, page_size=1024)
        assert sorted(reopened.table("T").scan()) == sorted(RECORDS)
        assert reopened.table("T").unmerged_row_count == 100

    def test_multiple_tables(self, tmp_path):
        db_path = str(tmp_path / "db.pages")
        cat_path = str(tmp_path / "catalog.json")
        store = RodentStore(path=db_path, page_size=1024)
        store.create_table("A", SCHEMA)
        store.load("A", RECORDS[:100])
        store.create_table("B", SCHEMA, layout="columns(B)")
        store.load("B", RECORDS[100:250])
        store.save_catalog(cat_path)
        store.close()
        reopened = RodentStore.open(db_path, cat_path, page_size=1024)
        assert sorted(reopened.table("A").scan()) == sorted(RECORDS[:100])
        assert sorted(reopened.table("B").scan()) == sorted(RECORDS[100:250])

    def test_queries_and_costs_work_after_reopen(self, tmp_path):
        reopened = save_and_reopen(tmp_path, LAYOUTS["columns"])
        table = reopened.table("T")
        cost = table.scan_cost(fieldlist=["id"])
        assert 0 < cost.pages < table.layout.total_pages()
        got = list(table.scan(fieldlist=["id"], predicate=Range("lat", 0, 99)))
        want = [(r[3],) for r in RECORDS if r[1] <= 99]
        assert got == want

    def test_indexes_rebuildable_after_reopen(self, tmp_path):
        reopened = save_and_reopen(tmp_path, LAYOUTS["rows"])
        table = reopened.table("T")
        table.create_index("lat")
        got = sorted(table.scan(predicate=Range("lat", 100, 120)))
        want = sorted(r for r in RECORDS if 100 <= r[1] <= 120)
        assert got == want


class TestErrors:
    def test_page_size_mismatch(self, tmp_path):
        db_path = str(tmp_path / "db.pages")
        cat_path = str(tmp_path / "catalog.json")
        store = RodentStore(path=db_path, page_size=1024)
        store.create_table("T", SCHEMA)
        store.load("T", RECORDS[:10])
        store.save_catalog(cat_path)
        store.close()
        from repro.errors import StorageError

        # Either the disk manager rejects the file geometry or the catalog
        # loader rejects the page-size mismatch — both refuse to open.
        with pytest.raises((CatalogError, StorageError)):
            RodentStore.open(db_path, cat_path, page_size=2048)

    def test_bad_version(self, tmp_path):
        cat_path = tmp_path / "catalog.json"
        cat_path.write_text('{"version": 99, "page_size": 1024, "tables": []}')
        store = RodentStore(page_size=1024)
        from repro.engine.persistence import load_catalog

        with pytest.raises(CatalogError):
            load_catalog(store, str(cat_path))


# -- regions of many runs ---------------------------------------------------


def fresh(lo: int, n: int = 40) -> list[tuple]:
    return [(lo + i, (i * 7) % 500, (i * 11) % 500, i % 3) for i in range(n)]


def runs_of(table) -> list[tuple]:
    """Every run of ``table`` as ``(pid, design, rid, level, min_seq,
    max_seq, rows)``, plus each region's pending row count."""
    return [
        (region.pid, run.plan.expr.to_text(), run.rid, run.level,
         run.min_seq, run.max_seq, run.row_count)
        for region in table.partitions for run in region.runs
    ] + [len(region.pending) for region in table.partitions]


def multi_run_store(path: str) -> RodentStore:
    """A durable store with a flat table ``F`` and a range-partitioned
    ``P``: each region keeps its loaded run, and the region the inserts
    reach two flushed runs, a run flushed after the design changed to
    ``columns`` without a rewrite, and pending rows."""
    store = RodentStore(path, durable=True, page_size=1024, pool_capacity=64)
    for name, layout in (("F", "F"), ("P", "partition[r.t; range, 200](P)")):
        store.create_table(name, SCHEMA, layout=layout)
        table = store.load(name, RECORDS)
        for lo in (1000, 1100):
            table.insert(fresh(lo))
            table.flush_inserts()
        redesign(table, f"columns({name})", table.partitions)
        table.insert(fresh(1200))
        table.flush_inserts()
        table.insert(fresh(1300, 7))
    return store


@pytest.mark.parametrize("how", ["checkpoint", "wal"])
def test_multi_run_regions_reopen_identically(tmp_path, how):
    """Every run of every region comes back with its design, id and
    sequence range, and every scan answers the same — from the
    checkpointed catalog and from the log alone."""
    path = str(tmp_path / "db.pages")
    store = multi_run_store(path)
    designs = [run[1] for run in runs_of(store.table("F"))[:4]]
    assert designs == ["F", "F", "F", "columns(F)"]
    want = {
        name: (
            runs_of(store.table(name)),
            list(store.table(name).scan()),
            list(store.table(name).scan(fieldlist=["id", "t"])),
        )
        for name in ("F", "P")
    }
    if how == "checkpoint":
        store.close()
    else:  # a crash: the log holds every change since the store was made
        store.wal.close()
        store.disk.close()
    reopened = RodentStore(path, durable=True, page_size=1024, pool_capacity=64)
    assert reopened.recovery_summary["clean"] is (how == "checkpoint")
    for name, expected in want.items():
        table = reopened.table(name)
        got = (
            runs_of(table),
            list(table.scan()),
            list(table.scan(fieldlist=["id", "t"])),
        )
        assert got == expected, name
    reopened.close()


def test_a_catalog_in_layout_and_overflow_spelling_loads(tmp_path):
    """Catalogs written before every region was written as its runs spell
    a region's first run ``layout``, under the region's design, and its
    row-major flushes ``overflow``: the engine refuses them, and once
    migrated they load, each flush under a row-major design over the
    stored fields."""
    import json

    db_path, cat_path = str(tmp_path / "db.pages"), tmp_path / "db.pages.catalog.json"
    store = RodentStore(path=db_path, page_size=1024)
    for name, layout in (("F", "columns(F)"), ("P", "partition[r.t; range, 200](P)")):
        store.create_table(name, SCHEMA, layout=layout)
        store.load(name, RECORDS)
    flat = store.table("F")
    redesign(flat, "F", flat.partitions)  # flushes render row-major, as they did
    for name in ("F", "P"):
        store.table(name).insert(fresh(1000))
        store.table(name).flush_inserts()
    want = {name: sorted(store.table(name).scan()) for name in ("F", "P")}
    store.save_catalog(str(cat_path))
    store.close()

    def legacy(region: dict) -> None:
        layouts = [
            {key: value for key, value in run.items() if key not in meta}
            for run in region.pop("runs")
        ]
        region["layout"], region["overflow"] = layouts[0], layouts[1:]

    meta = ("rid", "level", "min_seq", "max_seq", "expr")
    payload = json.loads(cat_path.read_text())
    del payload["crc32"]
    payload["version"] = 1
    flat, partitioned = payload["tables"]
    flat["expr"] = "columns(F)"
    legacy(flat)
    del flat["loaded"]
    partitioned["partitions_loaded"] = partitioned.pop("loaded")
    for region in partitioned["partitions"]:
        legacy(region)
    cat_path.write_text(json.dumps(payload))

    with pytest.raises(StoreFormatError, match="python -m repro.migrate"):
        RodentStore.open(db_path, str(cat_path), page_size=1024)
    migrate(db_path)
    reopened = RodentStore.open(db_path, str(cat_path), page_size=1024)
    for name in ("F", "P"):
        table = reopened.table(name)
        assert sorted(table.scan()) == want[name]
        assert table.partitions[-1].runs[-1].plan.kind == "rows"
    assert [run.plan.kind for run in reopened.table("F").partitions[0].runs] == [
        "columns", "rows",
    ]
    reopened.close()
