"""Tests for repro.engine.indexes (secondary B+Tree and R-Tree access
paths, one per rows run)."""

import pytest

import oracle
from repro.engine.access import INDEX_SELECTIVITY_THRESHOLD
from repro.engine.database import RodentStore
from repro.engine.indexes import (
    FieldIndex,
    SpatialIndex,
    fetch_rows_by_position,
    pages_for_positions,
)
from repro.errors import IndexError_, QueryError
from repro.query.expressions import And, Range, Rect
from repro.types import Schema

SCHEMA = Schema.of("t:int", "lat:int", "lon:int", "id:int")
NAN = float("nan")
RECORDS = [(i, (i * 37) % 1000, (i * 53) % 1000, i % 7) for i in range(1500)]


@pytest.fixture
def setup():
    store = RodentStore(page_size=1024, pool_capacity=256)
    store.create_table("T", SCHEMA)
    table = store.load("T", RECORDS)
    return store, table


def probe(table, predicate):
    """The first run access of a scan of ``table`` under ``predicate`` that
    probes an index, or ``None``."""
    runs = table.scan_access(predicate=predicate).runs.values()
    return next((a for _, a in runs if a.probed is not None), None)


def run_index(table, *fields):
    """The index over ``fields`` of the table's one run."""
    (run,) = table._entry.runs()
    return run.indexes[fields]


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
        assert probe(table, Range("lat", lo=100)) is None

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

    def test_insert_keeps_the_index_in_use(self, setup):
        """Inserted rows wait in the pending buffer, which every scan reads
        as it is: the run's index is still probed, the answer exact."""
        _, table = setup
        table.create_index("lat")
        index = run_index(table, "lat")
        table.insert([RECORDS[0]])
        assert probe(table, Range("lat", 0, 50)).probed is index
        got = sorted(table.scan(predicate=Range("lat", 0, 50)))
        want = sorted(
            r for r in RECORDS + [RECORDS[0]] if r[1] <= 50
        )
        assert got == want

    def test_seal_and_merge_index_their_runs(self, setup):
        """A seal and a merge build the declared index of the run they
        render: no second ``create_index``."""
        _, table = setup
        table.create_index("lat")
        table.insert([RECORDS[0]])
        table.flush_inserts()
        assert [list(r.indexes) for r in table._entry.runs()] == [
            [("lat",)], [("lat",)]
        ]
        table.compact()
        assert list(run_index(table, "lat").tree.items())
        assert probe(table, Range("lat", 0, 10)) is not None

    def test_load_drops_indexes(self, setup):
        """A load retires the old runs' trees with them; the declaration
        stays and indexes the new runs."""
        store, table = setup
        table.create_index("lat")
        old = run_index(table, "lat").tree.page_ids()
        store.load("T", RECORDS[:100])
        assert set(old) <= store.disk.free_page_ids()
        assert store.catalog.entry("T").indexes == (("lat",),)
        assert run_index(store.table("T"), "lat").tree.page_ids() != old

    def test_drop_index(self, setup):
        store, table = setup
        table.create_index("lat")
        pages = run_index(table, "lat").tree.page_ids()
        table.drop_index("lat")
        assert probe(table, Range("lat", 0, 10)) is None
        assert store.catalog.entry("T").indexes == ()
        assert set(pages) <= store.disk.free_page_ids()

    def test_scan_cost_considers_index(self, setup):
        """The scan's cost is its probe's: fewer pages than the run."""
        _, table = setup
        full = table.scan_cost(predicate=Range("lat", 100, 110))
        table.create_index("lat")
        indexed = table.scan_cost(predicate=Range("lat", 100, 110))
        assert indexed.pages < full.pages
        assert table.access_path(predicate=Range("lat", 100, 110)) == (
            "index", indexed
        )


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
    lookup = FieldIndex.positions_in_range
    monkeypatch.setattr(
        FieldIndex,
        "positions_in_range",
        lambda self, lo, hi: probed.append(self.field_name) or lookup(self, lo, hi),
    )

    def priced(name):  # pages of probing ``name``, from the same statistics
        fraction = table.stats.fields[name].selectivity(*ranges[name])
        assert fraction <= INDEX_SELECTIVITY_THRESHOLD  # both are eligible
        height = run_index(table, name).tree.height
        return height + max(1.0, fraction * table.layout.total_pages())

    label, cost = table.access_path(predicate=predicate)
    chosen = probe(table, predicate)
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
        assert probe(table, Range("lat", 0, 10)) is None

    def test_insert_keeps_the_spatial_index_in_use(self, setup):
        _, table = setup
        table.create_spatial_index("lat", "lon")
        index = run_index(table, "lat", "lon")
        table.insert([RECORDS[0]])
        box = Rect({"lat": (0, 50), "lon": (0, 500)})
        assert probe(table, box).probed is index
        assert sorted(table.scan(predicate=box)) == sorted(
            r for r in RECORDS + [RECORDS[0]] if r[1] <= 50 and r[2] <= 500
        )


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
        with store.disk.measure() as io:
            list(fetch_rows_by_position(store.renderer, table.layout, positions))
        assert io.page_reads == 1


def test_a_delta_run_holds_no_index():
    """A delta run stores differences, which no position can be read back
    from without the running sum: it holds no index, over its delta field
    or any other, and scans stay exact (a tree over the stored deltas
    answered 0 of 11 rows, and one over ``x`` returned deltas as ``t``)."""
    store = RodentStore(page_size=1024)
    store.create_table("T", Schema.of("t:int", "x:int"), layout="delta[t](T)")
    rows = [(i * 3, i % 1000) for i in range(2000)]
    table = store.load("T", rows)
    table.create_index("t")
    table.create_index("x")
    (run,) = table._entry.runs()
    assert run.indexes == {}
    for name, lo, hi in (("t", 300, 330), ("x", 500, 504)):
        assert list(table.scan(predicate=Range(name, lo, hi))) == [
            r for r in rows if lo <= r[name == "x"] <= hi
        ]


STRINGS = Schema.of("t:int", "s:string")


@pytest.mark.parametrize("width", [60, 200])
def test_long_string_keys_build_and_answer(width):
    """A B+Tree over 60- and 200-character strings at page size 4 096
    builds (a node holds as many keys as fit its bytes, not a count
    sized from an estimated width) and answers like the oracle: its
    probe returns the positions of the matching rows, and scans equal
    the model."""
    store = RodentStore(page_size=4096, pool_capacity=64)
    store.create_table("T", STRINGS)
    rows = [(i, f"{(i * 7919) % 3000:0{width}d}") for i in range(3000)]
    table = store.load("T", rows)
    table.create_index("s")
    index = run_index(table, "s")
    assert index.tree.height >= 2 and len(index.tree) == 3000
    model = oracle.Model(["t", "s"], rows, "T")
    for lo, hi in ((10, 20), (0, 0), (2990, 4000)):
        lo, hi = f"{lo:0{width}d}", f"{hi:0{width}d}"
        assert index.positions_in_range(lo, hi) == [
            i for i, row in enumerate(rows) if lo <= row[1] <= hi
        ]
        oracle.check_table(table, model, predicate=Range("s", lo, hi))


def test_an_equality_on_a_string_field_takes_its_index():
    """A point ``Range`` on an indexed string field is estimated as System
    R's ``1 / distinct`` (not the 1.0 of an unestimated range), so the scan
    probes the B+Tree, and answers like the oracle — a key outside the
    field's bounds too."""
    store = RodentStore(page_size=4096, pool_capacity=64)
    store.create_table("T", STRINGS)
    rows = [(i, f"{(i * 7919) % 3000:060d}") for i in range(3000)]
    table = store.load("T", rows)
    table.create_index("s")
    model = oracle.Model(["t", "s"], rows, "T")
    for k in (0, 1234, 2999, 5000):
        key = f"{k:060d}"
        predicate = Range("s", key, key)
        assert table.access_path(predicate=predicate)[0] == "index"
        oracle.check_table(table, model, predicate=predicate)
    wide = Range("s", f"{10:060d}", f"{2000:060d}")
    assert table.stats.fields["s"].selectivity(wide.lo, wide.hi) == 1.0


def test_a_levelled_table_with_long_string_keys_keeps_taking_inserts():
    """``levels[4; 4](T)`` with an index over ``s``: 5 000 rows of
    100-character strings seal and merge with their runs indexed, and
    every later insert succeeds (a node overflow used to fail the seal,
    and every insert after it)."""
    store = RodentStore(page_size=4096, pool_capacity=64)
    store.create_table("T", STRINGS, layout="levels[4; 4](T)")
    table = store.table("T")
    table.create_index("s")
    model = oracle.Model(["t", "s"], [], "levels[4; 4](T)")
    rows = [(i, f"{i:0100d}") for i in range(5000)]
    for start in range(0, 5000, 500):
        table.insert(rows[start : start + 500])
        model.insert(rows[start : start + 500])
    runs = list(table._entry.runs())
    assert runs and all(("s",) in run.indexes for run in runs)
    for i in range(3):
        more = [(9000 + i, "x" * 100)]
        table.insert(more)
        model.insert(more)
    table.flush_inserts()
    predicate = Range("s", f"{4100:0100d}", f"{4120:0100d}")
    assert probe(table, predicate) is not None
    oracle.check_table(table, model, predicate=predicate)
    oracle.check_table(table, model, predicate=Range("s", "x", "y"))


def test_a_key_too_long_for_a_node_leaves_its_run_unindexed():
    """At page size 1 024 a 980-character key fits a row page but no tree node: the run
    holding it gets no index over ``s`` (its probes fall back to the run
    scan), a run without one does, and scans equal the oracle."""
    store = RodentStore(page_size=1024, pool_capacity=64, level_seal_rows=64)
    store.create_table("T", STRINGS, layout="levels[4; 4](T)")
    table = store.table("T")
    table.create_index("s")
    model = oracle.Model(["t", "s"], [], "levels[4; 4](T)")
    for batch in (
        [(i, f"{i:08d}") for i in range(64)],
        [(64, "y" * 980)] + [(i, f"{i:08d}") for i in range(65, 128)],
    ):
        table.insert(batch)
        model.insert(batch)
    first, second = sorted(table._entry.runs(), key=lambda run: run.min_seq)
    assert ("s",) in first.indexes and ("s",) not in second.indexes
    for lo, hi in (("00000010", "00000012"), ("00000100", "00000101"), ("y", "z")):
        oracle.check_table(table, model, predicate=Range("s", lo, hi))


def test_a_nan_key_stays_out_of_the_tree():
    """A NaN matches no range and has no place in key order: a tree over a
    float field holding NaN keeps its other keys sorted and answers like
    the oracle (NaN keys in the tree returned 2 of 64 rows)."""
    store = RodentStore(page_size=1024)
    store.create_table("T", Schema.of("t:int", "f:float"))
    rows = [(i, NAN if i % 5 == 0 else float((i * 37) % 101)) for i in range(2000)]
    table = store.load("T", rows)
    table.create_index("f")
    assert len(run_index(table, "f").tree) == 1600
    model = oracle.Model(["t", "f"], rows, "T")
    for lo in (0, 10, 50, 90):
        predicate = Range("f", lo, lo + 3)
        assert probe(table, predicate) is not None
        oracle.check_table(table, model, predicate=predicate)


# -- every table shape -------------------------------------------------------

SHAPE_SCHEMA = Schema.of("k:int", "x:int", "y:int")
SHAPE_ROWS = [(i, (i * 37) % 1000, (i * 53) % 1000) for i in range(1600)]
SHAPES = {
    "flat": "T",
    "partition": "partition[k; range, 600, 1200](T)",
    "levels": "levels[2; 4](rows(T))",
    "partition_levels": "partition[k; range, 800](levels[2; 4](rows(T)))",
}
INDEXED = (Range("x", 100, 105), Rect({"x": (300, 320), "y": (0, 200)}))


def open_shape_store(path):
    return RodentStore(
        path, durable=True, page_size=1024, pool_capacity=64,
        level_seal_rows=256,
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_per_run_indexes_on_every_table_shape(shape, tmp_path, monkeypatch):
    """A B+Tree and an R-Tree declared on a table of any shape hold through
    an insert, a seal, an update, a delete, a merge, ``compact()`` and a
    reopen (after which they are declared again): after every step each
    indexed scan equals the model, probes the runs' indexes, and reads
    fewer pages than the full scan."""
    lookups = []
    for cls, name in ((FieldIndex, "positions_in_range"),
                      (SpatialIndex, "positions_in_box")):
        method = getattr(cls, name)
        monkeypatch.setattr(
            cls, name,
            lambda self, *a, _m=method: lookups.append(1) or _m(self, *a),
        )
    path = str(tmp_path / "db")
    store = open_shape_store(path)
    store.create_table("T", SHAPE_SCHEMA, layout=SHAPES[shape])
    table = store.load("T", SHAPE_ROWS)
    model = oracle.Model(SHAPE_SCHEMA.names(), SHAPE_ROWS, SHAPES[shape])

    def declare(table):
        table.create_index("x")
        table.create_spatial_index("x", "y")

    def check(step):
        _, full = store.run_cold(lambda: list(table.scan()))
        for predicate in INDEXED:
            del lookups[:]
            _, io = store.run_cold(
                lambda: oracle.check_table(
                    table, model, predicate=predicate, context=step
                )
            )
            assert lookups, (step, predicate)
            assert io.page_reads < full.page_reads, (step, predicate)
        for run in table._entry.runs():
            assert list(run.indexes) == [("x",), ("x", "y")], step

    def merged_since(rids):
        return all(run.rid > max(rids) for run in table._entry.runs())

    declare(table)
    check("load")
    fresh = [(2000 + i, (i * 41) % 1000, (i * 7) % 1000) for i in range(200)]
    table.insert(fresh)
    model.insert(fresh)
    check("insert")
    table.flush_inserts()
    check("seal")
    assert table.update({"y": -1}, Range("x", 100, 102)) == model.update(
        {"y": -1}, Range("x", 100, 102)
    )
    check("update")
    assert table.delete(Range("x", 300, 310)) == model.delete(
        Range("x", 300, 310)
    )
    check("delete")
    rids = [run.rid for run in table._entry.runs()]
    # Tombstones hiding a fifth of every region's rows merge it at once.
    assert table.delete(Range("x", 500, 700)) == model.delete(
        Range("x", 500, 700)
    )
    assert merged_since(rids)
    check("merge")
    table.insert(fresh[:50])
    model.insert(fresh[:50])
    table.flush_inserts()
    table.compact()
    model.compact()
    assert all(region.merged() for region in table.partitions)
    check("compact")
    store.close()
    store = open_shape_store(path)
    table = store.table("T")
    assert store.catalog.entry("T").indexes == ()  # derived: not persisted
    declare(table)
    check("reopen")
    store.close()
