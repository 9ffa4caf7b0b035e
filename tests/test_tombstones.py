"""Updates and deletes on every table shape: tombstones, not rewrites.

* An update or a delete renders no page on a flat, a partitioned or a
  composed table: it filters the pending rows, appends updated rows after
  them, and leaves tombstones that scans resolve and the next merge folds
  in — unless a region holds tombstones for a tenth of its rows, which
  then merges at once, whatever its level policy.
* A tombstone finds a row holding a NaN, before and after a reopen.
* Scans of a tombstoned region never hand a deleted row on; positional
  access and secondary indexes do not see them either.
* ``compact()`` merges one region per transaction.
* ``storage_stats()`` reports tombstones for every shape.
* Planning a query, an adaptation check and the lazy policy's trigger
  open no table source: estimates come from stored counts, even where an
  exact count would need a resolving scan.
"""

import math

import pytest

import oracle
from test_compression import NUMPY_LEGS, numpy_set
from repro.engine import levels
from repro.engine.database import RodentStore
from repro.engine.table import Table
from repro.query import Q
from repro.query.expressions import Range
from repro.types import Schema

SCHEMA = Schema.of("id:int", "v:int", "w:int")
ROWS = [(i, i % 4, i) for i in range(400)]

#: Every table shape: flat row and column stores, a router, and a router
#: over a level policy.
SHAPES = [
    "T",
    "columns(T)",
    "partition[r.v](T)",
    "partition[id; range, 200](levels[2; 2](rows(T)))",
]


def make_store(**kwargs):
    kwargs.setdefault("page_size", 1024)
    kwargs.setdefault("level_seal_rows", 10_000)
    return RodentStore(**kwargs)


def ledger(store) -> dict:
    return store.storage_stats()["tables"]["T"]["write_amplification"]


def runs_of(table) -> list:
    return [id(run) for region in table.partitions for run in region.runs]


#: A folded design: its runs hold rows un-nested from fewer records.
FOLDED = "fold[id, w; v](T)"


@pytest.mark.parametrize("numpy_on", NUMPY_LEGS)
@pytest.mark.parametrize("layout", SHAPES + [FOLDED])
def test_updates_and_deletes_render_no_page(layout, numpy_on):
    with numpy_set(numpy_on):
        updates_and_deletes_render_no_page(layout)


def updates_and_deletes_render_no_page(layout):
    store = make_store()
    store.create_table("T", SCHEMA, layout=layout)
    table = store.load("T", ROWS)
    model = oracle.Model(SCHEMA.names(), ROWS, layout)
    table.insert([(1000 + i, i % 4, i) for i in range(8)])
    model.insert([(1000 + i, i % 4, i) for i in range(8)])
    written, runs = ledger(store)["bytes_written"], runs_of(table)
    for n in range(3):
        hit = Range("id", 10 * n, 10 * n + 4)
        assert table.update({"w": 7}, hit) == model.update({"w": 7}, hit)
        hit = Range("id", 1000 + n, 1000 + n)  # a pending row
        assert table.delete(hit) == model.delete(hit) == 1
        hit = Range("id", 300 + n, 300 + n)
        assert table.delete(hit) == model.delete(hit) == 1
    assert ledger(store)["bytes_written"] == written
    assert runs_of(table) == runs
    assert store.storage_stats()["tables"]["T"]["tombstones"] > 0
    oracle.check_table(table, model)
    oracle.check_table(table, model, predicate=Range("w", 7, 7))
    oracle.check_table(table, model, ["id"], Range("id", 0, 50), ["id"])

    table.compact()
    model.compact()
    assert store.storage_stats()["tables"]["T"]["tombstones"] == 0
    assert all(region.merged() for region in table.partitions)
    assert ledger(store)["bytes_written"] > written
    oracle.check_table(table, model)
    store.close()


@pytest.mark.parametrize("layout", ["T", "levels[2; 2](rows(T))"])
def test_a_region_reclaims_its_tombstones_at_a_tenth_of_its_rows(layout):
    """A region merges in the delete that takes its tombstones to a tenth
    of its rows — a levelled one too, whose cascade runs only after seals,
    so deletes alone would never fold its tombstones in."""
    store = make_store()
    store.create_table("T", SCHEMA, layout=layout)
    table = store.load("T", ROWS)
    (region,) = table.partitions
    table.delete(Range("id", 0, 38))
    assert len(region.level_tombstones) == 39
    written = ledger(store)["bytes_written"]
    table.delete(Range("id", 39, 39))  # the 40th row: a tenth of 400
    assert ledger(store)["bytes_written"] > written
    assert not region.level_tombstones and region.merged()
    assert table.row_count == 360
    assert sorted(table.scan()) == ROWS[40:]
    store.close()


def test_a_region_reclaims_by_the_rows_its_tombstones_hide():
    """A row-valued tombstone hides every equal row: nine single-value
    deletes from 1 000 rows holding 10 distinct values are 9 tombstones
    hiding 900 rows. Reclaim counts the hidden rows, so the first delete
    already merges, and no scan resolves the dead rows afterwards."""
    rows = [(i % 10, i % 10, i % 10) for i in range(1000)]
    store = make_store()
    store.create_table("T", SCHEMA, layout="T")
    table = store.load("T", rows)
    model = oracle.Model(SCHEMA.names(), rows, "T")
    for value in range(9):
        hit = Range("id", value, value)
        assert table.delete(hit) == model.delete(hit) == 100
    (region,) = table.partitions
    assert len(region.runs) == 1 and not region.level_tombstones
    assert region.hidden == 0 and table.row_count == 100
    oracle.check_table(table, model)
    store.close()


def test_keyed_tombstones_that_hide_no_run_row_are_reclaimed():
    """Under a merge key, deleting a key that lives only in the pending rows
    still writes a tombstone (an older version may sit in a run). Such
    tombstones hide no run row, so they count for themselves: the region
    merges once they number a tenth of its run rows."""
    store = make_store()
    store.create_table("T", SCHEMA, layout="levels[2; 2; r.id](rows(T))")
    table = store.load("T", ROWS[:100])
    (region,) = table.partitions
    for k in range(40):
        table.insert([(1000 + k, 0, 0)])
        table.delete(Range("id", 1000 + k, 1000 + k))
        assert len(region.level_tombstones) < 10
    assert region.hidden == 0
    assert sorted(table.scan()) == ROWS[:100]
    store.close()


NAN_SCHEMA = Schema.of("id:int", "v:int", "x:float")
NAN_ROWS = [(i, i % 4, math.nan if i % 5 == 0 else i / 2) for i in range(400)]


def shown(table) -> list:
    """The scan, NaN shown as text so that equal answers compare equal."""
    return sorted((r[0], r[1], repr(r[2])) for r in table.scan())


@pytest.mark.parametrize("numpy_on", NUMPY_LEGS)
@pytest.mark.parametrize("layout", SHAPES)
def test_a_tombstone_finds_a_row_holding_nan(tmp_path, layout, numpy_on):
    """NaN equals nothing, itself included, and every scan decodes a fresh
    float: a row-valued tombstone must still hide the row it was written
    for, through a reopen and until a merge drops both."""
    path = str(tmp_path / "db")

    def reopen():
        return RodentStore(
            path, durable=True, page_size=1024, level_seal_rows=10_000
        )

    want = [
        (i, v, repr(7.0 if i == 10 else x))
        for i, v, x in NAN_ROWS if i != 5
    ]
    with numpy_set(numpy_on):
        store = reopen()
        store.create_table("T", NAN_SCHEMA, layout=layout)
        table = store.load("T", NAN_ROWS)
        assert table.delete(Range("id", 5, 5)) == 1  # (5, 1, nan)
        assert table.update({"x": 7.0}, Range("id", 10, 10)) == 1  # (10, 2, nan)
        assert store.storage_stats()["tables"]["T"]["tombstones"] == 2
        assert shown(table) == want
        store.close()
        store = reopen()
        table = store.table("T")
        assert shown(table) == want
        table.compact()
        assert store.storage_stats()["tables"]["T"]["tombstones"] == 0
        assert shown(table) == want
        store.close()
        store = reopen()
        assert shown(store.table("T")) == want
        store.close()


def test_only_rows_matched_in_runs_leave_tombstones():
    store = make_store()
    store.create_table("T", SCHEMA)
    table = store.load("T", ROWS)
    (region,) = table.partitions
    for n in range(5):  # the same rows, in the pending buffer from n = 1
        assert table.update({"w": n}, Range("id", 0, 9)) == 10
    assert len(region.level_tombstones) == 10
    assert sorted(table.scan(predicate=Range("id", 0, 9))) == [
        (i, i % 4, 4) for i in range(10)
    ]
    store.close()


def test_positional_access_and_indexes_skip_deleted_rows():
    store = make_store()
    store.create_table("T", SCHEMA)
    table = store.load("T", ROWS)
    table.create_index("id")
    (run,) = table.partitions[0].runs
    index = run.indexes[("id",)]
    table.delete(Range("id", 0, 4))
    assert table.partitions[0].runs == [run]  # the index survives the rewrite
    assert table.get_element(0) == ROWS[5]
    assert [table.next() for _ in range(2)] == ROWS[6:8]
    (access,) = table.scan_access(predicate=Range("id", 0, 6)).runs.values()
    assert access[1].probed is index  # probed; the tombstones resolve it
    assert list(table.scan(predicate=Range("id", 0, 6))) == ROWS[5:7]
    store.close()

    store = make_store()
    store.create_table("T", SCHEMA, layout="grid[id, v],[100, 4](T)")
    table = store.load("T", ROWS)
    cell = table.get_element((0, 0))
    table.delete(Range("id", 0, 3))
    assert sorted(table.get_element((0, 0))) == sorted(
        r for r in cell if r[0] > 3
    )
    store.close()


def test_a_comparison_selects_before_the_tombstones_apply(monkeypatch):
    """A range cannot raise, so a tombstoned run hands the resolver only
    the rows it keeps; a scalar condition, which can, sees no deleted row
    because the resolver gets every row first."""
    from repro.algebra.parser import parse_condition
    from repro.query.expressions import from_scalar

    store = make_store()
    store.create_table("T", SCHEMA)
    table = store.load("T", ROWS)
    table.delete(Range("id", 15, 15))
    screened = []
    survivors = levels._LevelResolver.survivors

    def spy(self, batch):
        screened.append(batch.n_rows)
        return survivors(self, batch)

    monkeypatch.setattr(levels._LevelResolver, "survivors", spy)
    hit = Range("id", 10, 19)
    assert hit.total
    assert sorted(table.scan(predicate=hit)) == ROWS[10:15] + ROWS[16:20]
    assert sum(screened) == 10
    screened.clear()
    condition = from_scalar(parse_condition("w % 7 = 1"))  # prunes nothing
    assert not condition.total
    assert sorted(table.scan(predicate=condition)) == [
        r for r in ROWS if r[2] % 7 == 1 and r[0] != 15
    ]
    assert sum(screened) == len(ROWS)
    store.close()


def test_compact_merges_one_region_per_transaction():
    store = make_store()
    store.create_table("T", SCHEMA, layout="partition[r.v](T)")
    table = store.load("T", ROWS)
    table.insert([(1000, 0, 0), (1001, 2, 0)])  # two regions to merge

    def commits() -> int:
        return store.obs["transactions.txns_committed"]

    before = commits()
    table.compact()
    assert commits() - before == 2
    assert all(region.merged() for region in table.partitions)
    before = commits()
    table.compact()  # nothing to merge: no transaction at all
    assert commits() == before
    store.close()


def test_a_step_rechecks_its_region(monkeypatch):
    """A region a concurrent write left merged is skipped by its step."""
    store = make_store()
    store.create_table("T", SCHEMA, layout="partition[r.v](T)")
    table = store.load("T", ROWS)
    table.insert([(1000, 0, 0), (1001, 1, 0)])
    first, second = table.partitions[:2]
    merged = []
    merge = levels.merge

    def merge_both(table, region, *args, **kwargs):
        # The first step's merge also merges the second region, as a
        # writer that won the table lock in between would.
        merged.append(region)
        out = merge(table, region, *args, **kwargs)
        if region is first:
            with store.mutate("T") as m:
                merge(table, second, list(second.runs), m, pending=True)
        return out

    monkeypatch.setattr(levels, "merge", merge_both)
    table.compact()
    assert merged == [first]
    assert sorted(table.scan()) == sorted(ROWS + [(1000, 0, 0), (1001, 1, 0)])
    store.close()


@pytest.mark.parametrize(
    "layout",
    ["partition[r.v](T)", "partition[id; range, 200](levels[2; 2](rows(T)))"],
)
def test_storage_stats_count_tombstones_per_partition(layout):
    store = make_store()
    store.create_table("T", SCHEMA, layout=layout)
    table = store.load("T", ROWS)
    table.delete(Range("id", 0, 2))
    table.delete(Range("id", 300, 300))
    info = store.storage_stats()["tables"]["T"]
    per_partition = {p["pid"]: p["tombstones"] for p in info["partitions"]}
    assert per_partition == {
        r.pid: len(r.level_tombstones) for r in table.partitions
    }
    assert sum(per_partition.values()) == info["tombstones"] == 4
    table.compact()
    info = store.storage_stats()["tables"]["T"]
    assert info["tombstones"] == 0
    assert {p["tombstones"] for p in info["partitions"]} == {0}
    store.close()


def test_storage_stats_count_tombstones_of_a_flat_table():
    store = make_store()
    store.create_table("T", SCHEMA)
    store.load("T", ROWS).delete(Range("id", 5, 7))
    info = store.storage_stats()["tables"]["T"]
    assert info["tombstones"] == 3 and "partitions" not in info
    store.close()


@pytest.mark.parametrize(
    "layout", ["levels[2; 2; id](rows(T))", "T", "partition[r.v](T)", FOLDED]
)
def test_planning_opens_no_table_source(layout, monkeypatch):
    """A keyed levelled table would need a resolving scan for an exact row
    count: planning uses the stored count instead, and only the execution
    opens a source. A multiset table holding a tombstone stores its exact
    count, so ``row_count`` opens none either."""
    store = make_store(level_seal_rows=32)
    store.create_table("T", SCHEMA, layout=layout)
    table = store.table("T")
    if "levels" in layout:
        for n in range(4):
            table.insert([(i, n, n) for i in range(40)])  # versions of keys
    else:
        store.load("T", ROWS)
    table.delete(Range("id", 3, 3))
    opened = []
    source = Table._table_source

    def spy(self, needed, predicate, access=None):
        opened.append(predicate)
        return source(self, needed, predicate, access)

    monkeypatch.setattr(Table, "_table_source", spy)
    query = Q(store, "T").where(Range("id", 5, 5))
    query.explain()
    if "levels" not in layout:
        assert table.row_count == len(ROWS) - 1
    assert opened == []
    want = (5, 3, 3) if "levels" in layout else ROWS[5]
    if layout == FOLDED:
        want = (want[1], want[0], want[2])
    assert query.run() == [want]
    assert len(opened) == 1 and opened[0] is not None
    store.close()


def test_adaptation_checks_open_no_table_source(monkeypatch):
    """The statistics-drift test of an adaptation check and the lazy
    policy's unmerged share read the catalog's estimate, not the pages, on
    a flat table holding tombstones."""
    store = make_store()
    store.create_table("T", SCHEMA)
    table = store.load("T", ROWS)
    for _ in range(20):
        list(table.scan(fieldlist=["id", "v", "w"]))
    table.delete(Range("id", 0, 9))
    assert table.estimated_row_count() == 390
    opened = []
    source = Table._table_source

    def spy(self, needed, predicate, access=None):
        opened.append(predicate)
        return source(self, needed, predicate, access)

    monkeypatch.setattr(Table, "_table_source", spy)
    decision = store.adaptivity.check("T", force=True)
    assert decision["adapted"] is False, decision
    store.adaptivity.reorganizer._lazy_due("T", 1)
    assert opened == []
    store.close()


KEYED = "levels[2; 2; r.id](rows(T))"


def test_a_key_only_pending_rows_hold_leaves_no_tombstone():
    """A keyed delete of a key no run's zones can hold removes pending rows
    only, and writes no tombstone: 40 insert-then-delete pairs of new keys
    leave the loaded run as it was (one tombstone per key made the region
    merge again and again). A key a run does hold, its newer version
    pending, still takes one."""
    store = make_store()
    store.create_table("T", SCHEMA, layout=KEYED)
    table = store.load("T", ROWS[:100])
    model = oracle.Model(SCHEMA.names(), ROWS[:100], KEYED)
    (region,) = table.partitions
    for key in range(1000, 1040):
        row = [(key, key % 4, key)]
        table.insert(row)
        model.insert(row)
        assert table.delete(Range("id", key, key)) == 1
        model.delete(Range("id", key, key))
    assert [run.rid for run in region.runs] == [0]
    assert not region.level_tombstones and not region.pending
    oracle.check_table(table, model)
    table.update({"w": -1}, Range("id", 5, 5))
    model.update({"w": -1}, Range("id", 5, 5))
    assert table.delete(Range("id", 5, 5)) == model.delete(Range("id", 5, 5))
    assert {key for _, key in region.level_tombstones} == {5}
    oracle.check_table(table, model)
    store.close()
