"""Levelled (LSM) storage combinator: ``levels[k; ratio](inner)``.

Covers the full surface of the levelled physical design:

* algebra — parse/round-trip/validation of ``levels`` (with and without a
  merge key), placement: a router over regions with a level policy, so
  ``partition`` may wrap ``levels`` and nothing else wraps either, and a
  level policy may hold any run design, a mirror's included;
* mechanics — seal-on-threshold, size-tiered merges that respect the
  fan-out, laminar level structure (a merge never interleaves sequence
  ranges), immutable runs;
* semantics — multiset vs keyed last-writer-wins resolution, tombstoned
  deletes that survive merges only while an older run remains, updates;
* the incremental pending-zone synopsis (regression: interleaved
  insert/delete must never leave the zone stale — a stale-narrow zone
  would wrongly prune pending rows);
* write-amplification accounting in ``storage_stats()``;
* persistence — a durable store reopens with the identical level
  structure, tombstones, and sequence counters;
* adaptation — the controller's read-heavy merge and run-design re-choice
  triggers;
* background compaction on the shared worker pool;
* composition — ``partition[k](levels[f; n](inner))`` takes every write,
  cascades per region, adapts one partition and reopens, equal to the
  oracle throughout.
"""

import math
import os
import random
import shutil
import tempfile
import time

import pytest

import oracle
from repro.algebra import ast
from repro.algebra.parser import parse
from repro.engine import levels
from repro.engine.database import RodentStore
from repro.errors import AlgebraError, TypeCheckError
from repro.query.expressions import Range
from repro.types import Schema

SCHEMA = Schema.of("id:int", "v:int")


def make_store(**kwargs):
    kwargs.setdefault("page_size", 1024)
    kwargs.setdefault("level_seal_rows", 32)
    return RodentStore(**kwargs)


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def test_levels_parse_roundtrip():
    for text in (
        "levels[4; 4](rows(T))",
        "levels[2; 8](columns(T))",
        "levels[3; 2; r.id](orderby[id](T))",
    ):
        node = parse(text)
        assert isinstance(node, ast.Levels)
        assert parse(node.to_text()).to_text() == node.to_text()


def test_levels_builder_and_bounds():
    node = ast.levels(ast.table("T"), k=2, ratio=2)
    assert node.k == 2 and node.ratio == 2 and node.key is None
    with pytest.raises(AlgebraError):
        ast.Levels(ast.table("T"), k=1, ratio=4)
    with pytest.raises(AlgebraError):
        ast.Levels(ast.table("T"), k=4, ratio=65)


def test_levels_must_be_outermost():
    """Nothing but a partition wraps a level policy."""
    store = make_store()
    with pytest.raises(AlgebraError):
        store.create_table(
            "T", SCHEMA, layout="columns(levels[2; 2](T))"
        )
    store.close()


KSCHEMA = Schema.of("id:int", "k:int", "v:int")
COMPOSED = "partition[r.k; range, 50](levels[4; 4](T))"


def test_partition_composes_over_levels():
    """The router sits outside the level policy: a partition of levelled
    regions compiles (keyed when the partition key is the merge key);
    the reverse, a wrapped level policy and a keyed level policy routed
    by another field do not."""
    store = make_store()
    store.create_table("T", KSCHEMA, layout=COMPOSED)
    plan = store.table("T").plan
    assert plan.partition.bounds == (50,) and plan.levels.k == 4
    assert plan.region_design.expr.to_text() == "T"
    store.create_table("U", KSCHEMA, layout="partition[r.id](levels[2; 2; r.id](U))")
    assert store.table("U").plan.levels.key_field == "id"
    for layout, error in (
        ("levels[4; 4](partition[r.k; range, 50](V))", AlgebraError),
        ("columns(levels[4; 4](V))", AlgebraError),
        ("partition[r.k](levels[2; 2; r.id](V))", TypeCheckError),
    ):
        with pytest.raises(error):
            store.create_table("V", KSCHEMA, layout=layout)
        assert not store.catalog.has("V")
    store.close()


@pytest.mark.parametrize(
    "layout",
    [
        "levels[2; 2](mirror(rows(T), columns(T)))",
        "levels[2; 2; r.id](mirror(orderby[id](T), columns(T)))",
        "partition[r.k; range, 50](levels[2; 2](mirror(delta[v](T), columns(T))))",
    ],
)
def test_levels_over_a_mirror_take_every_write_and_reopen(tmp_path, layout):
    """Every run of a levelled mirror holds both replicas: inserts that
    seal, a delete, an update, the cascade and a full compaction read the
    cheaper replica and render both, equal to the oracle after each step,
    scrubbed clean, and again after a reopen."""
    path = str(tmp_path / "db")
    store = make_store(path=path, durable=True, level_seal_rows=8)
    store.create_table("T", KSCHEMA, layout=layout)
    table = store.table("T")
    model = oracle.Model(KSCHEMA.names(), [], layout)

    def check(table):
        oracle.check_table(table, model)
        oracle.check_table(table, model, ["v", "id"], Range("k", 10, 40))

    for start in range(0, 120, 20):
        rows = [(i, i % 100, i) for i in range(start, start + 20)]
        table.insert(rows)
        model.insert(rows)
    check(table)
    assert all(
        len(run.layout.mirrors) == 2 for run in store.catalog.entry("T").runs()
    )
    for change in (
        lambda t: t.delete(Range("id", 3, 9)),
        lambda t: t.update({"v": -1}, Range("id", 30, 45)),
    ):
        assert change(table) == change(model) > 0
        check(table)
    store.compact_levels("T")
    check(table)
    table.compact()
    check(table)
    assert store.scrub()["clean"]
    store.close()
    store = make_store(path=path, durable=True, level_seal_rows=8)
    check(store.table("T"))
    assert store.scrub()["clean"]
    store.close()


@pytest.fixture
def no_reclaim(monkeypatch):
    """Tombstones wait for the cascade or ``compact()``: no delete merges
    its region at once, however much of it the delete takes (the tables
    here are a few runs of a few rows)."""
    monkeypatch.setattr(levels, "RECLAIM_FRACTION", math.inf)


@pytest.mark.usefixtures("no_reclaim")
def test_partitioned_levels_take_every_write_and_reopen(tmp_path):
    """``partition[r.k; range, 50](levels[4; 4](T))`` through a load,
    inserts, a non-key update, a delete, one partition's cascade, a full
    compaction, a re-layout of one levelled partition and a reopen — equal
    to the oracle after every step, and scrubbed clean at the end."""
    path = str(tmp_path / "db")

    def open_store():
        return make_store(path=path, durable=True, level_seal_rows=8)

    store = open_store()
    store.create_table("T", KSCHEMA, layout=COMPOSED)
    rows = [(i, i % 100, i) for i in range(0, 200, 2)]
    table = store.load("T", rows)
    model = oracle.Model(KSCHEMA.names(), rows, COMPOSED)

    def check(table):
        oracle.check_table(table, model)
        oracle.check_table(table, model, predicate=Range("k", 10, 40))
        oracle.check_table(
            table, model, ["v", "k"], Range("id", 50, 120), order=["id"]
        )

    check(table)
    entry = store.catalog.entry("T")
    low, high = entry.regions
    assert [len(r.runs) for r in entry.regions] == [1, 1]

    # A non-key update and a delete: tombstones only where they match.
    update = ({"v": -1}, Range("id", 0, 30))
    assert table.update(*update) == model.update(*update) > 0
    assert table.delete(Range("k", 0, 20)) == model.delete(Range("k", 0, 20))
    assert low.level_tombstones and not high.level_tombstones
    check(table)

    # Each region seals its own full buffer; inserts into one partition
    # seal and cascade there alone.
    low_runs, low_pending = list(low.runs), list(low.pending)
    for b in range(4):
        batch = [(1000 + 10 * b + j, 50 + j, b) for j in range(10)]
        table.insert(batch)
        model.insert(batch)
    assert low.runs == low_runs and low.pending == low_pending
    assert not high.pending
    assert [run.level for run in high.runs if run.level < 2] == [1]
    check(table)

    table.compact()
    model.compact()
    assert [len(r.runs) for r in entry.regions] == [1, 1]
    assert not low.level_tombstones and not low.pending
    check(table)

    # One levelled partition takes a new run design; the table keeps its
    # router and level policy, and later seals render under the new one.
    store.relayout_partition("T", low.pid, "columns(T)")
    assert entry.regions[0].plan.kind == "columns"
    assert entry.regions[1].plan.kind == "rows"
    assert entry.plan.expr.to_text() == parse(COMPOSED).to_text()
    batch = [(2000 + j, j, j) for j in range(12)]
    table.insert(batch)
    model.insert(batch)
    assert table.delete(Range("id", 2000, 2003)) == model.delete(
        Range("id", 2000, 2003)
    )
    check(table)
    assert entry.regions[0].level_tombstones
    manifest = [
        ([(r.rid, r.level, r.plan.kind) for r in region.runs],
         list(region.level_tombstones), len(region.pending))
        for region in entry.regions
    ]
    store.close()

    store = open_store()
    table = store.table("T")
    entry = store.catalog.entry("T")
    assert [
        ([(r.rid, r.level, r.plan.kind) for r in region.runs],
         list(region.level_tombstones), len(region.pending))
        for region in entry.regions
    ] == manifest
    assert entry.regions[0].plan.kind == "columns"
    check(table)
    assert store.scrub()["clean"]
    store.close()


# ---------------------------------------------------------------------------
# seal / merge mechanics
# ---------------------------------------------------------------------------


def test_seal_on_threshold_and_fanout_merge():
    store = make_store(level_seal_rows=10)
    store.create_table("T", SCHEMA, layout="levels[2; 2](rows(T))")
    t = store.table("T")
    # One batch under the threshold stays pending; reaching it seals.
    t.insert([(i, i) for i in range(9)])
    assert t.run_count == 0
    t.insert([(9, 9)])
    assert t.run_count == 1
    # A second seal reaches fan-out k=2 at level 0 and triggers a merge
    # into level 1 — the laminar invariant: partial merges promote by
    # exactly one level, never past it.
    t.insert([(10 + i, i) for i in range(10)])
    entry = store.catalog.entry("T")
    assert [r.level for r in entry.regions[0].runs] == [1]
    model = oracle.Model(SCHEMA.names(), [(i, i) for i in range(10)],
                         "levels[2; 2](rows(T))")
    model.insert([(10 + i, i) for i in range(10)])
    oracle.check_table(t, model)
    oracle.check_table(t, model, predicate=Range("id", 5, 14), order=["v"])
    assert t.row_count == 20
    store.close()


def test_runs_are_immutable_and_sorted_by_seq():
    store = make_store(level_seal_rows=5)
    store.create_table("T", SCHEMA, layout="levels[8; 2](rows(T))")
    t = store.table("T")
    for b in range(4):
        t.insert([(b * 5 + i, b) for i in range(5)])
    entry = store.catalog.entry("T")
    assert len(entry.regions[0].runs) == 4
    seqs = [r.max_seq for r in entry.regions[0].runs]
    assert seqs == sorted(seqs)  # manifest oldest-first
    rids = {r.rid for r in entry.regions[0].runs}
    assert len(rids) == 4
    store.close()


def test_full_compaction_single_run():
    store = make_store(level_seal_rows=8)
    store.create_table("T", SCHEMA, layout="levels[3; 2](rows(T))")
    t = store.table("T")
    rows = [(i, i * 7) for i in range(60)]
    for i in range(0, 60, 8):
        t.insert(rows[i : i + 8])
    t.insert([(100, 1)])  # leave something pending too
    t.compact()
    entry = store.catalog.entry("T")
    assert t.run_count == 1
    assert entry.regions[0].pending == [] and entry.regions[0].level_tombstones == []
    assert sorted(t.scan()) == sorted(rows + [(100, 1)])
    store.close()


# ---------------------------------------------------------------------------
# multiset + keyed semantics, tombstones
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("no_reclaim")
def test_multiset_delete_tombstones_until_merge():
    store = make_store(level_seal_rows=10)
    store.create_table("T", SCHEMA, layout="levels[8; 2](rows(T))")
    t = store.table("T")
    for b in range(3):
        t.insert([(b * 10 + i, b) for i in range(10)])
    entry = store.catalog.entry("T")
    n = t.delete(Range("id", 5, 14))  # straddles two sealed runs
    assert n == 10
    assert entry.regions[0].level_tombstones, "sealed rows need tombstones"
    expected = sorted((i, i // 10) for i in range(30) if not 5 <= i <= 14)
    assert sorted(t.scan()) == expected
    t.compact()
    # A full merge applies every tombstone physically and drops them all.
    assert entry.regions[0].level_tombstones == []
    assert sorted(t.scan()) == expected
    store.close()


def test_keyed_upsert_last_writer_wins():
    store = make_store(level_seal_rows=6)
    store.create_table(
        "K", Schema.of("k:int", "x:int"),
        layout="levels[2; 2; r.k](rows(K))",
    )
    kt = store.table("K")
    rng = random.Random(11)
    truth: dict[int, int] = {}
    for _ in range(12):
        batch = [(rng.randrange(20), rng.randrange(999)) for _ in range(6)]
        for k, x in batch:
            truth[k] = x
        kt.insert(batch)
        assert sorted(kt.scan()) == sorted(truth.items())
    kt.compact()
    assert kt.run_count == 1
    assert sorted(kt.scan()) == sorted(truth.items())
    # Upserting after the merge still shadows the merged copy.
    kt.insert([(0, -5)])
    truth[0] = -5
    assert sorted(kt.scan()) == sorted(truth.items())
    store.close()


def test_keyed_delete_kills_all_versions():
    store = make_store(level_seal_rows=4)
    store.create_table(
        "K", Schema.of("k:int", "x:int"),
        layout="levels[8; 2; r.k](rows(K))",
    )
    kt = store.table("K")
    for version in range(3):  # same keys re-upserted across three runs
        kt.insert([(k, version) for k in range(4)])
    assert kt.delete(Range("k", 1, 2)) == 2
    assert sorted(kt.scan()) == [(0, 2), (3, 2)]
    kt.compact()
    assert sorted(kt.scan()) == [(0, 2), (3, 2)]
    # A post-delete upsert of a deleted key must resurrect it.
    kt.insert([(1, 99)] * 1)
    kt.flush_inserts()
    assert sorted(kt.scan()) == [(0, 2), (1, 99), (3, 2)]
    store.close()


def test_update_on_levelled_table():
    store = make_store(level_seal_rows=10)
    store.create_table("T", SCHEMA, layout="levels[4; 2](rows(T))")
    t = store.table("T")
    t.insert([(i, 0) for i in range(25)])
    n = t.update({"v": lambda r: r["id"] * 2}, Range("id", 10, 12))
    assert n == 3
    expected = sorted(
        (i, i * 2 if 10 <= i <= 12 else 0) for i in range(25)
    )
    assert sorted(t.scan()) == expected
    t.compact()
    assert sorted(t.scan()) == expected
    store.close()


@pytest.mark.usefixtures("no_reclaim")
def test_tombstone_gc_after_partial_merge():
    store = make_store(level_seal_rows=5)
    store.create_table("T", SCHEMA, layout="levels[2; 2](rows(T))")
    t = store.table("T")
    t.insert([(i, 0) for i in range(5)])       # run 1
    t.delete(Range("id", 0, 1))                 # tombstones vs run 1
    entry = store.catalog.entry("T")
    assert entry.regions[0].level_tombstones
    # Two more seals force merges; once no run predates a tombstone it
    # must be garbage-collected from the manifest.
    t.insert([(10 + i, 0) for i in range(5)])
    t.insert([(20 + i, 0) for i in range(5)])
    t.compact()
    assert entry.regions[0].level_tombstones == []
    assert sorted(t.scan()) == sorted(
        [(i, 0) for i in range(2, 5)]
        + [(10 + i, 0) for i in range(5)]
        + [(20 + i, 0) for i in range(5)]
    )
    store.close()


# ---------------------------------------------------------------------------
# pending-zone synopsis (regression: interleaved insert/delete)
# ---------------------------------------------------------------------------


def test_pending_zone_incremental_after_interleaved_insert_delete():
    """The pending-buffer zone is maintained incrementally and must stay a
    sound over-approximation of the buffer through any interleaving of
    inserts and deletes — a stale-narrow zone would make ``may_match``
    prune live pending rows out of predicate scans."""
    store = make_store(level_seal_rows=10_000)  # never seals: all pending
    store.create_table("T", SCHEMA, layout="levels[4; 2](rows(T))")
    t = store.table("T")
    entry = store.catalog.entry("T")
    rng = random.Random(3)
    live: list[tuple] = []
    next_id = 0
    for step in range(30):
        if rng.random() < 0.6 or not live:
            batch = [
                (next_id + j, rng.randrange(1000)) for j in range(5)
            ]
            next_id += 5
            t.insert(batch)
            live.extend(batch)
        else:
            lo = rng.randrange(next_id)
            pred = Range("id", lo, lo + 7)
            t.delete(pred)
            live = [r for r in live if not lo <= r[0] <= lo + 7]
        # Soundness: every live pending row is covered by the zone, so a
        # point query for it can never be wrongly pruned.
        zone = entry.regions[0].pending_zone
        if live:
            assert zone is not None
            for row in rng.sample(live, min(4, len(live))):
                assert sorted(
                    t.scan(predicate=Range("id", row[0], row[0]))
                ) == sorted(
                    r for r in live if r[0] == row[0]
                )
        assert sorted(t.scan()) == sorted(live)
    store.close()


def test_pending_zone_incremental_not_rebuilt_on_delete():
    """A delete folds only the update-produced rows into the existing
    zone (O(changes)); the object is reused, not rebuilt from scratch."""
    store = make_store(level_seal_rows=10_000)
    store.create_table("T", SCHEMA, layout="levels[4; 2](rows(T))")
    t = store.table("T")
    entry = store.catalog.entry("T")
    t.insert([(i, i) for i in range(50)])
    zone_before = entry.regions[0].pending_zone
    assert zone_before is not None
    t.delete(Range("id", 40, 49))
    # maintained in place
    assert entry.regions[0].pending_zone is zone_before
    # ...and still covers every survivor (over-approximation is fine).
    ids = entry.regions[0].pending_zone.fields["id"]
    assert ids.mins[0] <= 0 and ids.maxs[0] >= 39
    assert sorted(t.scan()) == [(i, i) for i in range(40)]
    store.close()


def test_flush_inserts_seals_and_resets_pending_zone():
    store = make_store(level_seal_rows=10_000)
    store.create_table("T", SCHEMA, layout="levels[4; 2](rows(T))")
    t = store.table("T")
    entry = store.catalog.entry("T")
    t.insert([(i, i) for i in range(20)])
    assert entry.regions[0].pending_zone is not None
    layout = t.flush_inserts()
    assert layout is not None and t.run_count == 1
    # The seal renders an exact per-run synopsis; the buffer zone resets
    # so post-flush bounds reflect only newly pending rows.
    assert len(entry.regions[0].pending) == 0
    assert entry.regions[0].pending_zone is None
    t.insert([(1000, 1)])
    assert entry.regions[0].pending_zone.fields["id"].mins == [1000]
    store.close()


# ---------------------------------------------------------------------------
# write amplification + stats
# ---------------------------------------------------------------------------


def test_storage_stats_write_amplification():
    store = make_store(level_seal_rows=8)
    store.create_table("T", SCHEMA, layout="levels[2; 2](rows(T))")
    t = store.table("T")
    for i in range(0, 64, 8):
        t.insert([(i + j, j) for j in range(8)])
    info = store.storage_stats()["tables"]["T"]
    assert info["levelled"] is True
    assert info["run_count"] == len(info["runs"])
    wa = info["write_amplification"]
    assert wa["bytes_ingested"] > 0
    # Merges rewrote pages beyond first ingest: amplification > 1.
    assert wa["bytes_written"] > wa["bytes_ingested"]
    assert wa["factor"] > 1.0
    assert wa["compactions"] >= 1
    assert wa["pages_rewritten_by_compaction"] > 0
    store.close()


@pytest.mark.parametrize(
    "layout",
    ["rows(T)", "partition[r.v](T)", "levels[2; 2](rows(T))"],
)
def test_every_render_is_charged_to_the_ledger(layout):
    """One ledger for every shape: whatever replaces runs — a flush or a
    seal, a compaction or a merge — moves ``bytes_written``; only first
    renders of new rows move ``bytes_ingested``; an update replaces none."""
    store = make_store(level_seal_rows=10_000)
    store.create_table("T", SCHEMA, layout=layout)
    t = store.load("T", [(i, i % 4) for i in range(400)])
    model = oracle.Model(SCHEMA.names(), [(i, i % 4) for i in range(400)], layout)

    def ledger():
        return store.storage_stats()["tables"]["T"]["write_amplification"]

    loaded = ledger()
    assert loaded["bytes_written"] == loaded["bytes_ingested"] > 0
    t.insert([(1000 + i, i % 4) for i in range(50)])
    t.flush_inserts()
    model.insert([(1000 + i, i % 4) for i in range(50)])
    flushed = ledger()
    assert flushed["bytes_written"] > loaded["bytes_written"]
    assert flushed["bytes_written"] == flushed["bytes_ingested"]
    # An update renders nothing (tombstone + pending row) until the
    # compaction below, whatever the shape.
    assert t.update({"id": 5000}, Range("id", 7, 7)) == 1
    model.update({"id": 5000}, Range("id", 7, 7))
    assert ledger() == flushed
    t.compact()
    model.compact()
    final = ledger()
    assert final["bytes_ingested"] == flushed["bytes_ingested"]
    assert final["bytes_written"] > flushed["bytes_written"]
    assert final["factor"] > 1.0
    oracle.check_table(t, model)
    oracle.check_table(t, model, predicate=Range("v", 1, 2), order=["id"])
    store.close()


def test_levelled_ingest_writes_less_than_pending_and_compact():
    """Why levelled storage exists: at equal volume, seals plus
    size-tiered merges write fewer pages than a flat table that compacts
    its pending rows whenever a seal's worth has gathered — a compaction
    rewrites the whole table every time."""
    rng = random.Random(7)
    records = [(i, rng.randrange(10_000)) for i in range(6_000)]
    seal = 600
    flat = make_store(level_seal_rows=seal)
    flat.create_table("B", SCHEMA, layout="rows(B)")
    flat.load("B", [])
    levelled = make_store(level_seal_rows=seal)
    levelled.create_table("L", SCHEMA, layout="levels[4; 4](rows(L))")
    b, lv = flat.table("B"), levelled.table("L")
    for start in range(0, len(records), 200):
        batch = records[start : start + 200]
        b.insert(batch)
        if b.unmerged_row_count >= seal:
            b.compact()
        lv.insert(batch)
    b.compact()
    lv.compact()
    assert sorted(b.scan()) == sorted(lv.scan()) == records

    def written(store, name):
        return store.storage_stats()["tables"][name]["write_amplification"][
            "bytes_written"
        ]

    assert written(levelled, "L") < written(flat, "B")
    flat.close()
    levelled.close()


# ---------------------------------------------------------------------------
# persistence: durable reopen preserves the level structure
# ---------------------------------------------------------------------------


def test_durable_reopen_preserves_levels():
    d = tempfile.mkdtemp()
    try:
        path = os.path.join(d, "db")
        store = RodentStore(
            path, page_size=1024, level_seal_rows=8, durable=True
        )
        store.create_table("T", SCHEMA, layout="levels[2; 2](rows(T))")
        t = store.table("T")
        rows = [(i, i) for i in range(40)]
        for i in range(0, 40, 8):
            t.insert(rows[i : i + 8])
        t.delete(Range("id", 0, 4))
        t.insert([(100, 100)])  # stays pending across the reopen
        entry = store.catalog.entry("T")
        manifest = [
            (r.rid, r.level, r.max_seq) for r in entry.regions[0].runs
        ]
        tombs = list(entry.regions[0].level_tombstones)
        next_ids = (entry.next_run_id, entry.next_run_seq)
        expected = sorted(rows[5:] + [(100, 100)])
        assert sorted(t.scan()) == expected
        store.close()

        reopened = RodentStore(
            path, page_size=1024, level_seal_rows=8, durable=True
        )
        entry2 = reopened.catalog.entry("T")
        assert [
            (r.rid, r.level, r.max_seq) for r in entry2.regions[0].runs
        ] == manifest
        assert list(entry2.regions[0].level_tombstones) == tombs
        assert (entry2.next_run_id, entry2.next_run_seq) == next_ids
        t2 = reopened.table("T")
        assert sorted(t2.scan()) == expected
        # The reopened store keeps ingesting and merging correctly.
        t2.insert([(200 + i, 0) for i in range(8)])
        assert sorted(t2.scan()) == sorted(
            expected + [(200 + i, 0) for i in range(8)]
        )
        reopened.close()
    finally:
        shutil.rmtree(d)


# ---------------------------------------------------------------------------
# adaptation
# ---------------------------------------------------------------------------


def test_adaptive_read_heavy_merge():
    store = make_store(level_seal_rows=8)
    store.create_table("T", SCHEMA, layout="levels[8; 2](rows(T))")
    t = store.table("T")
    for b in range(4):
        t.insert([(b * 8 + i, b) for i in range(8)])
    assert t.run_count == 4
    # Reads drain the decayed write load; the forced check must then fold
    # the fragmented manifest into one run (or re-choose the run design —
    # either way the store converges to a single run).
    for _ in range(30):
        list(t.scan(predicate=Range("id", 0, 31)))
    decision = store.adapt("T")
    assert decision["adapted"] is True
    assert t.run_count == 1
    assert sorted(t.scan()) == sorted((b * 8 + i, b) for b in range(4) for i in range(8))
    store.close()


def test_adaptive_holds_merge_while_ingest_hot():
    store = make_store(level_seal_rows=8, adaptive=True, adapt_interval=4)
    store.create_table("T", SCHEMA, layout="levels[8; 2](rows(T))")
    t = store.table("T")
    for b in range(3):
        t.insert([(b * 8 + i, b) for i in range(8)])
    list(t.scan())  # one observation; write load still dominates
    store.adaptivity.min_observations = 1
    decision = store.adaptivity.check("T")
    assert decision["adapted"] is False
    assert decision["reason"].startswith("ingest-hot (write load 23.5 rows)")
    assert t.run_count == 3  # background cadence owns the merge
    store.close()


# ---------------------------------------------------------------------------
# background compaction
# ---------------------------------------------------------------------------


def test_background_compaction_with_workers():
    store = make_store(level_seal_rows=16, scan_workers=3)
    store.create_table("T", SCHEMA, layout="levels[2; 2](rows(T))")
    t = store.table("T")
    rows = [(i, i) for i in range(400)]
    for i in range(0, 400, 16):
        t.insert(rows[i : i + 16])
        # Concurrent range queries while merges run in the background.
        got = sorted(t.scan(predicate=Range("id", 0, 7)))
        assert got == [(j, j) for j in range(8)]
    deadline = time.time() + 5.0
    while time.time() < deadline:
        entry = store.catalog.entry("T")
        counts: dict[int, int] = {}
        for r in entry.regions[0].runs:
            counts[r.level] = counts.get(r.level, 0) + 1
        if all(c < 2 for c in counts.values()):
            break
        time.sleep(0.02)
    assert sorted(t.scan()) == rows
    oracle.check_table(
        t, oracle.Model(SCHEMA.names(), rows, "levels[2; 2](rows(T))"),
        predicate=Range("id", 100, 180),
    )
    store.close()  # joins any in-flight merge


def test_relayout_between_levelled_and_flat():
    store = make_store(level_seal_rows=8)
    store.create_table("T", SCHEMA, layout="levels[2; 2](rows(T))")
    t = store.table("T")
    rows = [(i, i) for i in range(30)]
    t.insert(rows)
    store.relayout("T", "columns(T)")
    t = store.table("T")
    assert t.plan.levels is None
    assert sorted(t.scan()) == rows
    store.relayout("T", "levels[4; 4](columns(T))")
    t = store.table("T")
    assert t.plan.levels is not None and t.run_count == 1
    assert sorted(t.scan()) == rows
    store.close()
