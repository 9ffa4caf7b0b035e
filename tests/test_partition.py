"""Horizontally partitioned tables: routing, pruning, parallelism, and
per-partition adaptation.

Covers the partitioned storage stack end to end:

* range / hash / value routing (load + inserts agree; regions persist);
* whole-partition pruning from predicate ranges (before zone maps load);
* parallel partition scans — byte-identical to serial, workers joined on
  ``close()``;
* per-partition adaptive re-layouts (hot partitions diverge, cold keep);
* differential equivalence (batch ≡ model ≡ planned) across all of it;
* the compaction ordering regression the partition work surfaced
  (``structural_residual`` must re-establish a sorted design's order).
"""

from __future__ import annotations

import random
import threading

import pytest

import oracle
from repro.engine.database import RodentStore
from repro.errors import AlgebraError, StorageError
from repro.layout.partitioning import PartitionRouter, stable_hash
from repro.query.expressions import And, Range, Rect
from repro.types.schema import Schema

SCHEMA = Schema.of("t:int", "x:int", "g:int")


def make_records(n=600, seed=5):
    rng = random.Random(seed)
    return [
        (rng.randrange(400), rng.randrange(100), rng.randrange(8))
        for _ in range(n)
    ]


def build(layout, records, **kwargs):
    store = RodentStore(page_size=512, pool_capacity=128, **kwargs)
    store.create_table("T", SCHEMA, layout=layout)
    return store, store.load("T", records)


def assert_equivalent(store, rows, predicate=None, fieldlist=None, order=None):
    """batch ≡ the model of ``rows`` ≡ planned."""
    table = store.table("T")
    model = oracle.Model(SCHEMA.names(), rows, table.plan.expr.to_text())
    batch = [
        row
        for rows in table.scan_batches(
            fieldlist=fieldlist, predicate=predicate, order=order
        )
        for row in rows
    ]
    oracle.check_scan(batch, model, fieldlist, predicate, order)
    q = store.query("T")
    if fieldlist:
        q = q.select(*fieldlist)
    if predicate is not None:
        q = q.where(predicate)
    if order:
        q = q.order_by(*order)
    assert q.run() == batch
    return batch


# ---------------------------------------------------------------------------
# algebra / plan level
# ---------------------------------------------------------------------------


class TestPartitionAlgebra:
    def test_parse_roundtrip(self):
        from repro.algebra.parser import parse

        for text in [
            "partition[r.g](T)",
            "partition[r.t; range, 0, 100, 200](orderby[t](T))",
            "partition[r.g; hash, 8](columns(T))",
        ]:
            expr = parse(text)
            assert parse(expr.to_text()) == expr

    def test_bad_specs_rejected(self):
        from repro.algebra import ast

        with pytest.raises(AlgebraError):
            ast.partition("t", ast.table("T"), method="range", args=())
        with pytest.raises(AlgebraError):
            ast.partition(
                "t", ast.table("T"), method="range", args=(5, 5)
            )
        with pytest.raises(AlgebraError):
            ast.partition("t", ast.table("T"), method="hash", args=(0,))
        with pytest.raises(AlgebraError):
            ast.partition("t", ast.table("T"), method="shard", args=(2,))

    def test_partition_must_be_outermost(self):
        store = RodentStore(page_size=512)
        with pytest.raises(AlgebraError):
            store.create_table(
                "T", SCHEMA, layout="columns(partition[r.g; hash, 2](T))"
            )

    def test_partitions_cannot_nest(self):
        store = RodentStore(page_size=512)
        with pytest.raises(Exception):
            store.create_table(
                "T",
                SCHEMA,
                layout="partition[r.g](partition[r.t; hash, 2](T))",
            )

    def test_stable_hash_deterministic(self):
        assert stable_hash(3) == stable_hash(3.0)
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash(None) == 0


# ---------------------------------------------------------------------------
# routing and scans
# ---------------------------------------------------------------------------


class TestPartitionedScans:
    @pytest.mark.parametrize(
        "layout",
        [
            "partition[r.t; range, 100, 200, 300](T)",
            "partition[r.t; range, 100, 200, 300](orderby[t](T))",
            "partition[r.g; hash, 4](columns(T))",
            "partition[r.g](T)",
            "partition[r.t; range, 200](grid[t, x],[50, 25](T))",
            "partition[r.g; hash, 3](fold[t, x; g](T))",
        ],
    )
    def test_full_scan_is_lossless(self, layout):
        records = make_records()
        store, table = build(layout, records)
        scan_names = table.scan_schema().names()
        logical = table.logical_schema.names()
        idx = [logical.index(n) for n in scan_names]
        want = sorted(tuple(r[i] for i in idx) for r in records)
        assert sorted(table.scan()) == want
        if "fold" not in layout:
            # (folded layouts count folded records, matching the
            # unpartitioned behavior)
            assert table.row_count == len(records)
        store.close()

    def test_range_regions_cover_fixed_buckets(self):
        records = make_records()
        store, table = build(
            "partition[r.t; range, 100, 200, 300](T)", records
        )
        assert table.partition_count == 4
        bounds = [(r.lower, r.upper) for r in table.partitions]
        assert bounds == [
            (None, 100.0),
            (100.0, 200.0),
            (200.0, 300.0),
            (300.0, None),
        ]
        store.close()

    def test_hash_regions_eager_and_routed(self):
        records = make_records()
        store, table = build(
            "partition[r.g; hash, 4](T)", records
        )
        assert table.partition_count == 4
        for region in table.partitions:
            for row in store.table("T")._region_rows(region):
                assert stable_hash(row[2]) % 4 == region.key
        store.close()

    def test_value_partitions_first_seen_order(self):
        records = [(1, 0, 5), (2, 0, 3), (3, 0, 5), (4, 0, 1)]
        store, table = build("partition[r.g](T)", records)
        assert [r.key for r in table.partitions] == [5, 3, 1]
        # Scan order groups by first-seen key, like grouped rows used to.
        assert list(table.scan()) == [
            (1, 0, 5),
            (3, 0, 5),
            (2, 0, 3),
            (4, 0, 1),
        ]
        store.close()

    def test_expression_key_routes_consistently(self):
        records = make_records()
        store, table = build("partition[r.t % 5](T)", records)
        assert table.partition_count == 5
        assert sorted(table.scan()) == sorted(records)
        table.insert([(401, 1, 2)])
        assert sorted(table.scan()) == sorted(records + [(401, 1, 2)])
        store.close()

    def test_differential_equivalence(self):
        records = make_records()
        store, table = build(
            "partition[r.t; range, 100, 200, 300](orderby[t](T))", records
        )
        table.insert(records[:40])
        table.flush_inserts()
        table.insert(records[40:60])
        for predicate in [
            None,
            Range("t", 50, 150),
            Rect({"t": (0, 99), "x": (10, 60)}),
            And(Range("t", 120, 380), Range("g", 2, 5)),
        ]:
            rows = records + records[:60]
            assert_equivalent(store, rows, predicate)
            assert_equivalent(store, rows, predicate, fieldlist=["x", "g"])
            assert_equivalent(
                store, rows, predicate, order=[("x", False), ("t", True)]
            )
        store.close()

    def test_range_partition_serves_order(self):
        records = make_records()
        store, table = build(
            "partition[r.t; range, 100, 200, 300](orderby[t](T))", records
        )
        assert table.order_satisfied(["t"])
        got = [r[0] for r in table.scan(order=["t"])]
        assert got == sorted(r[0] for r in records)
        # Pending rows break the guarantee until compaction.
        table.insert([(50, 1, 1)])
        assert not table.order_satisfied(["t"])
        table.compact()
        assert table.order_satisfied(["t"])
        store.close()

    def test_secondary_indexes_per_partition(self):
        """Every partition's run holds its own trees, and a scan probes
        each (equal to the model of the rows)."""
        records = make_records(400)
        store, table = build("partition[r.g; hash, 2](T)", records)
        table.create_index("t")
        table.create_spatial_index("t", "x")
        assert [list(r.indexes) for r in table._entry.runs()] == [
            [("t",), ("t", "x")]
        ] * 2
        box = Rect({"t": (0, 90), "x": (0, 9)})
        for predicate in (Range("t", 20, 40), box):
            assert table.access_path(predicate=predicate)[0] == "index"
            assert_equivalent(store, records, predicate)
        store.close()


# ---------------------------------------------------------------------------
# partition pruning
# ---------------------------------------------------------------------------


class TestPartitionPruning:
    def test_range_pruning_skips_partitions_and_pages(self):
        records = make_records(800)
        store, table = build(
            "partition[r.t; range, 100, 200, 300](T)", records
        )
        predicate = Range("t", 10, 50)
        assert table.partitions_pruned(predicate) == 3
        # Zone maps off: only partition pruning skips pages, without even
        # consulting per-page synopses. The scan reads one partition of
        # four.
        store.zone_pruning = False
        _, io_pruned = store.run_cold(
            lambda: list(table.scan(predicate=predicate))
        )
        _, io_full = store.run_cold(lambda: list(table.scan()))
        store.zone_pruning = True
        assert io_pruned.page_reads < io_full.page_reads
        store.close()

    def test_value_and_hash_point_pruning(self):
        records = make_records(400)
        store, table = build("partition[r.g](T)", records)
        n = table.partition_count
        assert table.partitions_pruned(Range("g", 2, 2)) == n - 1
        store.close()

        store, table = build("partition[r.g; hash, 4](T)", records)
        assert table.partitions_pruned(Range("g", 3, 3)) == 3
        # A non-point range cannot pin a hash bucket.
        assert table.partitions_pruned(Range("g", 2, 5)) == 0
        store.close()

    def test_pruning_never_changes_answers(self):
        records = make_records(500, seed=9)
        store, table = build(
            "partition[r.t; range, 80, 160, 240, 320](columns(T))", records
        )
        table.insert([(50, 1, 1), (350, 2, 2)])
        for lo, hi in [(0, 79), (100, 110), (330, 400), (399, 399)]:
            assert_equivalent(
                store, records + [(50, 1, 1), (350, 2, 2)], Range("t", lo, hi)
            )
        store.close()

    def test_counters_and_explain(self):
        records = make_records(300)
        store, table = build(
            "partition[r.t; range, 100, 200, 300](T)", records
        )
        predicate = Range("t", 0, 50)
        list(table.scan(predicate=predicate))
        stats = store.storage_stats()["tables"]["T"]
        assert stats["partitioned"] and stats["partition_count"] == 4
        assert stats["partition_scans"] >= 1
        assert stats["partitions_pruned"] >= 3
        explain = str(store.query("T").where(predicate).explain())
        assert "partitions_pruned=3" in explain
        store.close()


# ---------------------------------------------------------------------------
# parallel scans
# ---------------------------------------------------------------------------


class TestParallelScans:
    def test_parallel_equals_serial(self):
        records = make_records(900, seed=13)
        store, table = build(
            "partition[r.t; range, 50, 100, 150, 200, 250, 300, 350](T)",
            records,
        )
        table.insert(records[:30])
        for predicate in [None, Range("t", 60, 260)]:
            store.scan_workers = 0
            serial = [
                row
                for rows in table.scan_batches(predicate=predicate)
                for row in rows
            ]
            store.scan_workers = 4
            parallel = [
                row
                for rows in table.scan_batches(predicate=predicate)
                for row in rows
            ]
            assert parallel == serial
        store.close()

    def test_planner_uses_parallel_operator(self):
        records = make_records(300)
        store, table = build(
            "partition[r.t; range, 100, 200](T)", records, scan_workers=4
        )
        explain = str(store.query("T").explain())
        assert "workers=4" in explain
        rows = store.query("T").where(Range("t", 0, 399)).run()
        assert sorted(rows) == sorted(records)
        store.scan_workers = 0
        assert "workers=" not in str(store.query("T").explain())
        store.close()

    def test_abandoned_parallel_scan_drains_workers(self):
        records = make_records(600)
        store, table = build(
            "partition[r.t; range, 100, 200, 300](T)",
            records,
            scan_workers=4,
        )
        batches = table.scan_batches()
        next(batches)
        batches.close()  # abandon mid-scan: futures must be drained
        assert sorted(table.scan()) == sorted(records)
        store.close()

    def test_close_joins_scan_threads(self):
        before = threading.active_count()
        records = make_records(400)
        store, table = build(
            "partition[r.t; range, 100, 200, 300](T)",
            records,
            scan_workers=4,
        )
        list(table.scan())
        assert threading.active_count() > before
        store.close()
        assert threading.active_count() == before
        store.close()  # idempotent


# ---------------------------------------------------------------------------
# inserts, compaction, re-layouts
# ---------------------------------------------------------------------------


class TestPartitionMaintenance:
    def test_insert_routes_to_owning_partition(self):
        store, table = build(
            "partition[r.t; range, 100, 200](T)", make_records(200)
        )
        table.insert([(10, 1, 1), (150, 2, 2), (500, 3, 3), (20, 4, 4)])
        pending = {r.describe_key(): len(r.pending) for r in table.partitions}
        assert pending == {
            "[-inf, 100)": 2,
            "[100, 200)": 1,
            "[200, +inf)": 1,
        }
        table.flush_inserts()
        assert all(not r.pending for r in table.partitions)
        assert table.unmerged_row_count == 4
        store.close()

    def test_compact_touches_only_dirty_partitions(self):
        records = make_records(400)
        store, table = build(
            "partition[r.t; range, 100, 200, 300](T)", records
        )
        untouched = [
            r.main.layout for r in table.partitions if r.lower == 100.0
        ]
        table.insert([(10, 1, 1)])  # only the first partition is dirty
        table.compact()
        still = [
            r.main.layout for r in table.partitions if r.lower == 100.0
        ]
        assert untouched == still  # same object: region was not re-rendered
        assert table.unmerged_row_count == 0
        store.close()

    def test_relayout_partition_single_region(self):
        records = make_records(500)
        store, table = build(
            "partition[r.t; range, 100, 200, 300](T)", records
        )
        target = table.partitions[1]
        before = store.disk.stats.snapshot()
        store.relayout_partition("T", target.pid, "columns(T)")
        delta = store.disk.stats.delta(before)
        # Only that region's pages moved (a whole-table rewrite would read
        # 4x as much).
        region_pages = table.partitions[1].total_pages()
        assert delta.page_writes <= region_pages + 4
        assert table.partitions[1].plan.kind == "columns"
        assert {r.plan.kind for r in table.partitions} == {"rows", "columns"}
        assert sorted(table.scan()) == sorted(records)
        assert_equivalent(store, records, Range("t", 50, 250))
        store.close()

    def test_relayout_partition_rejects_lossy_and_partitioned(self):
        store, table = build(
            "partition[r.t; range, 100](T)", make_records(100)
        )
        pid = table.partitions[0].pid
        with pytest.raises(StorageError):
            store.relayout_partition("T", pid, "project[t, x](T)")
        with pytest.raises(StorageError):
            store.relayout_partition("T", pid, "partition[r.g; hash, 2](T)")
        store.close()

    def test_failed_region_relayout_leaves_region_intact(self):
        records = make_records(200)
        store, table = build(
            "partition[r.t; range, 100, 200](T)", records
        )
        region = table.partitions[0]
        region_rows = sorted(store.table("T")._region_rows(region))
        table.insert([(10, 7, 7)])  # pending row in the target region
        plan_before = region.plan

        # Force a render-time failure (e.g. a record not fitting a page
        # under the new design) deterministically.
        def boom(*args, **kwargs):
            raise StorageError("render failed")

        original = store.renderer.render_region
        store.renderer.render_region = boom
        try:
            with pytest.raises(StorageError):
                store.relayout_partition("T", region.pid, "columns(T)")
        finally:
            store.renderer.render_region = original
        # The region is untouched: old plan, old layout, pending intact.
        assert region.plan is plan_before
        assert len(region.pending) == 1
        assert sorted(store.table("T")._region_rows(region)) == sorted(
            region_rows + [(10, 7, 7)]
        )
        assert sorted(table.scan()) == sorted(records + [(10, 7, 7)])
        store.close()

    def test_reload_resets_partition_skew(self):
        records = make_records(200)
        store, table = build(
            "partition[r.t; range, 100, 200](T)", records
        )
        for _ in range(5):
            list(table.scan(predicate=Range("t", 0, 50)))
        monitor = store.catalog.entry("T").monitor
        assert monitor.partition_weights()
        store.load("T", records)  # reload rebuilds the partition map
        assert monitor.partition_weights() == {}
        store.close()

    def test_whole_table_relayout_to_and_from_partitioned(self):
        records = make_records(300)
        store, table = build("columns(T)", records)
        table.insert([(500, 1, 1)])
        store.relayout("T", "partition[r.t; range, 100, 200](orderby[t](T))")
        table = store.table("T")
        assert table.is_partitioned and table.partition_count == 3
        assert sorted(table.scan()) == sorted(records + [(500, 1, 1)])
        store.relayout("T", "T")
        table = store.table("T")
        assert not table.is_partitioned
        assert sorted(table.scan()) == sorted(records + [(500, 1, 1)])
        store.close()


# ---------------------------------------------------------------------------
# per-partition adaptation
# ---------------------------------------------------------------------------


class TestPartitionAdaptivity:
    def test_hot_partition_diverges_cold_keeps(self):
        rng = random.Random(3)
        records = [
            (i, rng.randrange(1000), rng.randrange(40)) for i in range(4000)
        ]
        store = RodentStore(page_size=1024, pool_capacity=256)
        store.create_table(
            "T",
            Schema.of("t:int", "x:int", "g:int"),
            layout="partition[r.t; range, 1000, 2000, 3000](T)",
        )
        table = store.load("T", records)
        for _ in range(40):  # hammer the first partition with projections
            list(table.scan(fieldlist=["x"], predicate=Range("t", 0, 900)))
        decision = store.adapt("T")
        assert decision["adapted"], decision
        assert decision["relayout_partitions"] == [0]
        assert set(decision["kept_partitions"]) == {1, 2, 3}
        kinds = {r.pid: r.plan.expr.to_text() for r in table.partitions}
        assert kinds[0] != kinds[1]  # hot diverged, cold kept the template
        assert kinds[1] == kinds[2] == kinds[3]
        # Answers unchanged after the partial re-layout and re-check.
        assert sorted(table.scan()) == sorted(records)
        assert_equivalent(store, records, Range("t", 500, 1500), fieldlist=["x"])
        again = store.adapt("T")
        assert not again["adapted"]  # stable: no thrash on re-check
        store.close()

    def test_skew_report_and_reorg_counters(self):
        records = make_records(800)
        store, table = build(
            "partition[r.t; range, 100, 200, 300](T)", records
        )
        for _ in range(10):
            list(table.scan(predicate=Range("t", 0, 50)))
        report = store.storage_stats()["adaptivity"]["tables"]["T"]
        skew = report["partition_skew"]
        hottest = max(skew, key=skew.get)
        assert table.partitions[0].pid == hottest
        store.close()


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


class TestPartitionPersistence:
    def test_round_trip(self, tmp_path):
        records = make_records(400)
        db = str(tmp_path / "db.pages")
        cat = str(tmp_path / "catalog.json")
        store = RodentStore(path=db, page_size=1024)
        store.create_table(
            "T", SCHEMA, layout="partition[r.t; range, 100, 200](T)"
        )
        table = store.load("T", records)
        store.relayout_partition("T", table.partitions[2].pid, "columns(T)")
        table.insert([(50, 1, 1), (250, 2, 2)])
        table.flush_inserts()
        table.insert([(150, 3, 3)])
        list(table.scan(predicate=Range("t", 0, 60)))
        store.save_catalog(cat)
        store.close()

        reopened = RodentStore.open(db, cat, page_size=1024)
        t2 = reopened.table("T")
        assert t2.is_partitioned and t2.partition_count == 3
        assert t2.partitions[2].plan.kind == "columns"
        assert sorted(t2.scan()) == sorted(
            records + [(50, 1, 1), (250, 2, 2), (150, 3, 3)]
        )
        assert t2.partitions_pruned(Range("t", 0, 60)) == 2
        # Skew survives the reopen.
        monitor = reopened.catalog.entry("T").monitor
        assert monitor is not None and monitor.partition_weights()
        assert_equivalent(
            reopened,
            records + [(50, 1, 1), (250, 2, 2), (150, 3, 3)],
            Range("t", 120, 260),
        )
        reopened.close()


# ---------------------------------------------------------------------------
# the compaction-order regression (pre-existing bug fixed by this refactor)
# ---------------------------------------------------------------------------


class TestCompactKeepsOrder:
    def test_sorted_table_stays_sorted_after_compact(self):
        store = RodentStore(page_size=512)
        store.create_table(
            "T", Schema.of("t:int", "x:int"), layout="orderby[t](T)"
        )
        table = store.load("T", [(5, 0), (1, 1), (9, 2)])
        table.insert([(3, 3), (0, 4)])
        table.flush_inserts()
        table.compact()
        rows = list(store.table("T").scan())
        assert [r[0] for r in rows] == [0, 1, 3, 5, 9]
        # The sorted-range pruning path must see every matching row.
        assert sorted(store.table("T").scan(predicate=Range("t", 0, 3))) == [
            (0, 4),
            (1, 1),
            (3, 3),
        ]
        store.close()
