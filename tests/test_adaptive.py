"""Tests for the adaptive loop: monitor decay, hysteresis, policies,
persistence, and the end-to-end monitor → advise → reorganize cycle."""

from __future__ import annotations

import random

import pytest

import oracle
from repro.engine.database import RodentStore
from repro.engine.levels import merge_regions
from repro.errors import RodentStoreError
from repro.optimizer.monitor import WorkloadMonitor, access_signature
from repro.optimizer.reorganize import Policy
from repro.optimizer.workload import Query, Workload
from repro.query.expressions import Range, Rect
from repro.types.schema import Schema

SCHEMA = Schema.of("t:int", "g:int", "v:int", "w:int")


def make_records(n: int) -> list[tuple]:
    return [(i, i % 10, (i * 7) % 100, (i * 3) % 50) for i in range(n)]


def make_store(n: int = 4000, **kwargs) -> RodentStore:
    store = RodentStore(page_size=1024, pool_capacity=64, **kwargs)
    store.create_table("T", SCHEMA)
    store.load("T", make_records(n))
    return store


# ---------------------------------------------------------------------------
# WorkloadMonitor: decay math and pattern folding
# ---------------------------------------------------------------------------


class TestMonitorDecay:
    def test_first_observation_has_unit_weight(self):
        monitor = WorkloadMonitor("T", decay=0.9)
        key = monitor.observe(("v",), None, ())
        assert monitor.patterns[key].weight == pytest.approx(1.0)
        assert monitor.ticks == 1

    def test_repeat_observation_accumulates_with_decay(self):
        monitor = WorkloadMonitor("T", decay=0.9)
        key = monitor.observe(("v",), None, ())
        monitor.observe(("v",), None, ())
        # w = 1 * 0.9**1 + 1
        assert monitor.patterns[key].weight == pytest.approx(1.9)
        monitor.observe(("v",), None, ())
        assert monitor.patterns[key].weight == pytest.approx(1.9 * 0.9 + 1)

    def test_idle_pattern_fades_against_new_shape(self):
        monitor = WorkloadMonitor("T", decay=0.5)
        old = monitor.observe(("t",), None, ())
        for _ in range(10):
            new = monitor.observe(("v",), None, ())
        now = monitor.ticks
        old_w = monitor.patterns[old].decayed_weight(now, monitor.decay)
        new_w = monitor.patterns[new].decayed_weight(now, monitor.decay)
        assert old_w < 0.01
        assert new_w > 1.5

    def test_same_template_different_constants_is_one_pattern(self):
        monitor = WorkloadMonitor("T")
        k1 = monitor.observe(("v",), Range("t", 0, 10), ())
        k2 = monitor.observe(("v",), Range("t", 50, 90), ())
        assert k1 == k2
        assert len(monitor.patterns) == 1
        # Representative ranges are the running envelope.
        assert monitor.patterns[k1].ranges["t"] == (0, 90)

    def test_distinct_shapes_are_distinct_patterns(self):
        monitor = WorkloadMonitor("T")
        k1 = monitor.observe(("v",), Range("t", 0, 10), ())
        k2 = monitor.observe(("v", "w"), Range("t", 0, 10), ())
        k3 = monitor.observe(("v",), Range("t", 0, 10), (("t", True),))
        assert len({k1, k2, k3}) == 3

    def test_result_cardinality_decayed_mean(self):
        monitor = WorkloadMonitor("T")
        key = monitor.observe(("v",), None, ())
        monitor.record_result(key, 100)
        assert monitor.patterns[key].avg_rows == pytest.approx(100.0)
        monitor.record_result(key, 200)
        assert monitor.patterns[key].avg_rows == pytest.approx(
            0.8 * 100 + 0.2 * 200
        )

    def test_to_workload_carries_decayed_weights(self):
        monitor = WorkloadMonitor("T", decay=0.5)
        monitor.observe(("t",), None, ())
        for _ in range(5):
            monitor.observe(("v",), Range("t", 0, 10), ())
        workload = monitor.to_workload()
        assert workload.table == "T"
        assert workload.queries  # dominant pattern first
        dominant = workload.queries[0]
        assert dominant.fieldlist == ("v",)
        assert dominant.predicate is not None
        assert dominant.predicate.ranges() == {"t": (0, 10)}
        weights = [q.weight for q in workload.queries]
        assert weights == sorted(weights, reverse=True)

    def test_estimation_feedback_q_error(self):
        monitor = WorkloadMonitor("T")
        monitor.record_estimate(100.0, 100.0)
        assert monitor.feedback.mean_q_error == pytest.approx(1.0)
        monitor.record_estimate(10.0, 100.0)
        assert monitor.feedback.mean_q_error > 1.5

    def test_pattern_cap_is_enforced(self):
        from repro.optimizer.monitor import MAX_PATTERNS

        monitor = WorkloadMonitor("T", decay=0.999)  # barely fades
        for i in range(MAX_PATTERNS + 64):
            monitor.observe((f"f{i}",), None, ())
        assert len(monitor.patterns) <= MAX_PATTERNS
        # The newest pattern survives its own insertion's compaction.
        newest_key, _, _ = access_signature(
            (f"f{MAX_PATTERNS + 63}",), None, ()
        )
        assert newest_key in monitor.patterns

    def test_signature_ignores_residual_constants(self):
        key1, ranges1, _ = access_signature(("v",), Range("t", 1, 2), ())
        key2, ranges2, _ = access_signature(("v",), Range("t", 5, 9), ())
        assert key1 == key2
        assert ranges1 != ranges2

    def test_monitor_round_trip(self):
        monitor = WorkloadMonitor("T", decay=0.7)
        key = monitor.observe(("v",), Rect({"t": (0, 10), "g": (1, 3)}), ())
        monitor.record_result(key, 42)
        monitor.record_estimate(40.0, 42.0)
        restored = WorkloadMonitor.from_dict(monitor.to_dict())
        assert restored.table == "T"
        assert restored.decay == pytest.approx(0.7)
        assert restored.ticks == monitor.ticks
        assert set(restored.patterns) == set(monitor.patterns)
        pattern = restored.patterns[key]
        assert pattern.ranges == {"t": (0, 10), "g": (1, 3)}
        assert pattern.avg_rows == pytest.approx(42.0)
        assert restored.feedback.samples == 1


# ---------------------------------------------------------------------------
# Workload decayed merge
# ---------------------------------------------------------------------------


class TestWorkloadMerge:
    def test_merge_decays_existing_and_accumulates_matching(self):
        seed = Workload("T").add(
            Query("q0", fieldlist=("v",), predicate=Range("t", 0, 10), weight=4.0)
        )
        observed = Workload("T").add(
            Query("o0", fieldlist=("v",), predicate=Range("t", 20, 30), weight=1.0)
        ).add(Query("o1", fieldlist=("w",), weight=2.0))
        merged = seed.merge_decayed(observed, decay=0.5)
        assert len(merged.queries) == 2
        same_template = merged.queries[0]
        assert same_template.weight == pytest.approx(4.0 * 0.5 + 1.0)
        # Newer constants win for the matched template.
        assert same_template.predicate.ranges() == {"t": (20, 30)}
        assert merged.queries[1].weight == pytest.approx(2.0)

    def test_merge_rejects_other_table(self):
        with pytest.raises(ValueError):
            Workload("A").merge_decayed(Workload("B"))


# ---------------------------------------------------------------------------
# AdaptiveController: hysteresis, amortization, policies
# ---------------------------------------------------------------------------


class TestHysteresis:
    def test_no_thrash_within_margin(self):
        # At 500 rows the seek term dominates: columns(T) is predicted only
        # marginally cheaper than rows, inside the default 15% margin.
        store = make_store(n=500)
        table = store.table("T")
        for _ in range(20):
            list(table.scan(fieldlist=["v"]))
        before = store.table("T").plan.expr.to_text()
        for _ in range(3):
            decision = store.adapt("T")
            assert decision["adapted"] is False
        assert "hysteresis" in store.adaptivity.decisions["T"]["reason"]
        assert store.table("T").plan.expr.to_text() == before
        assert store.adaptivity.adaptations == 0

    def test_adopted_design_is_stable(self):
        # Once adopted, the new incumbent must win the next checks — the
        # loop settles instead of oscillating.
        store = make_store(n=4000)
        table = store.table("T")
        for _ in range(20):
            list(table.scan(fieldlist=["v"]))
        first = store.adapt("T")
        assert first["adapted"] is True
        assert store.table("T").plan.kind == "columns"
        for _ in range(5):
            list(store.table("T").scan(fieldlist=["v"]))
            decision = store.adapt("T")
            assert decision["adapted"] is False
            assert decision["reason"] == "incumbent is optimal"
        assert store.adaptivity.adaptations == 1

    def test_periodic_check_requires_enabled(self):
        store = make_store(n=4000)  # adaptive defaults to off
        table = store.table("T")
        for _ in range(200):
            list(table.scan(fieldlist=["v"], limit=1))
        assert store.table("T").plan.kind == "rows"
        assert store.adaptivity.checks == 0

    def test_adaptive_flag_is_a_settable_bool(self):
        store = make_store(n=4000, adaptive=True, adapt_interval=5)
        assert store.adaptive is True
        store.adaptive = False  # symmetric with store.zone_pruning
        table = store.table("T")
        for _ in range(40):
            list(table.scan(fieldlist=["v"]))
        assert store.table("T").plan.kind == "rows"
        assert store.adaptivity.checks == 0
        store.adaptive = True
        for _ in range(10):
            list(store.table("T").scan(fieldlist=["v"]))
        assert store.table("T").plan.kind == "columns"

    @pytest.mark.parametrize(
        "durable", [False, True], ids=["memory", "durable"]
    )
    def test_automatic_adaptation_under_a_live_reader(self, tmp_path, durable):
        # An automatic re-layout lands under a mid-iteration reader: the
        # reader keeps reading its pinned snapshot, and the old layout's
        # pages wait for its pin.
        where = {"path": str(tmp_path / "db.pages"), "durable": True}
        store = make_store(
            adaptive=True, adapt_interval=5, **(where if durable else {})
        )
        mvcc = store.catalog.entry("T").mvcc
        reader = store.table("T").scan()
        first = next(reader)  # reader is now live on the row layout
        for _ in range(40):
            list(store.table("T").scan(fieldlist=["v"]))
        assert store.table("T").plan.kind == "columns"  # landed
        assert mvcc.garbage  # the row layout waits for the reader
        rest = list(reader)
        assert [first] + rest == make_records(4000)
        assert not mvcc.garbage  # drained with the reader's pin
        assert store.scrub()["clean"]
        store.close()

    def test_amortization_blocks_rare_workloads(self):
        store = make_store(n=4000, adaptive=True, adapt_interval=4)
        store.adaptivity.min_observations = 1
        store.adaptivity.amortization_queries = 0.001  # nothing amortizes
        table = store.table("T")
        for _ in range(30):
            list(table.scan(fieldlist=["v"]))
        assert store.table("T").plan.kind == "rows"
        assert "not amortized" in store.adaptivity.decisions["T"]["reason"]


class TestPolicyInteraction:
    def test_limited_or_abandoned_scans_do_not_poison_cardinality(self):
        store = make_store(n=1000)
        table = store.table("T")
        for _ in range(3):
            list(table.scan(fieldlist=["v"], limit=1))  # truncated
        it = table.scan(fieldlist=["v"])
        next(it)
        it.close()  # abandoned mid-stream
        monitor = store.catalog.entry("T").monitor
        pattern = next(iter(monitor.patterns.values()))
        assert pattern.avg_rows is None  # nothing recorded yet
        list(table.scan(fieldlist=["v"]))  # one complete unlimited scan
        assert pattern.avg_rows == pytest.approx(1000.0)

    def test_repeated_checks_do_not_reinstall_pending_design(self):
        store = make_store(n=4000)
        store.adaptivity.set_policy("T", "new-data-only")
        table = store.table("T")
        for _ in range(20):
            list(table.scan(fieldlist=["v"]))
        first = store.adapt("T")
        assert first["adapted"] is True
        assert first["applied_immediately"] is False
        # No data moved: a recorded pending design is not an adaptation.
        assert store.adaptivity.adaptations == 0
        for _ in range(3):
            list(store.table("T").scan(fieldlist=["v"]))
            decision = store.adapt("T")
            assert decision["adapted"] is False
            # The design is the table's: the incumbent already.
            assert decision["reason"] == "incumbent is optimal"
        assert store.adaptivity.adaptations == 0  # no fake adaptations

    def test_lazy_policy_defers_until_access_threshold(self):
        store = make_store(n=4000)
        store.adaptivity.set_policy("T", "lazy")
        store.adaptivity.reorganizer.lazy_access_threshold = 3
        store.adaptivity.reorganizer.lazy_unmerged_fraction = 10.0
        table = store.table("T")
        for _ in range(20):
            list(table.scan(fieldlist=["v"]))
        decision = store.adapt("T")
        assert decision["adapted"] is True
        assert decision["applied_immediately"] is False
        # Deferred: the loaded run keeps its design.
        assert store.table("T").main_plan.kind == "rows"
        report = store.storage_stats()["adaptivity"]
        assert report["tables"]["T"]["pending_design"] == "columns(T)"
        # Live accesses trigger the deferred rewrite at the threshold.
        list(store.table("T").scan(fieldlist=["v"]))
        list(store.table("T").scan(fieldlist=["v"]))
        assert store.table("T").main_plan.kind == "rows"
        assert store.adaptivity.adaptations == 0  # nothing moved yet
        list(store.table("T").scan(fieldlist=["v"]))
        assert store.table("T").main_plan.kind == "columns"
        assert store.adaptivity.adaptations == 1  # deferred rewrite fired

    def test_seed_workload_shapes_decisions_before_traffic(self):
        store = make_store(n=4000)
        seed = Workload("T")
        for i in range(5):
            seed.add(Query(f"s{i}", fieldlist=("v",), weight=10.0))
        store.adaptivity.seed_workload(seed)
        # No observed traffic at all: the seed alone drives the advisor.
        decision = store.adapt("T")
        assert decision["adapted"] is True
        assert store.table("T").plan.kind == "columns"

    def test_eager_policy_applies_immediately(self):
        store = make_store(n=4000)
        table = store.table("T")
        for _ in range(20):
            list(table.scan(fieldlist=["v"]))
        decision = store.adapt("T")
        assert decision["adapted"] is True
        assert decision["applied_immediately"] is True
        assert store.table("T").plan.kind == "columns"


# ---------------------------------------------------------------------------
# Decision outcomes for every table shape
# ---------------------------------------------------------------------------

WIDE = Schema.of("t:int", "x:int", "y:int", "z:int", "w:int")
SHAPES = {
    "flat": "T",
    "partitioned": "partition[r.t; range, 2000](T)",
    "levelled": "levels[8; 2](rows(T))",
}


def wide_store(shape: str, n: int = 4000, **options):
    """A 5-column table of ``n`` random rows under ``shape``, after 60
    single-column projections — a workload every shape re-lays out to
    ``columns(T)`` for. ``options`` go to the store."""
    rng = random.Random(1)
    rows = [
        (i, *(rng.randrange(1000) for _ in range(4))) for i in range(n)
    ]
    store = RodentStore(page_size=1024, level_seal_rows=512, **options)
    store.create_table("T", WIDE, layout=SHAPES[shape])
    store.load("T", rows)
    for _ in range(60):
        list(store.table("T").scan(fieldlist=["x"]))
    return store, rows


def region_designs(store: RodentStore) -> list[str]:
    return [r.plan.expr.to_text() for r in store.catalog.entry("T").regions]


def run_designs(store: RodentStore) -> list[str]:
    return [
        run.plan.expr.to_text()
        for region in store.catalog.entry("T").regions for run in region.runs
    ]


class TestDecisionOutcomes:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_relayout_is_charged_as_a_reorganization(self, shape):
        store, _ = wide_store(shape)
        decision = store.adapt("T")
        assert decision["adapted"] is True
        assert set(region_designs(store)) == {"columns(T)"}
        report = store.storage_stats()["adaptivity"]
        # One rewrite per region it rewrites: both partitions are hot.
        assert report["reorganizations"] == (2 if shape == "partitioned" else 1)
        assert report["reorganization_io"]["page_writes"] > 0
        store.close()

    def test_levelled_run_design_rechoice(self):
        store, rows = wide_store("levelled")
        decision = store.adapt("T")
        assert decision["adapted"] is True
        assert decision["relayout_runs"] is True
        entry = store.catalog.entry("T")
        assert entry.plan.expr.to_text() == "levels[8; 2](columns(T))"
        table = store.table("T")
        assert table.run_count == 1
        # Future seals render the new run design too.
        more = [(4000 + i, i, i, i, i) for i in range(512)]
        table.insert(more)
        assert table.run_count == 2
        assert {run.plan.expr.to_text() for run in entry.regions[0].runs} == {
            "columns(T)"
        }
        model = oracle.Model(WIDE.names(), rows + more, "levels[8; 2](columns(T))")
        oracle.check_table(table, model, ["t", "x"], Range("t", 100, 4200))
        oracle.check_table(table, model)
        # The next check keeps the run design and merges the two runs (a
        # forced check waives the ingest-hot hold); then nothing is left.
        again = store.adapt("T")
        assert again["adapted"] is True
        assert "relayout_runs" not in again
        assert table.run_count == 1
        assert entry.plan.expr.to_text() == "levels[8; 2](columns(T))"
        oracle.check_table(table, model, ["t", "x"], Range("t", 100, 4200))
        assert store.adapt("T")["reason"] == "levelled structure already optimal"
        store.close()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rewrite_cost_not_amortized(self, shape):
        store, _ = wide_store(shape)
        store.adaptivity.amortization_queries = 0.001
        before = region_designs(store)
        decision = store.adaptivity.check("T")
        assert decision["adapted"] is False
        assert decision["reason"].startswith("rewrite cost not amortized")
        assert region_designs(store) == before
        assert store.storage_stats()["adaptivity"]["reorganizations"] == 0
        store.close()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_second_check_keeps_the_adopted_design(self, shape):
        store, _ = wide_store(shape)
        assert store.adapt("T")["adapted"] is True
        after = region_designs(store)
        decision = store.adapt("T")
        assert decision["adapted"] is False
        assert region_designs(store) == after
        reason = {
            "flat": "incumbent is optimal",
            "levelled": "levelled structure already optimal",
        }.get(shape)
        if reason is not None:
            assert decision["reason"] == reason
        store.close()

    @pytest.mark.parametrize("design", ["project[t, x](T)", "partition[r.t; range, 10](T)"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_region_design_is_one_layout_of_the_stored_fields(self, shape, design):
        store = RodentStore(page_size=1024, level_seal_rows=512)
        store.create_table("T", WIDE, layout=SHAPES[shape])
        store.load("T", [(i, i, i, i, i) for i in range(100)])
        before = region_designs(store)
        table = store.table("T")
        with pytest.raises(RodentStoreError):
            merge_regions(table, table.partitions[:1], design)
        assert region_designs(store) == before
        store.close()

    def test_levelled_run_merge_not_amortized(self):
        store = RodentStore(page_size=1024, level_seal_rows=8)
        store.create_table("T", Schema.of("id:int", "v:int"), layout="levels[8; 2](rows(T))")
        table = store.table("T")
        for b in range(4):
            table.insert([(b * 8 + i, b) for i in range(8)])
        # Enough scans to drain the decayed write load: reads dominate.
        for _ in range(400):
            list(table.scan(predicate=Range("id", 0, 31)))
        store.adaptivity.amortization_queries = 0.001
        decision = store.adaptivity.check("T")
        assert decision["adapted"] is False
        assert "not amortized" in decision["reason"]
        assert table.run_count == 4
        store.adaptivity.amortization_queries = 200.0
        decision = store.adaptivity.check("T")
        assert decision["adapted"] is True
        assert table.run_count == 1
        store.close()


@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("shape", SHAPES)
def test_every_shape_adapts_under_its_policy(tmp_path, shape, policy):
    """The controller's reorganization is a redesign plus a merge that the
    table's policy schedules, whatever the shape: the decision reports the
    policy set, every region takes the new design, and every later seal
    renders under it; eager merges the old runs now, lazy at its access
    threshold, new-data-only never. Scans answer like the oracle before
    and after a reopen, which keeps the policy."""
    path = str(tmp_path / "db.pages")
    store, rows = wide_store(shape, path=path, durable=True)
    model = oracle.Model(WIDE.names(), rows, SHAPES[shape])
    reorganizer = store.adaptivity.reorganizer
    reorganizer.lazy_access_threshold = 3
    reorganizer.lazy_unmerged_fraction = 10.0  # the access count alone fires
    store.adaptivity.set_policy("T", policy)
    old = run_designs(store)
    decision = store.adapt("T")
    assert decision["adapted"] is True
    assert decision["policy"] == policy.value
    eager = policy is Policy.EAGER
    assert decision["applied_immediately"] is eager
    assert set(region_designs(store)) == {"columns(T)"}
    merged = reorganizer.reorganizations
    assert merged == ({"partitioned": 2}.get(shape, 1) if eager else 0)

    def check(table) -> None:
        with table._db.adaptivity.pause():  # not an access the policy counts
            oracle.check_table(table, model, context=(shape, policy))
            oracle.check_table(
                table, model, ["t", "x"], Range("t", 100, 4200),
                context=(shape, policy),
            )

    table = store.table("T")
    check(table)
    more = [(4000 + i, i, i, i, i) for i in range(512)]
    table.insert(more)
    table.flush_inserts()
    model.insert(more)
    if not eager:
        report = store.storage_stats()["adaptivity"]["tables"]["T"]
        assert report["pending_design"] == "columns(T)"
    fired = []
    for _ in range(3):
        list(table.scan(fieldlist=["x"]))
        fired.append(reorganizer.reorganizations)
    if policy is Policy.LAZY:
        regions = len(region_designs(store))
        assert fired == [0, 0, regions]
        assert set(run_designs(store)) == {"columns(T)"}
    elif policy is Policy.NEW_DATA_ONLY:
        assert fired == [0, 0, 0]
        assert run_designs(store) == old + ["columns(T)"]
    else:
        assert fired == [merged] * 3
        assert set(run_designs(store)) == {"columns(T)"}
    check(table)
    runs = run_designs(store)
    store.close()
    reopened = RodentStore(
        path, durable=True, page_size=1024, level_seal_rows=512
    )
    assert reopened.adaptivity.reorganizer.policy("T") is policy
    assert run_designs(reopened) == runs
    check(reopened.table("T"))
    reopened.close()


# ---------------------------------------------------------------------------
# Post-reorganization staleness: indexes, synopses, pending
# ---------------------------------------------------------------------------


class TestReorganizationStaleness:
    def test_relayout_invalidates_secondary_indexes(self):
        """The old run's tree retires with it; the new run, rendered under
        the new design, holds its own."""
        store = make_store(n=1000)
        table = store.table("T")
        table.create_index("t")
        (old,) = store.catalog.entry("T").runs()
        store.relayout("T", "orderby[t](T)")
        (new,) = store.catalog.entry("T").runs()
        assert set(old.indexes[("t",)].tree.page_ids()) <= (
            store.disk.free_page_ids()
        )
        assert list(new.indexes) == [("t",)]
        predicate = Range("t", 10, 20)
        assert store.table("T").access_path(predicate=predicate)[0] == "index"
        rows = sorted(store.table("T").scan(predicate=predicate))
        assert rows == sorted(
            r for r in make_records(1000) if 10 <= r[0] <= 20
        )

    def test_relayout_rerenders_synopses(self):
        store = make_store(n=1000)
        store.relayout("T", "columns(T)")
        layout = store.table("T").layout
        assert layout.synopsis is not None
        assert layout.synopsis.group_zones  # columnar zones, not row pages
        # Pruning stays correct against the new zones.
        predicate = Range("t", 0, 49)
        assert store.table("T").pruned_pages(predicate) > 0
        assert sorted(store.table("T").scan(predicate=predicate)) == sorted(
            r for r in make_records(1000) if r[0] <= 49
        )

    def test_pending_rows_shared_across_handles_and_survive_relayout(self):
        store = make_store(n=100)
        writer = store.table("T")
        writer.insert([(1000 + i, 1, 2, 3) for i in range(5)])
        # A *different* handle sees the pending rows (entry-level buffer).
        reader = store.table("T")
        assert reader.row_count == 105
        store.relayout("T", "columns(T)")
        after = store.table("T")
        assert after.row_count == 105
        assert sum(1 for _ in after.scan()) == 105
        # Pending was folded into the main representation, not duplicated.
        assert after.unmerged_row_count == 0

    def test_compact_folds_pending_without_duplication(self):
        store = make_store(n=100)
        table = store.table("T")
        table.insert([(2000, 1, 2, 3)])
        table.flush_inserts()
        table.insert([(2001, 4, 5, 6)])
        assert table.row_count == 102
        table.compact()
        fresh = store.table("T")
        assert fresh.row_count == 102
        assert fresh.unmerged_row_count == 0
        assert sum(1 for _ in fresh.scan()) == 102


# ---------------------------------------------------------------------------
# Persistence round trip of monitor state
# ---------------------------------------------------------------------------


class TestMonitorPersistence:
    def test_monitor_and_pending_survive_reopen(self, tmp_path):
        db_path = str(tmp_path / "adaptive.db")
        catalog_path = str(tmp_path / "catalog.json")
        store = RodentStore(path=db_path, page_size=1024, pool_capacity=64)
        store.create_table("T", SCHEMA)
        table = store.load("T", make_records(300))
        for _ in range(10):
            list(table.scan(fieldlist=["v"], predicate=Range("t", 0, 99)))
        table.insert([(5000, 1, 2, 3), (5001, 4, 5, 6)])
        monitor_before = store.catalog.entry("T").monitor
        assert monitor_before is not None and monitor_before.ticks == 10
        store.save_catalog(catalog_path)
        store.close()

        reopened = RodentStore.open(db_path, catalog_path, page_size=1024)
        entry = reopened.catalog.entry("T")
        assert entry.monitor is not None
        assert entry.monitor.ticks == 10
        assert entry.monitor.total_weight() == pytest.approx(
            monitor_before.total_weight()
        )
        (region,) = entry.regions
        assert region.pending == [(5000, 1, 2, 3), (5001, 4, 5, 6)]
        assert region.pending_zone is not None
        assert reopened.table("T").row_count == 302
        # The restored workload still drives the advisor.
        decision = reopened.adapt("T")
        assert "recommended" in decision or "reason" in decision
        reopened.close()


# ---------------------------------------------------------------------------
# End to end: the acceptance scenario
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def test_row_store_converges_to_columns_under_projection_workload(self):
        store = make_store(
            n=4000, adaptive=True, adapt_interval=25
        )
        table = store.table("T")
        assert store.table("T").plan.kind == "rows"
        for _ in range(60):
            rows = list(table.scan(fieldlist=["v"]))
            assert len(rows) == 4000
        # The periodic check adopted a columnar design mid-workload...
        assert store.table("T").plan.kind == "columns"
        assert store.adaptivity.adaptations >= 1
        # ...with zero behavioral diff between the scan, the model of the
        # loaded rows, and the compiled query after the switch.
        fresh = store.table("T")
        model = oracle.Model(SCHEMA.names(), make_records(4000))
        model.relayout(fresh.plan.expr.to_text())
        predicate = Range("t", 100, 500)
        batch = oracle.check_table(fresh, model, ["t", "v"], predicate)
        planned = (
            store.query("T").select("t", "v").where(predicate).run()
        )
        assert batch == planned
        report = store.storage_stats()["adaptivity"]
        assert report["adaptations"] >= 1
        # Post-switch checks keep confirming the new incumbent.
        last = report["tables"]["T"]["last_decision"]
        assert last["adapted"] or last["reason"].startswith(
            ("incumbent", "within hysteresis")
        )

    def test_feedback_records_actual_vs_estimated(self):
        store = make_store(n=1000)
        list(store.query("T").select("v").where(Range("t", 0, 99)).run())
        monitor = store.catalog.entry("T").monitor
        assert monitor is not None
        assert monitor.feedback.samples == 1
        assert monitor.feedback.mean_q_error < 2.0  # histogram is accurate

    def test_adaptivity_report_shape(self):
        store = make_store(n=500)
        list(store.table("T").scan(fieldlist=["v"]))
        report = store.storage_stats()["adaptivity"]
        assert report["enabled"] is False
        assert report["tables"]["T"]["observations"] == 1
        top = report["tables"]["T"]["top_patterns"]
        assert top and top[0]["fieldlist"] == ["v"]
