"""Tests for repro.optimizer.reorganize (eager / new-data-only / lazy)."""

import pytest

import oracle
from repro.engine.database import RodentStore
from repro.errors import StorageError
from repro.optimizer.reorganize import Policy, ReorganizationManager
from repro.query.expressions import Range
from repro.types import Schema

SCHEMA = Schema.of("t:int", "lat:int", "lon:int", "id:int")
RECORDS = [(i, (i * 37) % 500, (i * 53) % 500, i % 7) for i in range(400)]
NEW_DESIGN = "grid[lat, lon],[100, 100](T)"
#: Drops ``t`` and ``id``: only an eager re-layout from source records.
LOSSY_DESIGN = "grid[lat, lon],[100, 100](project[lat, lon](T))"


@pytest.fixture
def setup():
    store = RodentStore(page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA)
    store.load("T", RECORDS)
    manager = ReorganizationManager(store)
    return store, manager


def designs(table) -> list[str]:
    """The design of every run of ``table``, in region and run order."""
    return [
        run.plan.expr.to_text()
        for region in table.partitions for run in region.runs
    ]


class TestRewriteEstimate:
    def test_partitioned_table_pays_for_the_pages_it_stores(self):
        """The amortisation gate charges a whole-table rewrite for every
        stored page, whichever regions hold them: the same rows cost the
        same, give or take a page or two, flat and partitioned."""
        costs = {}
        for layout in ("rows(T)", "partition[r.id](T)"):
            store = RodentStore(page_size=1024, pool_capacity=64)
            store.create_table("T", SCHEMA, layout=layout)
            table = store.load("T", RECORDS)
            table.insert(RECORDS[:40])
            table.flush_inserts()
            manager = ReorganizationManager(store)
            pages = store.catalog.entry("T").total_pages()
            assert pages > 10
            assert manager.estimated_rewrite_ms("T", 20) == pytest.approx(
                store.cost_model.cost_ms(pages + 20, 2)
            )
            costs[layout] = (manager.estimated_rewrite_ms("T", 20), pages)
            page_ms = store.cost_model.transfer_ms(1)
            store.close()
        (flat_ms, flat_pages), (part_ms, part_pages) = costs.values()
        # 7 partitions, each with a partly filled last page and its own
        # flushed run.
        assert abs(part_pages - flat_pages) <= 14
        assert abs(part_ms - flat_ms) <= 14 * page_ms + 1e-9


class TestEager:
    def test_rewrites_immediately(self, setup):
        store, manager = setup
        manager.set_policy("T", Policy.EAGER)
        manager.apply_design("T", NEW_DESIGN)
        assert store.table("T").plan.kind == "grid"
        assert manager.reorganizations == 1
        assert manager.pending("T") is None

    def test_pays_write_io_upfront(self, setup):
        store, manager = setup
        manager.set_policy("T", "eager")
        manager.apply_design("T", NEW_DESIGN)
        assert manager.reorganization_io.page_writes > 0

    def test_queries_fast_after(self, setup):
        store, manager = setup
        manager.set_policy("T", Policy.EAGER)
        _, io_before = store.run_cold(
            lambda: list(store.table("T").scan(predicate=Range("lat", 0, 99)))
        )
        manager.apply_design("T", NEW_DESIGN)
        _, io_after = store.run_cold(
            lambda: list(store.table("T").scan(predicate=Range("lat", 0, 99)))
        )
        assert io_after.page_reads < io_before.page_reads

    def test_lossy_design_from_source_records(self, setup):
        store, manager = setup
        manager.apply_design("T", LOSSY_DESIGN, source_records=RECORDS)
        table = store.table("T")
        assert table.plan.kind == "grid"
        assert table.scan_schema().names() == ["lat", "lon"]


class TestDeferred:
    @pytest.mark.parametrize("policy", ["lazy", "new-data-only"])
    def test_lossy_design_raises(self, setup, policy):
        """A deferred design becomes the regions' design over the old runs,
        so it must keep their stored fields (``region_plan``)."""
        store, manager = setup
        manager.set_policy("T", policy)
        with pytest.raises(StorageError):
            manager.apply_design("T", LOSSY_DESIGN)
        with pytest.raises(StorageError):
            manager.apply_design("T", NEW_DESIGN, source_records=RECORDS)
        assert designs(store.table("T")) == ["T"]
        assert store.table("T").plan.expr.to_text() == "T"
        assert manager.pending("T") is None


class TestNewDataOnly:
    def test_access_never_triggers(self, setup):
        store, manager = setup
        manager.set_policy("T", Policy.NEW_DATA_ONLY)
        manager.apply_design("T", NEW_DESIGN)
        for _ in range(20):
            assert manager.on_access("T") is False
        assert store.table("T").main_plan.kind == "rows"


class TestLazy:
    def test_rewrite_after_access_threshold(self, setup):
        store, manager = setup
        manager.lazy_access_threshold = 3
        manager.set_policy("T", Policy.LAZY)
        manager.apply_design("T", NEW_DESIGN)
        assert store.table("T").main_plan.kind == "rows"
        triggered = [manager.on_access("T") for _ in range(3)]
        assert triggered == [False, False, True]
        assert store.table("T").main_plan.kind == "grid"

    def test_rewrite_when_unmerged_rows_grow(self, setup):
        store, manager = setup
        manager.lazy_unmerged_fraction = 0.2
        manager.lazy_access_threshold = 10_000
        manager.set_policy("T", Policy.LAZY)
        manager.apply_design("T", NEW_DESIGN)
        table = store.table("T")
        table.insert(RECORDS[:150])  # 150/550 > 0.2
        table.flush_inserts()
        assert manager.on_access("T") is True
        (run,) = store.table("T").partitions[0].runs
        assert run.plan.kind == "grid"
        assert sorted(store.table("T").scan()) == sorted(RECORDS + RECORDS[:150])

    def test_no_pending_no_trigger(self, setup):
        _, manager = setup
        manager.set_policy("T", Policy.LAZY)
        assert manager.on_access("T") is False


FRESH = [(1000 + i, (i * 11) % 500, (i * 13) % 500, i % 5) for i in range(150)]


@pytest.mark.parametrize(
    "layout", ["T", "partition[r.t; range, 200](T)", "levels[2; 2](rows(T))"]
)
@pytest.mark.parametrize("policy", list(Policy))
def test_policies_are_merge_schedules(tmp_path, policy, layout):
    """One action and a schedule, for every table shape: the new design
    becomes the regions' design, so every later flush seals under it under
    every policy; eager merges the old runs into it now, lazy at its access
    threshold, and new-data-only never — one reorganization per region
    merged. Scans answer like the oracle throughout, and after a reopen."""
    path = str(tmp_path / "db.pages")
    store = RodentStore(path, durable=True, page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA, layout=layout)
    store.load("T", RECORDS)
    model = oracle.Model(SCHEMA.names(), RECORDS, layout)
    manager = store.adaptivity.reorganizer
    manager.lazy_access_threshold = 3
    manager.lazy_unmerged_fraction = 10.0  # the access count alone fires
    store.adaptivity.set_policy("T", policy)
    (old,) = set(designs(store.table("T")))
    manager.apply_design("T", "columns(T)")
    table = store.table("T")
    loaded = designs(table)
    table.insert(FRESH)
    table.flush_inserts()
    model.insert(FRESH)
    assert designs(table) == loaded + ["columns(T)"]
    regions = len(table.partitions)
    if policy is Policy.EAGER:
        assert set(loaded) == {"columns(T)"}
        assert manager.reorganizations == regions
    else:
        assert set(loaded) == {old}
        assert manager.reorganizations == 0
        fired = [manager.on_access("T") for _ in range(3)]
        if policy is Policy.LAZY:
            assert fired == [False, False, True]
            assert manager.reorganizations == regions
            assert set(designs(table)) == {"columns(T)"}
        else:
            assert fired == [False] * 3
            assert designs(table) == loaded + ["columns(T)"]
            assert manager.reorganizations == 0

    def check(table):
        oracle.check_table(table, model, context=policy)
        oracle.check_table(table, model, ["t", "id"], context=policy)

    check(table)
    runs = designs(table)
    store.close()
    reopened = RodentStore(path, durable=True, page_size=1024, pool_capacity=64)
    assert designs(reopened.table("T")) == runs
    check(reopened.table("T"))
    reopened.close()


def test_a_deferred_design_survives_reopen(tmp_path):
    """The design a deferred policy installed lives in the catalog: after a
    reopen the table's design is still the new one, the old run still
    keeps its own, and the next flush renders under the new one."""
    path = str(tmp_path / "db.pages")
    store = RodentStore(path, durable=True, page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA)
    store.load("T", RECORDS)
    store.adaptivity.set_policy("T", "lazy")
    store.adaptivity.reorganizer.apply_design("T", "columns(T)")
    store.close()
    reopened = RodentStore(path, durable=True, page_size=1024, pool_capacity=64)
    table = reopened.table("T")
    assert reopened.adaptivity.reorganizer.pending("T").to_text() == "columns(T)"
    assert table.plan.expr.to_text() == "columns(T)"
    table.insert(FRESH)
    table.flush_inserts()
    assert designs(table) == ["T", "columns(T)"]
    assert sorted(table.scan()) == sorted(RECORDS + FRESH)
    reopened.close()


@pytest.mark.parametrize("how", ["checkpoint", "wal"])
def test_the_policy_survives_reopen(tmp_path, how):
    """A table's policy lives in its catalog entry, checkpointed and
    logged: a design deferred under lazy before a close — or a crash —
    still merges once the reopened store's accesses reach the
    threshold."""
    path = str(tmp_path / "db.pages")
    store = RodentStore(path, durable=True, page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA)
    store.load("T", RECORDS)
    store.adaptivity.set_policy("T", "lazy")
    store.adaptivity.reorganizer.lazy_access_threshold = 3
    store.adaptivity.reorganizer.apply_design("T", "columns(T)")
    if how == "checkpoint":
        store.close()
    else:  # a crash: the log holds every change since the store was made
        store.wal.close()
        store.disk.close()
    reopened = RodentStore(path, durable=True, page_size=1024, pool_capacity=64)
    manager = reopened.adaptivity.reorganizer
    manager.lazy_access_threshold = 3
    assert manager.policy("T") is Policy.LAZY
    assert manager.pending("T").to_text() == "columns(T)"
    for _ in range(10):
        list(reopened.table("T").scan())
    assert manager.reorganizations == 1
    assert manager.pending("T") is None
    assert designs(reopened.table("T")) == ["columns(T)"]
    assert sorted(reopened.table("T").scan()) == sorted(RECORDS)
    reopened.close()


class TestPolicyComparison:
    def test_eager_pays_more_write_io_than_lazy_unaccessed(self, setup):
        """The paper's trade-off: eager reorganization has up-front cost that
        deferred policies avoid until (unless) the rewrite happens."""
        store, manager = setup
        store.create_table("U", SCHEMA)
        store.load("U", RECORDS)

        manager.set_policy("T", Policy.EAGER)
        manager.apply_design("T", NEW_DESIGN)
        eager_writes = manager.reorganization_io.page_writes

        lazy_manager = ReorganizationManager(store)
        lazy_manager.set_policy("U", Policy.LAZY)
        lazy_manager.apply_design("U", "grid[lat, lon],[100, 100](U)")
        assert lazy_manager.reorganization_io.page_writes == 0
        assert eager_writes > 0

    def test_policy_string_coercion(self, setup):
        _, manager = setup
        manager.set_policy("T", "lazy")
        assert manager.policy("T") is Policy.LAZY


def test_positional_access_and_indexes_address_the_loaded_run(setup):
    """A new-data-only design leaves the loaded run as it was: an index
    and ``get_element`` address that run under its own design."""
    store, manager = setup
    manager.set_policy("T", Policy.NEW_DATA_ONLY)
    manager.apply_design("T", NEW_DESIGN)
    table = store.table("T")
    assert (table.plan.kind, table.main_plan.kind) == ("grid", "rows")
    table.create_index("lat")
    predicate = Range("lat", 10, 12)
    assert table.access_path(predicate=predicate)[0] == "index"
    assert sorted(table.scan(predicate=predicate)) == sorted(
        r for r in RECORDS if 10 <= r[1] <= 12
    )
    assert table.get_element(7) == RECORDS[7]
    assert table.get_element_cost(7).pages == 1


@pytest.mark.parametrize("layout", ["T", "levels[2; 2](rows(T))"])
def test_a_deferred_design_may_reorder_the_stored_fields(layout):
    """Pending rows, and a levelled table's row-valued tombstones, are kept
    in the stored field order: a deferred design that reorders the fields
    carries them over, and scans answer as before."""
    store = RodentStore(page_size=1024, pool_capacity=64, level_seal_rows=64)
    store.create_table("T", SCHEMA, layout=layout)
    table = store.load("T", RECORDS)
    model = oracle.Model(SCHEMA.names(), RECORDS, layout)
    table.delete(Range("t", 10, 19))
    model.delete(Range("t", 10, 19))
    table.insert(FRESH[:30])
    model.insert(FRESH[:30])
    store.adaptivity.set_policy("T", "new-data-only")
    store.adaptivity.reorganizer.apply_design("T", "project[id, t, lat, lon](T)")
    table = store.table("T")
    assert table.scan_schema().names() == ["id", "t", "lat", "lon"]
    oracle.check_table(table, model, ["t", "lat", "lon", "id"])
    table.flush_inserts()
    oracle.check_table(table, model, ["t", "lat", "lon", "id"])
    oracle.check_table(table, model, ["id"], Range("t", 0, 40))
