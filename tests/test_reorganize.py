"""Tests for repro.optimizer.reorganize (eager / new-data-only / lazy)."""

import pytest

from repro.engine.database import RodentStore
from repro.optimizer.reorganize import Policy, ReorganizationManager
from repro.query.expressions import Range
from repro.types import Schema

SCHEMA = Schema.of("t:int", "lat:int", "lon:int", "id:int")
RECORDS = [(i, (i * 37) % 500, (i * 53) % 500, i % 7) for i in range(400)]
NEW_DESIGN = "grid[lat, lon],[100, 100](project[lat, lon](T))"


@pytest.fixture
def setup():
    store = RodentStore(page_size=1024, pool_capacity=64)
    store.create_table("T", SCHEMA)
    store.load("T", RECORDS)
    manager = ReorganizationManager(store)
    return store, manager


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
        # overflow run.
        assert abs(part_pages - flat_pages) <= 14
        assert abs(part_ms - flat_ms) <= 14 * page_ms + 1e-9


class TestEager:
    def test_rewrites_immediately(self, setup):
        store, manager = setup
        manager.set_policy("T", Policy.EAGER)
        manager.apply_design("T", NEW_DESIGN, source_records=RECORDS)
        assert store.table("T").plan.kind == "grid"
        assert manager.reorganizations == 1
        assert manager.pending("T") is None

    def test_pays_write_io_upfront(self, setup):
        store, manager = setup
        manager.set_policy("T", "eager")
        manager.apply_design("T", NEW_DESIGN, source_records=RECORDS)
        assert manager.reorganization_io.page_writes > 0

    def test_queries_fast_after(self, setup):
        store, manager = setup
        manager.set_policy("T", Policy.EAGER)
        _, io_before = store.run_cold(
            lambda: list(store.table("T").scan(predicate=Range("lat", 0, 99)))
        )
        manager.apply_design("T", NEW_DESIGN, source_records=RECORDS)
        _, io_after = store.run_cold(
            lambda: list(store.table("T").scan(predicate=Range("lat", 0, 99)))
        )
        assert io_after.page_reads < io_before.page_reads


class TestNewDataOnly:
    def test_old_data_untouched(self, setup):
        store, manager = setup
        manager.set_policy("T", Policy.NEW_DATA_ONLY)
        manager.apply_design("T", NEW_DESIGN, source_records=RECORDS)
        assert store.table("T").plan.kind == "rows"  # old layout remains
        assert manager.pending("T") is not None
        assert manager.reorganizations == 0

    def test_access_never_triggers(self, setup):
        store, manager = setup
        manager.set_policy("T", Policy.NEW_DATA_ONLY)
        manager.apply_design("T", NEW_DESIGN, source_records=RECORDS)
        for _ in range(20):
            assert manager.on_access("T") is False
        assert store.table("T").plan.kind == "rows"


class TestLazy:
    def test_rewrite_after_access_threshold(self, setup):
        store, manager = setup
        manager.lazy_access_threshold = 3
        manager.set_policy("T", Policy.LAZY)
        manager.apply_design("T", NEW_DESIGN, source_records=RECORDS)
        assert store.table("T").plan.kind == "rows"
        triggered = [manager.on_access("T") for _ in range(3)]
        assert triggered == [False, False, True]
        assert store.table("T").plan.kind == "grid"

    def test_rewrite_when_overflow_grows(self, setup):
        store, manager = setup
        manager.lazy_overflow_fraction = 0.2
        manager.lazy_access_threshold = 10_000
        manager.set_policy("T", Policy.LAZY)
        manager.apply_design("T", NEW_DESIGN, source_records=None)
        table = store.table("T")
        table.insert(RECORDS[:150])  # 150/550 > 0.2
        table.flush_inserts()
        manager._states["T"].source_records = RECORDS + RECORDS[:150]
        assert manager.on_access("T") is True
        assert store.table("T").plan.kind == "grid"

    def test_no_pending_no_trigger(self, setup):
        _, manager = setup
        manager.set_policy("T", Policy.LAZY)
        assert manager.on_access("T") is False


class TestPolicyComparison:
    def test_eager_pays_more_write_io_than_lazy_unaccessed(self, setup):
        """The paper's trade-off: eager reorganization has up-front cost that
        deferred policies avoid until (unless) the rewrite happens."""
        store, manager = setup
        store.create_table("U", SCHEMA)
        store.load("U", RECORDS)

        manager.set_policy("T", Policy.EAGER)
        manager.apply_design(
            "T", NEW_DESIGN, source_records=RECORDS
        )
        eager_writes = manager.reorganization_io.page_writes

        lazy_manager = ReorganizationManager(store)
        lazy_manager.set_policy("U", Policy.LAZY)
        lazy_manager.apply_design(
            "U",
            "grid[lat, lon],[100, 100](project[lat, lon](U))",
            source_records=RECORDS,
        )
        assert lazy_manager.reorganization_io.page_writes == 0
        assert eager_writes > 0

    def test_policy_string_coercion(self, setup):
        _, manager = setup
        manager.set_policy("T", "lazy")
        assert manager._state("T").policy is Policy.LAZY
