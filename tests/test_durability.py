"""Tests for the durability layer: WAL-backed mutations, MVCC snapshot
scans, checkpointing, clean close, and reopen-after-crash recovery."""

import os

import pytest

from repro.engine.database import RodentStore
from repro.errors import CrashError, StorageError
from repro.query.expressions import Range
from repro.storage.faults import FaultInjector, lose_unsynced_wal
from repro.types import Schema

SCHEMA = Schema.of("id:int", "val:int")
ROWS = [(i, i * 3) for i in range(300)]


def open_store(tmp_path, **kw):
    return RodentStore(
        str(tmp_path / "db.pages"), page_size=1024, pool_capacity=64,
        durable=True, **kw,
    )


def abandon(store):
    """Simulate a crash: release the file handles without checkpointing."""
    try:
        store.wal.close()
    except StorageError:
        pass
    store.disk.close()


class TestDurableKnob:
    def test_durable_requires_path(self):
        with pytest.raises(StorageError):
            RodentStore(durable=True)

    def test_derived_paths(self, tmp_path):
        store = open_store(tmp_path)
        base = str(tmp_path / "db.pages")
        assert store.wal.path == base + ".wal"
        assert store.catalog_path == base + ".catalog.json"
        store.close()

    def test_non_durable_store_logs_nothing(self):
        store = RodentStore(page_size=1024, pool_capacity=64)
        store.create_table("T", SCHEMA)
        store.load("T", ROWS)
        assert store.wal.appends == 0
        assert store.storage_stats()["recovery"]["durable"] is False


class TestWalGrowthAndStats:
    def test_mutations_append_and_commit(self, tmp_path):
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA)
        store.load("T", ROWS)
        store.table("T").insert([(1000, 1), (1001, 2)])
        stats = store.storage_stats()
        assert stats["wal"]["wal_bytes"] > 0
        assert stats["wal"]["appends"] >= 6  # 3 txns x (BEGIN..COMMIT)
        assert stats["transactions"]["txns_committed"] == 3
        assert stats["transactions"]["txns_aborted"] == 0
        assert stats["recovery"]["recoveries_run"] == 0
        store.close()

    def test_failed_mutation_aborts(self, tmp_path):
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA)
        with pytest.raises(RuntimeError):
            with store.mutate("T"):
                raise RuntimeError("boom")
        assert store.storage_stats()["transactions"]["txns_aborted"] == 1
        store.close()

    def test_checkpoint_truncates_wal(self, tmp_path):
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA)
        store.load("T", ROWS)
        assert store.wal.size_bytes > 0
        store.checkpoint()
        assert store.wal.size_bytes == 0
        assert os.path.exists(store.catalog_path)
        assert store.checkpoints == 1
        store.close()


class TestCleanClose:
    def test_close_checkpoints_and_reopen_is_clean(self, tmp_path):
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA)
        store.load("T", ROWS)
        store.close()
        assert os.path.getsize(str(tmp_path / "db.pages") + ".wal") == 0

        reopened = open_store(tmp_path)
        assert reopened.recovery_summary == {"clean": True}
        assert sorted(reopened.table("T").scan()) == sorted(ROWS)
        reopened.close()

    def test_reopen_preserves_layout_and_pending(self, tmp_path):
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA)
        store.load("T", ROWS)
        store.relayout("T", "columns(T)")
        store.table("T").insert([(9000, 1)])
        store.close()

        reopened = open_store(tmp_path)
        table = reopened.table("T")
        assert table.plan.kind == "columns"
        assert len(list(table.scan())) == len(ROWS) + 1
        reopened.close()


class TestRecovery:
    def test_unclean_close_triggers_recovery(self, tmp_path):
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA)
        store.load("T", ROWS)
        store.table("T").insert([(9000, 1), (9001, 2)])
        abandon(store)

        reopened = open_store(tmp_path)
        summary = reopened.recovery_summary
        assert summary["clean"] is False
        assert summary["committed_txns"] == 3
        assert summary["rows_replayed"] == 2
        assert reopened.recoveries_run == 1
        assert reopened.storage_stats()["recovery"]["recoveries_run"] == 1
        assert len(list(reopened.table("T").scan())) == len(ROWS) + 2
        # recovery re-checkpoints, so a second reopen is clean
        abandon(reopened)
        third = open_store(tmp_path)
        assert third.recovery_summary == {"clean": True}
        third.close()

    def test_dropped_table_stays_dropped(self, tmp_path):
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA)
        store.load("T", ROWS)
        store.create_table("U", SCHEMA)
        store.drop_table("T")
        abandon(store)

        reopened = open_store(tmp_path)
        assert not reopened.catalog.has("T")
        assert reopened.catalog.has("U")
        reopened.close()

    def test_torn_wal_tail_is_discarded(self, tmp_path):
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA)
        store.load("T", ROWS)
        store.table("T").insert([(9000, 1)])
        abandon(store)
        # Tear the tail: the insert's COMMIT record is damaged, so the
        # insert must roll back while the earlier load survives.
        wal_path = str(tmp_path / "db.pages") + ".wal"
        with open(wal_path, "r+b") as f:
            f.truncate(os.path.getsize(wal_path) - 3)

        reopened = open_store(tmp_path)
        assert reopened.recovery_summary["clean"] is False
        assert reopened.recovery_summary["rows_replayed"] == 0
        assert sorted(reopened.table("T").scan()) == sorted(ROWS)
        reopened.close()


class TestFaultInjection:
    def test_crash_mid_relayout_keeps_old_version(self, tmp_path):
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA)
        store.load("T", ROWS)
        store.inject_faults(
            FaultInjector(crash_after=1, mode="torn", target="wal")
        )
        with pytest.raises(CrashError):
            store.relayout("T", "columns(T)")
        synced = store.wal.synced_size
        abandon(store)
        lose_unsynced_wal(str(tmp_path / "db.pages") + ".wal", synced)

        reopened = open_store(tmp_path)
        table = reopened.table("T")
        assert table.plan.kind == "rows"
        assert sorted(table.scan()) == sorted(ROWS)
        reopened.close()

    def test_fired_injector_poisons_store(self, tmp_path):
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA)
        store.inject_faults(
            FaultInjector(crash_after=0, mode="before", target="wal")
        )
        with pytest.raises(CrashError):
            store.load("T", ROWS)
        with pytest.raises(CrashError):
            store.load("T", ROWS)
        abandon(store)

    def test_fsync_lies_lose_unsynced_commits(self, tmp_path):
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA)
        store.load("T", ROWS)
        store.checkpoint()
        store.inject_faults(FaultInjector(crash_after=1 << 62,
                                          fail_fsync=True))
        store.table("T").insert([(9000, 1)])  # "committed", fsync lied
        synced = store.wal.synced_size
        abandon(store)
        lose_unsynced_wal(str(tmp_path / "db.pages") + ".wal", synced)

        reopened = open_store(tmp_path)
        assert sorted(reopened.table("T").scan()) == sorted(ROWS)
        reopened.close()


@pytest.mark.parametrize(
    "layout",
    [
        "rows(T)",
        "partition[id; range, 100](T)",
        "levels[2; 2](rows(T))",
    ],
)
class TestSnapshotScans:
    """Every shape pins through ``Region.freeze()``: a scan keeps seeing
    the version it opened whatever replaces runs underneath it."""

    def test_scan_survives_concurrent_relayout(self, tmp_path, layout):
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA, layout=layout)
        store.load("T", ROWS)
        table = store.table("T")
        it = table.scan()
        first = next(it)
        store.relayout("T", "columns(T)")
        rest = list(it)
        assert sorted([first] + rest) == sorted(ROWS)
        store.close()

    def test_scan_survives_concurrent_writes(self, tmp_path, layout):
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA, layout=layout)
        store.load("T", ROWS)
        table = store.table("T")
        it = table.scan(predicate=Range("id", 0, 10_000))
        first = next(it)
        extra = [(1000 + i, i) for i in range(40)]
        table.insert(extra)  # pending rows
        table.flush_inserts()  # an overflow run / a sealed run
        table.insert(extra[:5])
        assert sorted(table.scan()) == sorted(ROWS + extra + extra[:5])
        table.compact()  # every run replaced
        assert table.delete() == len(ROWS) + 45
        rest = list(it)
        assert sorted([first] + rest) == sorted(ROWS)
        assert list(table.scan()) == []
        store.close()

    def test_new_scan_sees_new_version(self, tmp_path, layout):
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA, layout=layout)
        store.load("T", ROWS)
        table = store.table("T")
        table.update({"val": 0}, Range("id", 0, 9))
        got = sorted(table.scan(predicate=Range("id", 0, 9)))
        assert got == [(i, 0) for i in range(10)]
        store.close()


class TestUpdateDelete:
    def test_update_with_callable(self, tmp_path):
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA)
        store.load("T", ROWS)
        n = store.table("T").update(
            {"val": lambda row: row["val"] + 1}, Range("id", 0, 4)
        )
        assert n == 5
        got = sorted(store.table("T").scan(predicate=Range("id", 0, 4)))
        assert got == [(i, i * 3 + 1) for i in range(5)]
        store.close()

    def test_update_unknown_field_rejected(self, tmp_path):
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA)
        store.load("T", ROWS)
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            store.table("T").update({"nope": 1})
        store.close()

    def test_partitioned_delete_and_recovery(self, tmp_path):
        store = open_store(tmp_path)
        store.create_table(
            "T", SCHEMA, layout="partition[id; range, 100](T)"
        )
        store.load("T", ROWS)
        table = store.table("T")
        assert table.is_partitioned
        n = table.delete(Range("id", 0, 99))
        assert n == 100
        abandon(store)

        reopened = open_store(tmp_path)
        assert len(list(reopened.table("T").scan())) == len(ROWS) - 100
        reopened.close()


def test_recovery_streams_a_large_log(tmp_path):
    """Recovery holds the commit set, the catalog images, the losers and
    one record at a time — not the log: replaying >= 32 MB of committed
    page images stays under 8 MB of python allocations at the peak."""
    import tracemalloc

    from repro.storage.wal import KIND_BEGIN, KIND_COMMIT, KIND_FRESH_PAGE

    page_size = 16384

    def open_big():
        return RodentStore(
            str(tmp_path / "db.pages"), page_size=page_size,
            pool_capacity=16, durable=True,
        )

    store = open_big()
    store.create_table("T", SCHEMA)
    store.load("T", ROWS)
    store.checkpoint()
    store.table("T").insert([(9000, 1)])
    # The images of runs long merged away: committed, named by no catalog.
    image = bytes(range(256)) * (page_size // 256)
    wal = store.wal
    for txn in range(10_000, 10_030):
        wal.append(KIND_BEGIN, txn)
        for page_id in range(64, 134):
            wal.append(KIND_FRESH_PAGE, txn, page_id=page_id, after=image)
        wal.append(KIND_COMMIT, txn)
    wal.sync()
    assert wal.size_bytes >= 32 << 20
    abandon(store)

    tracemalloc.start()
    try:
        reopened = open_big()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, f"recovery peaked at {peak / 2**20:.1f} MiB"
    summary = reopened.recovery_summary
    assert summary["pages_redone"] >= 30 * 70
    assert summary["records_scanned"] >= 30 * 72
    assert sorted(reopened.table("T").scan()) == sorted(ROWS + [(9000, 1)])
    # The replayed pages belong to nobody: free, and truncated away.
    assert reopened.disk.num_pages < 64
    assert reopened.scrub()["clean"]
    reopened.close()
