"""Tests for the durability layer: WAL-backed mutations, MVCC snapshot
scans, checkpointing, clean close, and reopen-after-crash recovery."""

import errno
import json
import os

import pytest

import oracle
from repro.engine.database import RodentStore
from repro.errors import CrashError, StorageError, WALError
from repro.query.expressions import Range
from repro.storage.faults import (
    FaultInjector,
    IoFault,
    IoFaultInjector,
    lose_unsynced_wal,
)
from repro.storage.wal import (
    KIND_CATALOG,
    KIND_COMMIT,
    KIND_FRESH_PAGE,
    KIND_ROWS,
    WriteAheadLog,
)
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
        assert store.obs["wal.appends"] == 0
        assert store.storage_stats()["recovery"]["durable"] is False


class TestWalGrowthAndStats:
    def test_mutations_append_and_commit(self, tmp_path):
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA)
        store.load("T", ROWS)
        store.table("T").insert([(1000, 1), (1001, 2)])
        stats = store.storage_stats()
        assert stats["wal"]["wal_bytes"] > 0
        # create: CATALOG, COMMIT; load: 8 FRESH_PAGE, CATALOG, COMMIT;
        # insert: ROWS, COMMIT.
        assert stats["wal"]["appends"] == 14
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
        assert store.obs["recovery.checkpoints"] == 1
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
        assert reopened.obs["recovery.recoveries_run"] == 1
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
    """Every shape pins through ``TableSnapshot.freeze()``: a scan keeps
    seeing the version it opened whatever replaces runs underneath it."""

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

    from repro.storage.wal import KIND_COMMIT, KIND_FRESH_PAGE

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
    assert summary["records_scanned"] >= 30 * 71
    assert sorted(reopened.table("T").scan()) == sorted(ROWS + [(9000, 1)])
    # The replayed pages belong to nobody: free, and truncated away.
    assert reopened.disk.num_pages < 64
    assert reopened.scrub()["clean"]
    reopened.close()


def test_a_transaction_logs_its_effects_then_its_commit(tmp_path):
    """One protocol: no BEGIN, no ABORT. An insert logs its rows and its
    COMMIT, a delete — which renders no page — its catalog image and its
    COMMIT; a mutation that raises logs nothing and costs no fsync."""
    store = open_store(tmp_path)
    store.create_table("T", SCHEMA)
    table = store.load("T", ROWS)

    def logged(action):
        lsn, fsyncs = store.wal.last_lsn, store.obs["wal.fsyncs"]
        action()
        kinds = [r.kind for r in store.wal.records() if r.lsn > lsn]
        return kinds, store.obs["wal.fsyncs"] - fsyncs

    assert logged(lambda: table.insert([(1000, 1)])) == (
        [KIND_ROWS, KIND_COMMIT], 1
    )
    assert logged(lambda: table.delete(Range("id", 0, 9))) == (
        [KIND_CATALOG, KIND_COMMIT], 1
    )

    def failing():
        with pytest.raises(RuntimeError):
            with store.mutate("T"):
                raise RuntimeError("boom")

    assert logged(failing) == ([], 0)
    store.close()


def fail_append(monkeypatch, kind=None):
    """Make the next append of a ``kind`` record (``None``: of any kind)
    fail with ENOSPC."""
    append = WriteAheadLog.append

    def append_failing_on_kind(wal, record_kind, *args, **kwargs):
        if kind in (None, record_kind):
            wal.io_faults = IoFaultInjector(IoFault("enospc", target="wal"))
        try:
            return append(wal, record_kind, *args, **kwargs)
        finally:
            wal.io_faults = None

    monkeypatch.setattr(WriteAheadLog, "append", append_failing_on_kind)


@pytest.mark.parametrize(
    "kind", [KIND_ROWS, KIND_COMMIT], ids=["effects", "commit"]
)
def test_a_failed_commit_append_aborts(tmp_path, monkeypatch, kind):
    """The insert's first effect record, or its COMMIT, fails to append
    (ENOSPC): the insert aborts — its row is gone, no transaction stays
    active, no lock stays held — the next insert commits, and after a
    crash the store recovers equal to the model."""
    store = open_store(tmp_path)
    store.create_table("T", SCHEMA)
    table = store.load("T", ROWS[:10])
    model = oracle.Model(SCHEMA.names(), ROWS[:10])
    fail_append(monkeypatch, kind)
    with pytest.raises(WALError):
        table.insert([(100, 100)])
    monkeypatch.undo()
    assert sorted(table.scan()) == ROWS[:10]
    assert store.transactions.active_count == 0
    assert store.obs["transactions.txns_aborted"] == 1
    assert store.locks.holder("table:T") is None
    table.insert([(101, 101)])
    model.insert([(101, 101)])
    oracle.check_table(table, model)
    abandon(store)  # the reopen replays the log, a failed append and all
    reopened = open_store(tmp_path)
    assert reopened.recovery_summary["clean"] is False
    oracle.check_table(reopened.table("T"), model)
    reopened.close()


#: Designs of the three tables a failing mutation may touch.
DESIGNS = {
    "T": "T",
    "P": "partition[id; range, 64](P)",
    "L": "levels[2; 2](rows(L))",
    "V": "partition[val](V)",
}
#: One mutation of every kind the engine commits.
MUTATIONS = {
    "load": lambda s: s.load("T", ROWS[:40]),
    "relayout": lambda s: s.relayout("T", "columns(T)"),
    "relayout_partition": lambda s: s.relayout_partition("P", 0, "columns(P)"),
    "create_table": lambda s: s.create_table("U", SCHEMA),
    "drop_table": lambda s: s.drop_table("T"),
    "set_policy": lambda s: s.adaptivity.set_policy("T", "lazy"),
    "flush": lambda s: s.table("T").flush_inserts(),
    "delete": lambda s: s.table("T").delete(Range("id", 0, 9)),
    "update": lambda s: s.table("P").update({"val": 0}, Range("id", 0, 9)),
    "compact": lambda s: s.table("P").compact(),
    "new_partition": lambda s: s.table("V").insert([(900, 1)]),
    "levelled_delete": lambda s: s.table("L").delete(Range("id", 0, 9)),
    "levelled_compact": lambda s: s.table("L").compact(),
}


def catalog_image(store) -> dict:
    """What a CATALOG record or a checkpoint would write of every table,
    less the scan counters."""
    from repro.engine.persistence import entry_to_dict

    image = {}
    for entry in store.catalog:
        data = entry_to_dict(entry)
        for key in ("monitor", "partition_scans", "partitions_pruned"):
            data.pop(key, None)
        image[entry.name] = data
    return image


@pytest.mark.parametrize(
    "kind", [None, KIND_COMMIT], ids=["effects", "commit"]
)
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_a_failed_commit_append_puts_the_catalog_back(
    tmp_path, monkeypatch, mutation, kind
):
    """Whatever a mutation changed — runs, regions, the design, the set of
    tables — an abort at its first append or at its COMMIT puts back: the
    catalog image is the one before it, and a later committed write on
    the same tables survives a power loss equal to the model."""
    store = open_store(tmp_path)
    models = {}
    for name, design in DESIGNS.items():
        store.create_table(name, SCHEMA, layout=design)
        store.load(name, ROWS[:100])
        store.table(name).insert([(500, 5), (501, 6)])
        models[name] = oracle.Model(SCHEMA.names(), ROWS[:100], design)
        models[name].insert([(500, 5), (501, 6)])
    before = catalog_image(store)
    fail_append(monkeypatch, kind)
    with pytest.raises(WALError):
        MUTATIONS[mutation](store)
    monkeypatch.undo()
    assert catalog_image(store) == before
    assert store.transactions.active_count == 0
    for name, model in models.items():
        assert store.locks.holder(f"table:{name}") is None
        oracle.check_table(store.table(name), model)
    for name, model in models.items():
        store.table(name).insert([(600, 7)])
        store.table(name).flush_inserts()
        model.insert([(600, 7)])
    synced = store.wal.synced_size
    abandon(store)
    lose_unsynced_wal(str(tmp_path / "db.pages") + ".wal", synced)
    reopened = open_store(tmp_path)
    assert reopened.tables() == sorted(models)
    for name, model in models.items():
        oracle.check_table(reopened.table(name), model)
    assert reopened.scrub()["clean"]
    reopened.close()


def test_an_abort_restores_every_entry_change(tmp_path):
    """A transaction takes its table's snapshot when it locks the table,
    so an abort puts back every change the body made — engine mutation or
    not: the entry's design, counters, policy, a region's design and its
    pending rows."""
    store = open_store(tmp_path)
    store.create_table("T", SCHEMA)
    table = store.load("T", ROWS[:100])
    table.insert([(500, 5), (501, 6)])
    model = oracle.Model(SCHEMA.names(), ROWS[:100])
    model.insert([(500, 5), (501, 6)])
    before = catalog_image(store)
    entry = store.catalog.entry("T")
    with pytest.raises(RuntimeError):
        with store.mutate("T"):
            (region,) = entry.regions
            entry.stats = None
            entry.policy = "lazy"
            entry.next_run_seq += 5
            region.plan = store.region_plan("T", "columns(T)")
            region.add_pending(SCHEMA.names(), [(502, 7)])
            raise RuntimeError("boom")
    assert catalog_image(store) == before
    assert store.locks.holder("table:T") is None
    table.insert([(600, 7)])
    model.insert([(600, 7)])
    oracle.check_table(table, model)
    store.close()
    reopened = open_store(tmp_path)
    oracle.check_table(reopened.table("T"), model)
    reopened.close()


def test_an_aborted_cascade_frees_the_runs_it_made(tmp_path, monkeypatch):
    """A levelled compaction that cascades renders a run and merges it
    away in the same transaction. When that transaction aborts, every
    page it rendered is free again, the intermediate run's included: no
    page is both unreferenced and not free."""
    store = open_store(tmp_path, level_seal_rows=10**6)
    store.create_table("L", SCHEMA, layout="levels[2; 2](rows(L))")
    table = store.table("L")

    def seal(lo: int) -> None:
        table.insert(ROWS[lo:lo + 50])
        store.seal_level_run("L")

    seal(0)
    seal(50)
    store.compact_levels("L")  # one level-1 run
    seal(100)
    seal(150)  # two level-0 runs: a merge makes a second level-1 run

    def leaked() -> set[int]:
        pages = set(range(store.disk.num_pages))
        return pages - store._referenced_pages() - store.disk.free_page_ids()

    before = catalog_image(store)
    assert not leaked()
    fail_append(monkeypatch, KIND_COMMIT)
    with pytest.raises(WALError):
        store.compact_levels("L")
    monkeypatch.undo()
    assert catalog_image(store) == before
    assert not leaked()
    assert store.compact_levels("L") == {"merges": 2, "runs_merged": 4}
    oracle.check_table(table, oracle.Model(SCHEMA.names(), ROWS[:200]))
    store.close()


def test_a_failed_commit_fsync_stops_the_store(tmp_path, monkeypatch):
    """The fsync after a COMMIT record fails once: that commit may or may
    not be durable. The transaction leaves the active set, every later
    mutation (and checkpoint) is refused until a reopen, reads go on, and
    ``close()`` checkpoints nothing — so recovery decides, and the reopened
    table equals what the log holds."""
    store = open_store(tmp_path)
    store.create_table("T", SCHEMA)
    table = store.load("T", ROWS[:100])
    fsync, failed = os.fsync, []

    def fsync_failing_once(fd):
        if not failed:
            failed.append(fd)
            raise OSError(errno.EIO, "injected EIO")
        fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync_failing_once)
    with pytest.raises(OSError):
        table.insert([(1000, 1)])
    monkeypatch.undo()
    assert failed and "fsync" in store._stopped
    assert store.transactions.active_count == 0
    for write in (
        lambda: table.insert([(1001, 2)]),
        lambda: table.delete(Range("id", 0, 9)),
        lambda: store.create_table("U", SCHEMA),
        store.checkpoint,
    ):
        with pytest.raises(StorageError, match="reopen"):
            write()
    assert store.transactions.active_count == 0
    # Reads go on, and see the in-doubt commit.
    oracle.check_table(
        table, oracle.Model(SCHEMA.names(), ROWS[:100] + [(1000, 1)])
    )
    wal_path = str(tmp_path / "db.pages.wal")
    size = os.path.getsize(wal_path)
    store.close()
    assert os.path.getsize(wal_path) == size  # no checkpoint truncated it

    log = WriteAheadLog(wal_path)
    records = list(log.records())
    log.close()
    (insert,) = [r for r in records if r.kind == KIND_ROWS]
    committed = any(
        r.kind == KIND_COMMIT and r.txn_id == insert.txn_id for r in records
    )
    assert committed  # the record reached the file; only its fsync failed
    want = ROWS[:100] + [(1000, 1)] * committed
    reopened = open_store(tmp_path)
    assert reopened._stopped is None
    oracle.check_table(reopened.table("T"), oracle.Model(SCHEMA.names(), want))
    reopened.table("T").insert([(1001, 2)])
    assert reopened.table("T").row_count == len(want) + 1
    reopened.close()


def test_recovery_replays_compact_and_spaced_payloads(tmp_path, monkeypatch):
    """``ROWS`` and ``CATALOG`` payloads are written without spaces; a WAL
    from before, whose payloads carry ``json.dumps``' default separators,
    replays all the same — both forms in one log."""
    from repro.engine import database

    class Spaced:  # the payloads as they were written with default spacing
        @staticmethod
        def dumps(obj, **kwargs):
            return json.dumps(obj)

    store = open_store(tmp_path)
    store.create_table("T", SCHEMA)
    table = store.load("T", ROWS[:50])
    monkeypatch.setattr(database, "json", Spaced)
    table.insert([(1000, 1)])
    table.delete(Range("id", 0, 4))
    monkeypatch.undo()
    table.insert([(1001, 2)])
    table.delete(Range("id", 5, 9))
    payloads = [
        r.payload for r in store.wal.records() if r.kind in (KIND_ROWS, KIND_CATALOG)
    ]
    spaced = [p for p in payloads if b'", "' in p or b'": ' in p]
    assert len(spaced) == 2 and len(payloads) > len(spaced)
    compact = [p for p in payloads if p not in spaced]
    assert [json.loads(p) for p in compact] and not any(b", " in p for p in compact)
    abandon(store)

    reopened = open_store(tmp_path)
    assert reopened.recovery_summary["records_scanned"] >= len(payloads)
    want = ROWS[10:50] + [(1000, 1), (1001, 2)]
    oracle.check_table(reopened.table("T"), oracle.Model(SCHEMA.names(), want))
    reopened.close()
