"""Tests for repro.storage.transactions and repro.storage.locks."""

import os
import threading

import pytest

from repro.engine.database import RodentStore
from repro.errors import DeadlockError, TransactionError
from repro.storage.locks import LockManager
from repro.storage.transactions import Transaction, TransactionManager, TxnStatus
from repro.storage.wal import WriteAheadLog
from repro.types import Schema


def make_manager():
    wal = WriteAheadLog()
    return TransactionManager(wal), wal


class TestLockManager:
    def test_exclusive_blocks(self):
        lm = LockManager(timeout=0.1)
        lm.acquire(1, "T")
        with pytest.raises(TransactionError):
            lm.acquire(2, "T")

    def test_reacquire_is_noop(self):
        lm = LockManager(timeout=0.2)
        lm.acquire(1, "T")
        lm.acquire(1, "T")
        assert lm.holder("T") == 1

    def test_release_all_wakes_waiters(self):
        lm = LockManager(timeout=2.0)
        lm.acquire(1, "T")
        acquired = threading.Event()

        def waiter():
            lm.acquire(2, "T")
            acquired.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        lm.release_all(1)
        assert acquired.wait(2.0)
        thread.join(2.0)

    def test_deadlock_detected(self):
        lm = LockManager(timeout=5.0)
        lm.acquire(1, "A")
        lm.acquire(2, "B")
        failure: list = []
        done = threading.Event()

        def t1_wants_b():
            try:
                lm.acquire(1, "B")
            except Exception as exc:  # pragma: no cover - either side may win
                failure.append(exc)
            finally:
                done.set()

        thread = threading.Thread(target=t1_wants_b, daemon=True)
        thread.start()
        import time

        time.sleep(0.1)  # let t1 start waiting on B
        with pytest.raises(DeadlockError):
            lm.acquire(2, "A")
        lm.release_all(2)
        done.wait(2.0)
        thread.join(2.0)

    def test_timeout_names_the_holders_and_the_queue(self):
        lm = LockManager(timeout=0.05)
        lm.acquire(1, "T")
        with pytest.raises(TransactionError) as err:
            lm.acquire(2, "T")
        message = str(err.value)
        assert "held by [txn 1 for " in message
        assert message.endswith("waiting [txn 2]")

    def test_locks_of(self):
        lm = LockManager()
        lm.acquire(1, "A")
        lm.acquire(1, "B")
        assert lm.locks_of(1) == {"A", "B"}
        lm.release_all(1)
        assert lm.locks_of(1) == set()


class TestTransactions:
    def test_finished_transaction_rejects_use(self):
        mgr, wal = make_manager()
        txn = mgr.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()
        with pytest.raises(TransactionError):
            txn.lock_exclusive("T")

    def test_context_manager_commits(self):
        mgr, wal = make_manager()
        with mgr.begin() as txn:
            txn.lock_exclusive("T")
        assert txn.status is TxnStatus.COMMITTED
        assert mgr.locks.holder("T") is None
        assert [r.txn_id for r in wal.records()] == [txn.txn_id]  # COMMIT

    def test_context_manager_aborts_on_error(self):
        mgr, wal = make_manager()
        with pytest.raises(ValueError):
            with mgr.begin() as txn:
                txn.lock_exclusive("T")
                raise ValueError("boom")
        assert txn.status is TxnStatus.ABORTED
        assert mgr.locks.holder("T") is None
        assert list(wal.records()) == []  # an abort writes nothing

    def test_locks_released_at_commit(self):
        mgr, wal = make_manager()
        txn = mgr.begin()
        txn.lock_exclusive("T")
        assert mgr.locks.holder("T") is not None
        txn.commit()
        assert mgr.locks.holder("T") is None

    def test_commit_releases_locks_before_its_fsync(self, tmp_path, monkeypatch):
        """A writer's lock hold ends at its COMMIT record, not its fsync: the
        next writer is granted the lock while that fsync still runs, and the
        first commit returns only once it is durable."""
        wal = WriteAheadLog(str(tmp_path / "txn.wal"))
        mgr = TransactionManager(wal, LockManager(timeout=0.5))
        in_fsync, finish = threading.Event(), threading.Event()
        real_fsync = os.fsync

        def slow_fsync(fd):
            in_fsync.set()
            finish.wait(5.0)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", slow_fsync)
        first = mgr.begin()
        first.lock_exclusive("T")
        committer = threading.Thread(target=first.commit, daemon=True)
        committer.start()
        assert in_fsync.wait(5.0)
        second = mgr.begin()
        second.lock_exclusive("T")  # would time out behind a held fsync
        assert mgr.locks.holder("T") == second.txn_id
        assert first.status is TxnStatus.ACTIVE  # not durable yet
        finish.set()
        committer.join(5.0)
        assert first.status is TxnStatus.COMMITTED
        second.commit()
        assert wal.flushed_lsn == wal.last_lsn
        wal.close()

    def test_active_count(self):
        mgr, _ = make_manager()
        t1 = mgr.begin()
        t2 = mgr.begin()
        assert mgr.active_count == 2
        t1.commit()
        t2.abort()
        assert mgr.active_count == 0


SCHEMA = Schema.of("id:int", "val:int")
ROWS = [(i, i * 3) for i in range(200)]


def open_store(tmp_path):
    return RodentStore(
        str(tmp_path / "db.pages"), page_size=1024, pool_capacity=64,
        durable=True,
    )


def crash(store):
    """Power loss: the file handles go, no pool flush, no checkpoint."""
    store.wal.close()
    store.disk.close()


class TestCrashRecovery:
    def test_committed_work_survives_crash(self, tmp_path):
        """Dirty pages lost: the committed load's page images are redone."""
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA)
        store.load("T", ROWS)
        crash(store)
        reopened = open_store(tmp_path)
        assert reopened.recovery_summary["pages_redone"] >= 1
        assert sorted(reopened.table("T").scan()) == ROWS
        reopened.close()

    def test_uncommitted_work_rolled_back_after_crash(self, tmp_path, monkeypatch):
        """A re-layout's effect records and pages land, its COMMIT never
        does: after the crash the table is as the last commit left it."""
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA)
        store.load("T", ROWS)

        def power_loss(self):
            raise OSError("power lost before the COMMIT record")

        monkeypatch.setattr(Transaction, "commit", power_loss)
        with pytest.raises(OSError):
            store.relayout("T", "columns(T)")
        monkeypatch.undo()
        store.pool.flush_all()  # the loser's pages hit disk before the crash
        crash(store)
        reopened = open_store(tmp_path)
        assert reopened.recovery_summary["loser_txns"] == 1
        assert reopened.table("T").plan.expr.to_text() == "T"
        assert sorted(reopened.table("T").scan()) == ROWS
        assert reopened.scrub()["clean"]
        reopened.close()

    def test_an_empty_transaction_logs_nothing(self, tmp_path):
        """A mutation that records no effect has nothing to recover: it
        commits without a COMMIT record or an fsync (``flush_inserts()``
        with nothing pending), and a crash after it loses nothing."""
        store = open_store(tmp_path)
        store.create_table("T", SCHEMA)
        store.load("T", ROWS)
        committed = store.transactions.committed
        appends, fsyncs = store.wal.appends, store.wal.fsyncs
        store.table("T").flush_inserts()
        assert (store.wal.appends, store.wal.fsyncs) == (appends, fsyncs)
        assert store.transactions.committed == committed + 1
        crash(store)
        reopened = open_store(tmp_path)
        assert sorted(reopened.table("T").scan()) == ROWS
        reopened.close()
