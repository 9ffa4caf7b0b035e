"""Tests for repro.storage.transactions and repro.storage.locks."""

import os
import threading

import pytest

from repro.errors import DeadlockError, TransactionError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.locks import LockManager, LockMode
from repro.storage.transactions import TransactionManager, TxnStatus
from repro.storage.wal import WriteAheadLog, recover


def make_manager():
    disk = DiskManager(page_size=256)
    pool = BufferPool(disk, capacity=16)
    wal = WriteAheadLog()
    return TransactionManager(wal, pool), disk, pool, wal


class TestLockManager:
    def test_shared_locks_compatible(self):
        lm = LockManager(timeout=0.2)
        lm.acquire(1, "T", LockMode.SHARED)
        lm.acquire(2, "T", LockMode.SHARED)
        assert set(lm.holders("T")) == {1, 2}

    def test_exclusive_blocks(self):
        lm = LockManager(timeout=0.1)
        lm.acquire(1, "T", LockMode.EXCLUSIVE)
        with pytest.raises(TransactionError):
            lm.acquire(2, "T", LockMode.SHARED)

    def test_reacquire_is_noop(self):
        lm = LockManager(timeout=0.2)
        lm.acquire(1, "T", LockMode.SHARED)
        lm.acquire(1, "T", LockMode.SHARED)
        assert lm.holders("T") == {1: LockMode.SHARED}

    def test_exclusive_holder_can_read(self):
        lm = LockManager(timeout=0.2)
        lm.acquire(1, "T", LockMode.EXCLUSIVE)
        lm.acquire(1, "T", LockMode.SHARED)  # already stronger
        assert lm.holders("T") == {1: LockMode.EXCLUSIVE}

    def test_upgrade_when_sole_holder(self):
        lm = LockManager(timeout=0.2)
        lm.acquire(1, "T", LockMode.SHARED)
        lm.acquire(1, "T", LockMode.EXCLUSIVE)
        assert lm.holders("T") == {1: LockMode.EXCLUSIVE}

    def test_release_all_wakes_waiters(self):
        lm = LockManager(timeout=2.0)
        lm.acquire(1, "T", LockMode.EXCLUSIVE)
        acquired = threading.Event()

        def waiter():
            lm.acquire(2, "T", LockMode.SHARED)
            acquired.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        lm.release_all(1)
        assert acquired.wait(2.0)
        thread.join(2.0)

    def test_deadlock_detected(self):
        lm = LockManager(timeout=5.0)
        lm.acquire(1, "A", LockMode.EXCLUSIVE)
        lm.acquire(2, "B", LockMode.EXCLUSIVE)
        failure: list = []
        done = threading.Event()

        def t1_wants_b():
            try:
                lm.acquire(1, "B", LockMode.EXCLUSIVE)
            except Exception as exc:  # pragma: no cover - either side may win
                failure.append(exc)
            finally:
                done.set()

        thread = threading.Thread(target=t1_wants_b, daemon=True)
        thread.start()
        import time

        time.sleep(0.1)  # let t1 start waiting on B
        with pytest.raises(DeadlockError):
            lm.acquire(2, "A", LockMode.EXCLUSIVE)
        lm.release_all(2)
        done.wait(2.0)
        thread.join(2.0)

    def test_timeout_names_the_holders_and_the_queue(self):
        lm = LockManager(timeout=0.05)
        lm.acquire(1, "T", LockMode.EXCLUSIVE)
        with pytest.raises(TransactionError) as err:
            lm.acquire(2, "T", LockMode.SHARED)
        message = str(err.value)
        assert "held by [txn 1 X for " in message
        assert message.endswith("waiting [txn 2 S]")

    def test_locks_of(self):
        lm = LockManager()
        lm.acquire(1, "A", LockMode.SHARED)
        lm.acquire(1, "B", LockMode.EXCLUSIVE)
        assert lm.locks_of(1) == {"A", "B"}
        lm.release_all(1)
        assert lm.locks_of(1) == set()


class TestTransactions:
    def test_commit_applies_update(self):
        mgr, disk, pool, wal = make_manager()
        page_id = disk.allocate_page()
        txn = mgr.begin()
        txn.update_page(page_id, 0, b"hello")
        txn.commit()
        pool.flush_all()
        assert bytes(disk.read_page(page_id)[:5]) == b"hello"
        assert txn.status is TxnStatus.COMMITTED

    def test_abort_restores_before_image(self):
        mgr, disk, pool, wal = make_manager()
        page_id = disk.allocate_page()
        with mgr.begin() as setup:
            setup.update_page(page_id, 0, b"first")
        txn = mgr.begin()
        txn.update_page(page_id, 0, b"xxxxx")
        txn.abort()
        pool.flush_all()
        assert bytes(disk.read_page(page_id)[:5]) == b"first"

    def test_abort_reverses_multiple_updates(self):
        mgr, disk, pool, wal = make_manager()
        page_id = disk.allocate_page()
        txn = mgr.begin()
        txn.update_page(page_id, 0, b"aaaa")
        txn.update_page(page_id, 2, b"bb")
        txn.abort()
        pool.flush_all()
        assert bytes(disk.read_page(page_id)[:4]) == b"\x00" * 4

    def test_finished_transaction_rejects_use(self):
        mgr, disk, pool, wal = make_manager()
        txn = mgr.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()
        with pytest.raises(TransactionError):
            txn.update_page(0, 0, b"x")

    def test_context_manager_commits(self):
        mgr, disk, pool, wal = make_manager()
        page_id = disk.allocate_page()
        with mgr.begin() as txn:
            txn.update_page(page_id, 0, b"done")
        assert txn.status is TxnStatus.COMMITTED

    def test_context_manager_aborts_on_error(self):
        mgr, disk, pool, wal = make_manager()
        page_id = disk.allocate_page()
        with pytest.raises(ValueError):
            with mgr.begin() as txn:
                txn.update_page(page_id, 0, b"oops!")
                raise ValueError("boom")
        assert txn.status is TxnStatus.ABORTED
        pool.flush_all()
        assert bytes(disk.read_page(page_id)[:5]) == b"\x00" * 5

    def test_locks_released_at_commit(self):
        mgr, disk, pool, wal = make_manager()
        txn = mgr.begin()
        txn.lock_exclusive("T")
        assert mgr.locks.holders("T")
        txn.commit()
        assert not mgr.locks.holders("T")

    def test_commit_releases_locks_before_its_fsync(self, tmp_path, monkeypatch):
        """A writer's lock hold ends at its COMMIT record, not its fsync: the
        next writer is granted the lock while that fsync still runs, and the
        first commit returns only once it is durable."""
        disk = DiskManager(page_size=256)
        wal = WriteAheadLog(str(tmp_path / "txn.wal"))
        mgr = TransactionManager(
            wal, BufferPool(disk, capacity=16), LockManager(timeout=0.5)
        )
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
        assert mgr.locks.holders("T") == {second.txn_id: LockMode.EXCLUSIVE}
        assert first.status is TxnStatus.ACTIVE  # not durable yet
        finish.set()
        committer.join(5.0)
        assert first.status is TxnStatus.COMMITTED
        second.commit()
        assert wal.flushed_lsn == wal.last_lsn
        wal.close()

    def test_active_count(self):
        mgr, *_ = make_manager()
        t1 = mgr.begin()
        t2 = mgr.begin()
        assert mgr.active_count == 2
        t1.commit()
        t2.abort()
        assert mgr.active_count == 0

    def test_run_helper(self):
        mgr, disk, pool, wal = make_manager()
        page_id = disk.allocate_page()
        mgr.run(lambda txn: txn.update_page(page_id, 0, b"ran"))
        pool.flush_all()
        assert bytes(disk.read_page(page_id)[:3]) == b"ran"


class TestCrashRecovery:
    def test_committed_work_survives_crash(self):
        """Simulate a crash: dirty pages lost, WAL replayed onto old disk."""
        mgr, disk, pool, wal = make_manager()
        page_id = disk.allocate_page()
        with mgr.begin() as txn:
            txn.update_page(page_id, 0, b"keep")
        # Crash before pool.flush_all(): on-disk page is still zeroes.
        assert bytes(disk.read_page(page_id)[:4]) == b"\x00" * 4
        summary = recover(wal, disk)
        assert summary["redo"] >= 1
        assert bytes(disk.read_page(page_id)[:4]) == b"keep"

    def test_uncommitted_work_rolled_back_after_crash(self):
        mgr, disk, pool, wal = make_manager()
        page_id = disk.allocate_page()
        txn = mgr.begin()
        txn.update_page(page_id, 0, b"drop")
        pool.flush_all()  # dirty page hit disk before the crash
        assert bytes(disk.read_page(page_id)[:4]) == b"drop"
        recover(wal, disk)
        assert bytes(disk.read_page(page_id)[:4]) == b"\x00" * 4
