"""Transactions: WAL-logged page updates under two-phase locking.

The granularity is deliberately coarse (table-level locks, byte-range page
updates): the paper's point is that this machinery should be *shared* across
storage layouts rather than re-implemented per layout, so every layout
renderer funnels its mutations through this one module.

Commits are durable via group commit: each committer appends its COMMIT
record and then calls :meth:`~repro.storage.wal.WriteAheadLog.sync` with the
manager's ``group_window_s``. The first committer in a burst becomes the
group leader (one fsync covers the whole burst); the rest piggyback.

An in-memory engine that wants the locking/snapshot machinery without
durability constructs the manager with ``log=False``: transactions then skip
all WAL appends (an in-memory log would otherwise grow without bound) while
locks and commit/abort bookkeeping behave identically.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Callable

from repro.errors import TransactionError
from repro.storage.buffer import BufferPool
from repro.storage.locks import LockManager, LockMode
from repro.storage.wal import (
    KIND_ABORT,
    KIND_BEGIN,
    KIND_COMMIT,
    KIND_UPDATE,
    WriteAheadLog,
)


class TxnStatus(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """Handle for one transaction; created via :class:`TransactionManager`."""

    def __init__(self, txn_id: int, manager: "TransactionManager"):
        self.txn_id = txn_id
        self.status = TxnStatus.ACTIVE
        self._manager = manager
        self._undo: list[tuple[int, int, bytes]] = []

    # -- locking ---------------------------------------------------------

    def lock_shared(self, resource: str) -> None:
        self._require_active()
        self._manager.locks.acquire(self.txn_id, resource, LockMode.SHARED)

    def lock_exclusive(self, resource: str) -> None:
        self._require_active()
        self._manager.locks.acquire(self.txn_id, resource, LockMode.EXCLUSIVE)

    # -- page mutation ------------------------------------------------------

    def update_page(self, page_id: int, offset: int, new_bytes: bytes) -> None:
        """Apply a logged byte-range update to a page via the buffer pool."""
        self._require_active()
        pool = self._manager.pool
        frame = pool.fetch(page_id)
        try:
            before = bytes(frame.data[offset : offset + len(new_bytes)])
            if self._manager.log:
                self._manager.wal.append(
                    KIND_UPDATE,
                    self.txn_id,
                    page_id=page_id,
                    offset=offset,
                    before=before,
                    after=new_bytes,
                )
            frame.data[offset : offset + len(new_bytes)] = new_bytes
            self._undo.append((page_id, offset, before))
        finally:
            pool.unpin(page_id, dirty=True)

    # -- outcome ----------------------------------------------------------

    def commit(self) -> None:
        self._require_active()
        manager = self._manager
        lsn = manager.wal.append(KIND_COMMIT, self.txn_id) if manager.log else None
        # Early lock release: the fsync is most of a short writer's lock
        # hold, and a waiter gains nothing by waiting it out. Whoever takes
        # the locks next appends its COMMIT after ours, and the log is made
        # durable as a prefix, so it can never be durable while we are not.
        # The caller still returns only once its own commit is durable.
        manager.locks.release_all(self.txn_id)
        if lsn is not None:
            # Group commit: concurrent committers batch into one fsync.
            manager.wal.sync(lsn, window_s=manager.group_window_s)
        self.status = TxnStatus.COMMITTED
        manager._finish(self.txn_id, committed=True)

    def abort(self) -> None:
        self._require_active()
        manager = self._manager
        pool = manager.pool
        for page_id, offset, before in reversed(self._undo):
            frame = pool.fetch(page_id)
            try:
                frame.data[offset : offset + len(before)] = before
            finally:
                pool.unpin(page_id, dirty=True)
        if manager.log:
            lsn = manager.wal.append(KIND_ABORT, self.txn_id)
            manager.wal.sync(lsn)
        self.status = TxnStatus.ABORTED
        manager.locks.release_all(self.txn_id)
        manager._finish(self.txn_id, committed=False)

    def _require_active(self) -> None:
        if self.status is not TxnStatus.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.status.value}"
            )

    # -- context manager: commit on success, abort on exception -------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.status is TxnStatus.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False


class TransactionManager:
    """Create transactions over a shared WAL, buffer pool, and lock manager.

    Args:
        wal: the shared write-ahead log.
        pool: the shared buffer pool.
        locks: lock manager (a fresh one is created when omitted).
        log: when False, transactions skip all WAL appends (locking-only
            mode for non-durable stores).
        group_window_s: group-commit window passed to ``wal.sync`` — how
            long a commit leader waits for followers before fsyncing.
    """

    def __init__(
        self,
        wal: WriteAheadLog,
        pool: BufferPool,
        locks: LockManager | None = None,
        log: bool = True,
        group_window_s: float = 0.0,
    ):
        self.wal = wal
        self.pool = pool
        self.locks = locks if locks is not None else LockManager()
        self.log = log
        self.group_window_s = group_window_s
        self.committed = 0
        self.aborted = 0
        self._next_txn_id = 1
        self._active: dict[int, Transaction] = {}
        self._lock = threading.Lock()

    def begin(self) -> Transaction:
        with self._lock:
            txn_id = self._next_txn_id
            self._next_txn_id += 1
            txn = Transaction(txn_id, self)
            self._active[txn_id] = txn
        if self.log:
            self.wal.append(KIND_BEGIN, txn_id)
        return txn

    def _finish(self, txn_id: int, committed: bool) -> None:
        with self._lock:
            self._active.pop(txn_id, None)
            if committed:
                self.committed += 1
            else:
                self.aborted += 1

    @property
    def active_count(self) -> int:
        return len(self._active)

    def run(self, body: Callable[[Transaction], None]) -> None:
        """Run ``body`` in a transaction, committing or aborting around it."""
        with self.begin() as txn:
            body(txn)
