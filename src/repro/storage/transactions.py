"""Transactions: table locks, commit and abort over a shared WAL.

A transaction takes exclusive table locks as it goes (strict two-phase
locking; readers take none, they pin MVCC snapshots) and releases them all
at its end. It writes nothing to the log until it commits: the engine
(:meth:`repro.engine.database.RodentStore.mutate`) appends the effects it
recorded, then :meth:`Transaction.commit` appends the COMMIT record. An
abort writes nothing at all — the caller puts its in-memory state back,
and the locks go.

Commits are durable via group commit: each committer appends its COMMIT
record and then calls :meth:`~repro.storage.wal.WriteAheadLog.sync` with the
manager's ``group_window_s``. The first committer in a burst becomes the
group leader (one fsync covers the whole burst); the rest piggyback.

An in-memory engine that wants the locking machinery without durability
constructs the manager with ``log=False``: commits then skip the COMMIT
append (an in-memory log would otherwise grow without bound) while locks
and commit/abort bookkeeping behave identically.
"""

from __future__ import annotations

import threading
from enum import Enum

from repro.errors import TransactionError
from repro.storage.locks import LockManager
from repro.storage.wal import KIND_COMMIT, WriteAheadLog


class TxnStatus(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"
    IN_DOUBT = "in doubt"  # COMMIT appended, its fsync failed


class Transaction:
    """Handle for one transaction; created via :class:`TransactionManager`."""

    def __init__(self, txn_id: int, manager: "TransactionManager"):
        self.txn_id = txn_id
        self.status = TxnStatus.ACTIVE
        #: Set once the COMMIT record is appended: from then on the commit
        #: may be durable, and the transaction can no longer abort.
        self.commit_logged = False
        self._manager = manager

    def lock_exclusive(self, resource: str) -> None:
        self._require_active()
        self._manager.locks.acquire(self.txn_id, resource)

    # -- outcome ----------------------------------------------------------

    def commit(self, effects: bool = True) -> None:
        """Commit: append the COMMIT record and wait for it to be durable.
        A transaction that logged no ``effects`` has nothing to recover,
        and commits without a record or an fsync."""
        self._require_active()
        manager = self._manager
        lsn = None
        if manager.log and effects:
            lsn = manager.wal.append(KIND_COMMIT, self.txn_id)
        self.commit_logged = True
        # Early lock release: the fsync is most of a short writer's lock
        # hold, and a waiter gains nothing by waiting it out. Whoever takes
        # the locks next appends its COMMIT after ours, and the log is made
        # durable as a prefix, so it can never be durable while we are not.
        # The caller still returns only once its own commit is durable.
        manager.locks.release_all(self.txn_id)
        if lsn is not None:
            # Group commit: concurrent committers batch into one fsync.
            try:
                manager.wal.sync(lsn, window_s=manager.group_window_s)
            except BaseException:
                self.status = TxnStatus.IN_DOUBT
                manager._finish(self.txn_id, committed=None)
                raise
        self.status = TxnStatus.COMMITTED
        manager._finish(self.txn_id, committed=True)

    def abort(self) -> None:
        """End the transaction without a trace in the log: release its
        locks (the caller has put back what it changed)."""
        self._require_active()
        self.status = TxnStatus.ABORTED
        self._manager.locks.release_all(self.txn_id)
        self._manager._finish(self.txn_id, committed=False)

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
    """Create transactions over a shared WAL and lock manager.

    Args:
        wal: the shared write-ahead log.
        locks: lock manager (a fresh one is created when omitted).
        log: when False, commits skip the COMMIT append (locking-only
            mode for non-durable stores).
        group_window_s: group-commit window passed to ``wal.sync`` — how
            long a commit leader waits for followers before fsyncing.
    """

    def __init__(
        self,
        wal: WriteAheadLog,
        locks: LockManager | None = None,
        log: bool = True,
        group_window_s: float = 0.0,
    ):
        self.wal = wal
        self.locks = locks if locks is not None else LockManager()
        self.log = log
        self.group_window_s = group_window_s
        self._next_txn_id = 1
        self._active: dict[int, Transaction] = {}
        self._lock = threading.Lock()

    def begin(self) -> Transaction:
        with self._lock:
            txn_id = self._next_txn_id
            self._next_txn_id += 1
            txn = Transaction(txn_id, self)
            self._active[txn_id] = txn
        return txn

    def _finish(self, txn_id: int, committed: bool | None) -> None:
        """Leave the active set (``None``: in doubt, counted as neither)."""
        with self._lock:
            self._active.pop(txn_id, None)
            if committed:
                self.wal.obs.add("transactions.txns_committed")
            elif committed is not None:
                self.wal.obs.add("transactions.txns_aborted")

    @property
    def active_count(self) -> int:
        return len(self._active)
