"""Durability tour: WAL-backed writes, snapshot scans, crash recovery.

Run with::

    python examples/transactional_store.py

Opens a file-backed store in durable mode, mutates it transactionally,
shows a scan surviving a concurrent re-layout via MVCC snapshots, then
simulates a power loss with the fault injector and recovers from the WAL.
It exits 1 unless the recovered table has all 1010 rows, as columns.
"""

import os
import sys
import tempfile

from repro import Range, RodentStore, Schema
from repro.errors import CrashError
from repro.storage.faults import FaultInjector, lose_unsynced_wal


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="rodent-txn-")
    path = os.path.join(workdir, "store.pages")

    # 1. durable=True wires every mutation through the transaction
    #    manager: effects are WAL-logged and group-committed, and the
    #    store recovers automatically on reopen.
    store = RodentStore(path, page_size=4096, pool_capacity=128,
                        durable=True)
    schema = Schema.of("id:int", "balance:int")
    store.create_table("Accounts", schema)
    store.load("Accounts", [(i, 100) for i in range(1_000)])
    accounts = store.table("Accounts")

    # 2. Inserts, updates and deletes are each one transaction.
    accounts.insert([(2_000 + i, 50) for i in range(10)])
    moved = accounts.update(
        {"balance": lambda row: row["balance"] + 25}, Range("id", 0, 99)
    )
    print(f"update touched {moved} rows in one transaction")

    stats = store.storage_stats()
    print(f"wal: {stats['wal']['wal_bytes']} bytes, "
          f"{stats['transactions']['txns_committed']} txns committed")

    # 3. Checkpointing folds the WAL into the page file + catalog and
    #    truncates the log (close() does this automatically).
    store.checkpoint()
    print(f"after checkpoint: wal is "
          f"{store.storage_stats()['wal']['wal_bytes']} bytes")

    # 4. MVCC snapshots: a scan opened *before* a re-layout keeps reading
    #    its version of the table, even while the writer swaps in a new
    #    columnar representation underneath it.
    scan = accounts.scan(predicate=Range("id", 0, 999))
    first = next(scan)
    store.relayout("Accounts", "columns(Accounts)")
    remainder = sum(1 for _ in scan) + 1
    print(f"snapshot scan saw {remainder} rows across the re-layout; "
          f"new scans use layout {accounts.plan.kind!r}")

    # 5. Simulate a power loss in the middle of a transaction: the fault
    #    injector tears the delete's first WAL record (a page image; its
    #    effect records and its COMMIT reach the log only at commit), so
    #    the delete below never commits — while the committed re-layout
    #    above is still only in the WAL.
    store.inject_faults(FaultInjector(crash_after=0, mode="torn",
                                      target="wal"))
    try:
        accounts.delete(Range("id", 0, 499))
    except CrashError as exc:
        print(f"crash injected: {exc}")
    synced = store.wal.synced_size
    store.wal.close()
    store.disk.close()
    lose_unsynced_wal(path + ".wal", synced)  # drop never-fsynced bytes

    # 6. Reopen: recovery replays committed work and drops the torn
    #    delete — all 1010 rows are still there, as columns.
    reopened = RodentStore(path, page_size=4096, pool_capacity=128,
                           durable=True)
    print(f"recovery: {reopened.recovery_summary}")
    survivors = len(list(reopened.table("Accounts").scan()))
    layout = reopened.table("Accounts").plan.kind
    print(f"after recovery: {survivors} rows (layout {layout!r})")
    reopened.close()
    if (survivors, layout) != (1010, "columns"):
        print("FAIL: recovery lost the committed state or kept the delete")
        sys.exit(1)


if __name__ == "__main__":
    main()
