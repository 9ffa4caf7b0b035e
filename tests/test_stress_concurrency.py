"""Threaded stress: N writers x M scanners under MVCC snapshots.

Invariants checked while writers mutate the table as fast as they can:

* **Snapshot isolation** — every scan sees an atomic state: the two
  "bank account" rows always sum to their invariant total (a transfer is
  one transaction), and inserted row pairs appear both-or-neither.
* **No lost updates** — per-table strict two-phase locking serializes
  writers, so every one of the N x K increments of the shared counter row
  lands: the final value is exactly N x K.
* **Durability** — after the storm, an unclean close + reopen recovers
  exactly the final committed state.
* **Adaptation under live readers** — the adaptive loop is on, with a
  seeded workload that makes ``columns(T)`` clearly better, so automatic
  re-layouts land while scanners are mid-iteration; a reader opened
  before the storm and drained after it still returns the rows it pinned.
"""

import os
import sys
import threading

import pytest

from repro.engine.cost import CostModel
from repro.engine.database import RodentStore
from repro.errors import StorageError
from repro.optimizer.workload import Query, Workload
from repro.query.expressions import Range
from repro.types import Schema

SCHEMA = Schema.of("id:int", "val:int")

N_WRITERS = int(os.environ.get("STRESS_WRITERS", "3"))
N_SCANNERS = int(os.environ.get("STRESS_SCANNERS", "3"))
N_ROUNDS = int(os.environ.get("STRESS_ROUNDS", "12"))

TOTAL = 1_000  # invariant sum of the two account rows (ids 1 and 2)
# Enough rows (ids below the inserted ones) for a projection of one of
# two fields to read clearly fewer pages.
BASE_ROWS = [(0, 0), (1, TOTAL), (2, 0)] + [
    (10 + i, i) for i in range(900)
]


@pytest.fixture
def stress_store(tmp_path):
    # Pages, not seeks, dominate the cost (no seek charge): a column
    # layout pays off for the seeded projections of ``val``.
    store = RodentStore(
        str(tmp_path / "db.pages"), page_size=1024, pool_capacity=128,
        durable=True, adaptive=True, adapt_interval=4,
        cost_model=CostModel(page_size=1024, seek_ms=0.0),
    )
    store.create_table("T", SCHEMA)
    store.load("T", BASE_ROWS)
    seed = Workload("T")
    seed.add(Query("projection", fieldlist=("val",), weight=50.0))
    store.adaptivity.seed_workload(seed)
    yield store
    if not store._closed:
        store.close()


def test_writers_vs_scanners(stress_store):
    store = stress_store
    table = store.table("T")
    errors: list[str] = []
    stop = threading.Event()

    def writer(wid: int):
        try:
            for round_no in range(N_ROUNDS):
                # increment the shared counter row (lost-update probe)
                table.update(
                    {"val": lambda r: r["val"] + 1}, Range("id", 0, 0)
                )
                # transfer between the two account rows (atomicity probe)
                delta = (wid + round_no) % 7 + 1
                table.update(
                    {
                        "val": lambda r, d=delta: (
                            r["val"] - d if r["id"] == 1 else r["val"] + d
                        )
                    },
                    Range("id", 1, 2),
                )
                # insert a pair of rows in one transaction
                base = 1000 + wid * 10_000 + round_no * 2
                table.insert([(base, wid), (base + 1, wid)])
        except Exception as exc:  # noqa: BLE001 - report into main thread
            errors.append(f"writer {wid}: {exc!r}")

    # Open before the storm: re-layouts land while this reader is live.
    reader = table.scan()
    first = next(reader)

    def scanner(sid: int):
        try:
            while not stop.is_set():
                rows = dict(table.scan(predicate=Range("id", 1, 2)))
                if set(rows) != {1, 2}:
                    errors.append(f"scanner {sid}: saw accounts {rows}")
                elif rows[1] + rows[2] != TOTAL:
                    errors.append(
                        f"scanner {sid}: torn transfer {rows}"
                    )
                inserted = [
                    r for r in table.scan() if 1000 <= r[0] < 100_000
                ]
                if len(inserted) % 2:
                    errors.append(
                        f"scanner {sid}: torn insert pair "
                        f"({len(inserted)} rows)"
                    )
        except Exception as exc:  # noqa: BLE001
            errors.append(f"scanner {sid}: {exc!r}")

    writers = [
        threading.Thread(target=writer, args=(w,)) for w in range(N_WRITERS)
    ]
    scanners = [
        threading.Thread(target=scanner, args=(s,))
        for s in range(N_SCANNERS)
    ]
    # Switch threads often, so re-layouts interleave with scans finely.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in writers + scanners:
            t.start()
        for t in writers:
            t.join(timeout=120)
        stop.set()
        for t in scanners:
            t.join(timeout=30)
    finally:
        stop.set()
        sys.setswitchinterval(interval)

    assert not any(t.is_alive() for t in writers + scanners)
    assert not errors, errors[:5]
    # At least one automatic re-layout landed under the live reader, which
    # still returns exactly the rows it pinned.
    assert store.adaptivity.reorganizer.reorganizations >= 1
    assert [first, *reader] == BASE_ROWS

    # no lost updates: every increment landed
    final = dict(table.scan(predicate=Range("id", 0, 2)))
    assert final[0] == N_WRITERS * N_ROUNDS
    assert final[1] + final[2] == TOTAL
    # every inserted pair is present
    inserted = [r for r in table.scan() if 1000 <= r[0] < 100_000]
    assert len(inserted) == N_WRITERS * N_ROUNDS * 2

    # unclean close + reopen recovers exactly the final committed state
    want = sorted(table.scan())
    path = store.disk.path
    try:
        store.wal.close()
    except StorageError:
        pass
    store.disk.close()
    store._closed = True

    reopened = RodentStore(
        path, page_size=1024, pool_capacity=128, durable=True
    )
    assert reopened.recovery_summary["clean"] is False
    assert sorted(reopened.table("T").scan()) == want
    reopened.close()
