"""Crash-recovery matrix: kill the store at every write boundary.

A deterministic workload (load, inserts, relayouts, deletes, updates) is
first probed with a never-firing :class:`FaultInjector` to count its write
operations, then replayed once per tested boundary with a crash injected
there. After each crash the store is reopened — which runs recovery — and
the surviving rows must equal the model state after the last *completed*
operation: every committed op is present, the interrupted op has vanished
without a trace.

Environment knobs (the CI smoke uses small defaults):

* ``CRASH_ITERATIONS`` — how many boundaries to test (evenly spaced across
  the workload; ``0`` means every single one).
* ``CRASH_SEED`` — seed for the workload generator and crash-mode choice.
"""

import os
import random
import shutil
import tempfile

from repro.engine.database import RodentStore
from repro.errors import CrashError, StorageError
from repro.query.expressions import Range
from repro.storage.faults import FaultInjector, lose_unsynced_wal
from repro.types import Schema

SCHEMA = Schema.of("id:int", "val:int")

CRASH_ITERATIONS = int(os.environ.get("CRASH_ITERATIONS", "24"))
CRASH_SEED = int(os.environ.get("CRASH_SEED", "20260808"))


def build_workload(seed):
    """A deterministic op list plus the expected row set after each op."""
    rng = random.Random(seed)
    initial = [(i, rng.randrange(1000)) for i in range(120)]

    ops = [
        ("create", None),
        ("load", list(initial)),
        ("insert", [(200 + i, rng.randrange(1000)) for i in range(30)]),
        ("relayout", "columns(T)"),
        ("insert", [(300 + i, rng.randrange(1000)) for i in range(30)]),
        ("flush", None),
        ("delete", (0, 39)),
        ("relayout", "partition[id; range, 128](T)"),
        ("update", (200, 229)),
        ("insert", [(400 + i, rng.randrange(1000)) for i in range(20)]),
    ]

    # Model the expected state after each op completes.
    rows: dict[int, int] = {}
    expected = []
    for kind, arg in ops:
        if kind in ("load",):
            rows = {k: v for k, v in arg}
        elif kind == "insert":
            rows.update({k: v for k, v in arg})
        elif kind == "delete":
            lo, hi = arg
            rows = {k: v for k, v in rows.items() if not lo <= k <= hi}
        elif kind == "update":
            lo, hi = arg
            rows = {
                k: (0 if lo <= k <= hi else v) for k, v in rows.items()
            }
        expected.append(sorted(rows.items()))
    return ops, expected


def apply_op(store, kind, arg):
    if kind == "create":
        if arg is None:
            store.create_table("T", SCHEMA)
        else:
            store.create_table("T", SCHEMA, layout=arg)
    elif kind == "load":
        store.load("T", arg)
    elif kind == "insert":
        store.table("T").insert(arg)
    elif kind == "flush":
        store.table("T").flush_inserts()
    elif kind == "compact":
        store.table("T").compact()
    elif kind == "relayout":
        store.relayout("T", arg)
    elif kind == "delete":
        store.table("T").delete(Range("id", *arg))
    elif kind == "update":
        store.table("T").update({"val": 0}, Range("id", *arg))


def run_workload(path, ops, injector):
    """Run ops until an injected crash; return (#completed, synced_size)."""
    store = RodentStore(
        path, page_size=1024, pool_capacity=64, durable=True,
        level_seal_rows=8,
    )
    store.inject_faults(injector)
    completed = 0
    try:
        for kind, arg in ops:
            apply_op(store, kind, arg)
            completed += 1
    except CrashError:
        pass
    synced = store.wal.synced_size
    try:
        store.wal.close()
    except StorageError:
        pass
    store.disk.close()
    return completed, synced


def test_crash_recovery_matrix():
    ops, expected = build_workload(CRASH_SEED)
    rng = random.Random(CRASH_SEED ^ 0x5EED)

    # Probe: count every write boundary of the full workload.
    with tempfile.TemporaryDirectory() as d:
        probe = FaultInjector(crash_after=1 << 62)
        completed, _ = run_workload(os.path.join(d, "db"), ops, probe)
        assert completed == len(ops), "probe run must not crash"
        total_writes = probe.writes
    assert total_writes > 20

    if CRASH_ITERATIONS and CRASH_ITERATIONS < total_writes:
        step = total_writes / CRASH_ITERATIONS
        boundaries = sorted({int(i * step) for i in range(CRASH_ITERATIONS)})
    else:
        boundaries = list(range(total_writes))

    for boundary in boundaries:
        mode = rng.choice(("before", "after", "torn"))
        d = tempfile.mkdtemp()
        try:
            path = os.path.join(d, "db")
            injector = FaultInjector(crash_after=boundary, mode=mode)
            completed, synced = run_workload(path, ops, injector)
            assert completed < len(ops), (
                f"boundary {boundary} did not crash"
            )
            lose_unsynced_wal(path + ".wal", synced)

            reopened = RodentStore(
                path, page_size=1024, pool_capacity=64, durable=True
            )
            if completed == 0:
                assert not reopened.catalog.has("T")
            else:
                want = expected[completed - 1]
                entry = reopened.catalog.entry("T")
                if entry.plan is None or not entry.loaded:
                    got = []  # created but never loaded
                else:
                    got = sorted(reopened.table("T").scan())
                assert got == want, (
                    f"boundary {boundary} mode {mode}: after "
                    f"{completed}/{len(ops)} ops expected "
                    f"{len(want)} rows, got {len(got)}"
                )
            reopened.close()
        finally:
            shutil.rmtree(d)


def build_levelled_workload(seed):
    """A deterministic levelled (LSM) op list plus expected states.

    With ``level_seal_rows=8`` and ``levels[2; 2]`` the inserts drive
    run seals and size-tiered merges, the deletes write tombstones, and
    the explicit compact forces a full merge — so the crash boundaries
    sampled below land inside run-seal and manifest-swap transactions.
    """
    rng = random.Random(seed)
    initial = [(i, rng.randrange(1000)) for i in range(40)]
    ops = [
        ("create", "levels[2; 2](rows(T))"),
        ("load", list(initial)),
        ("insert", [(100 + i, rng.randrange(1000)) for i in range(10)]),
        ("insert", [(200 + i, rng.randrange(1000)) for i in range(10)]),
        ("delete", (5, 24)),
        ("insert", [(300 + i, rng.randrange(1000)) for i in range(20)]),
        ("compact", None),
        ("insert", [(400 + i, rng.randrange(1000)) for i in range(6)]),
        ("flush", None),
        ("delete", (300, 311)),
    ]
    rows: dict[int, int] = {}
    expected = []
    for kind, arg in ops:
        if kind == "load":
            rows = {k: v for k, v in arg}
        elif kind == "insert":
            rows.update({k: v for k, v in arg})
        elif kind == "delete":
            lo, hi = arg
            rows = {k: v for k, v in rows.items() if not lo <= k <= hi}
        expected.append(sorted(rows.items()))
    return ops, expected


def assert_level_structure_consistent(store):
    """Structural invariants of a recovered levelled manifest."""
    entry = store.catalog.entry("T")
    (region,) = entry.regions
    seqs = [r.max_seq for r in region.runs]
    assert seqs == sorted(seqs), "manifest must stay oldest-first"
    rids = [r.rid for r in region.runs]
    assert len(rids) == len(set(rids)), "run ids must be unique"
    assert all(r.rid < entry.next_run_id for r in region.runs)
    assert all(r.max_seq < entry.next_run_seq for r in region.runs)
    assert all(
        t[0] <= entry.next_run_seq for t in entry.level_tombstones
    )
    table = store.table("T")
    assert sorted(table.scan()) == sorted(table.scan_reference())


def test_crash_recovery_levelled_matrix():
    """Kill the store at every run-seal / manifest-swap write boundary.

    Seals and merges run *after* the triggering insert's transaction
    commits, so a crash inside them must leave exactly the committed
    rows: the reopened state equals the model either after the last
    fully-applied op or after the interrupted op's own commit (when the
    crash hit its post-commit maintenance) — never anything between, no
    lost committed rows, no resurrected tombstoned rows. The reopened
    manifest must also be structurally sound and keep working.
    """
    ops, expected = build_levelled_workload(CRASH_SEED)
    rng = random.Random(CRASH_SEED ^ 0x1E7E1)

    with tempfile.TemporaryDirectory() as d:
        probe = FaultInjector(crash_after=1 << 62)
        completed, _ = run_workload(os.path.join(d, "db"), ops, probe)
        assert completed == len(ops), "probe run must not crash"
        total_writes = probe.writes
    assert total_writes > 20

    if CRASH_ITERATIONS and CRASH_ITERATIONS < total_writes:
        step = total_writes / CRASH_ITERATIONS
        boundaries = sorted({int(i * step) for i in range(CRASH_ITERATIONS)})
    else:
        boundaries = list(range(total_writes))

    for boundary in boundaries:
        mode = rng.choice(("before", "after", "torn"))
        d = tempfile.mkdtemp()
        try:
            path = os.path.join(d, "db")
            injector = FaultInjector(crash_after=boundary, mode=mode)
            completed, synced = run_workload(path, ops, injector)
            assert completed < len(ops), (
                f"boundary {boundary} did not crash"
            )
            lose_unsynced_wal(path + ".wal", synced)

            reopened = RodentStore(
                path, page_size=1024, pool_capacity=64, durable=True,
                level_seal_rows=8,
            )
            if completed == 0:
                assert not reopened.catalog.has("T")
            else:
                entry = reopened.catalog.entry("T")
                if entry.plan is None or not entry.regions[0].row_count:
                    got = []
                else:
                    got = sorted(reopened.table("T").scan())
                # The interrupted op either never committed (state of
                # the previous op) or committed and crashed in its
                # post-commit seal/merge maintenance (its own state).
                allowed = [expected[completed - 1]]
                if completed < len(expected):
                    allowed.append(expected[completed])
                assert got in allowed, (
                    f"boundary {boundary} mode {mode}: after "
                    f"{completed}/{len(ops)} ops got {len(got)} rows, "
                    f"allowed "
                    f"{[len(a) for a in allowed]}"
                )
                if entry.plan is not None:
                    assert_level_structure_consistent(reopened)
                    # The recovered structure must remain fully usable:
                    # ingest more, merge everything, answers stay exact.
                    model = dict(got)
                    extra = [(900 + i, i) for i in range(10)]
                    reopened.table("T").insert(extra)
                    model.update({k: v for k, v in extra})
                    reopened.table("T").compact()
                    assert sorted(reopened.table("T").scan()) == sorted(
                        model.items()
                    )
            reopened.close()
        finally:
            shutil.rmtree(d)
