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

import json
import os
import random
import shutil
import tempfile
from contextlib import contextmanager

import pytest

import oracle
from repro.engine import levels
from repro.engine.database import RodentStore, _Mutation
from repro.layout.renderer import LayoutRenderer
from repro.errors import CrashError, StorageError, StoreFormatError
from repro.migrate import KIND_BEGIN, KIND_UPDATE, decode_record, migrate
from repro.query.expressions import Range
from repro.storage.faults import (
    FaultInjector,
    IoFault,
    IoFaultInjector,
    lose_unsynced_wal,
)
from repro.storage import wal as wal_module
from repro.storage.wal import (
    KIND_CATALOG,
    KIND_COMMIT,
    KIND_FRESH_PAGE,
    KIND_ROWS,
)
from repro.types import Schema
from test_free_space import held_pages

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
        ("flush", None),  # a seal per partition
        ("compact", None),  # a merge per partition
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
            assert_pages_consistent(reopened)
            reopened.close()
        finally:
            shutil.rmtree(d)


#: The composed design of the levelled matrix: every partition carries its
#: own level cascade.
COMPOSED = "partition[id; range, 150](levels[2; 2](rows(T)))"


def build_levelled_workload(seed, design="levels[2; 2](rows(T))"):
    """A deterministic levelled (LSM) op list plus expected states.

    With ``level_seal_rows=8`` and ``levels[2; 2]`` the inserts drive
    run seals and size-tiered merges, the deletes write tombstones, and
    the explicit compact forces a full merge — so the crash boundaries
    sampled below land inside run-seal and manifest-swap transactions.
    Under :data:`COMPOSED` they do so in each partition.
    """
    rng = random.Random(seed)
    initial = [(i, rng.randrange(1000)) for i in range(40)]
    ops = [
        ("create", design),
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


def assert_level_structure_consistent(store, rows):
    """Structural invariants of a recovered levelled manifest holding
    ``rows``."""
    entry = store.catalog.entry("T")
    for region in entry.regions:
        seqs = [r.max_seq for r in region.runs]
        assert seqs == sorted(seqs), "manifest must stay oldest-first"
        assert all(
            t[0] <= entry.next_run_seq for t in region.level_tombstones
        )
    rids = [r.rid for r in entry.runs()]
    assert len(rids) == len(set(rids)), "run ids must be unique"
    assert all(r.rid < entry.next_run_id for r in entry.runs())
    assert all(r.max_seq < entry.next_run_seq for r in entry.runs())
    model = oracle.Model(SCHEMA.names(), rows, store.table("T").plan.expr.to_text())
    oracle.check_table(store.table("T"), model, predicate=Range("id", 0, 250))


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
    run_levelled_matrix(build_levelled_workload(CRASH_SEED))


def test_crash_recovery_composed_matrix():
    """The levelled matrix under :data:`COMPOSED`: a partition of levelled
    regions recovers as one."""
    run_levelled_matrix(build_levelled_workload(CRASH_SEED, COMPOSED))


def run_levelled_matrix(workload):
    ops, expected = workload
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
                if entry.plan is None or not any(
                    region.row_count for region in entry.regions
                ):
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
                    assert_level_structure_consistent(reopened, got)
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
            assert_pages_consistent(reopened)
            reopened.close()
        finally:
            shutil.rmtree(d)


# ---------------------------------------------------------------------------
# Page reuse: a free waits for its durable commit, a fresh page is logged
# once and from what was written (PR 19). Every leg ends with a clean scrub
# and a free map that shares no page with the catalog.
# ---------------------------------------------------------------------------

LEVELS = "levels[2; 2](rows(T))"


def open_small(path):
    return RodentStore(
        path, page_size=1024, pool_capacity=64, durable=True,
        level_seal_rows=8,
    )


def abandon(store):
    """Power loss: drop WAL bytes no fsync covered, skip the checkpoint."""
    synced = store.wal.synced_size
    try:
        store.wal.close()
    except StorageError:
        pass
    store.disk.close()
    lose_unsynced_wal(store.wal.path, synced)


def assert_pages_consistent(store):
    """Scrub is clean, no referenced page is free, and every page of the
    file is either free or one of some run's (its layout's or its
    indexes'): nothing an aborted write allocated is left stranded."""
    report = store.scrub()
    assert report["clean"], report
    referenced = store._referenced_pages()
    free = store.disk.free_page_ids()
    assert not referenced & free
    assert report["pages_free"] == store.disk.free_pages
    owned = {
        p for entry in store.catalog for run in entry.runs()
        for p in run.page_ids()
    }
    stranded = set(range(store.disk.num_pages)) - owned - free
    assert not stranded, f"pages neither free nor a run's: {sorted(stranded)}"


def page_images(store, pages):
    return {p: bytes(store.disk.read_page(p)) for p in sorted(pages)}


@contextmanager
def reopened(path):
    store = open_small(path)
    try:
        yield store
        assert_pages_consistent(store)
    finally:
        store.close()


def levelled_store(path, merged, held):
    """A levelled table after ``merged`` seals with their merges done and
    ``held`` more whose merges were held back: with 2 + 2 the next
    ``compact_levels`` cascades 0 -> 1 then 1 -> 2 in one transaction."""
    store = open_small(path)
    store.create_table("T", SCHEMA, layout=LEVELS)
    table = store.table("T")
    for n in range(merged):
        table.insert([(n * 8 + i, n) for i in range(8)])
    store.compact_levels = lambda *a, **k: {}  # hold the merges back
    for n in range(merged, merged + held):
        table.insert([(n * 8 + i, n) for i in range(8)])
    del store.compact_levels
    return store, table


def test_crash_between_the_swaps_of_one_cascade(tmp_path, monkeypatch):
    """Two level-0 runs beside a level-1 run cascade 0 -> 1, 1 -> 2 in ONE
    transaction. Until its commit is durable no source page may be handed
    out again — the second merge's output least of all — so a
    crash before the commit must reopen to the pre-transaction state, every
    source page bit for bit what it was."""
    path = str(tmp_path / "db")
    store, table = levelled_store(path, merged=2, held=2)
    assert table.run_count == 3
    want = sorted(table.scan())
    sources = store._referenced_pages()
    before = page_images(store, sources)
    merges = []
    merge_once = levels.merge

    def watched(*args, **kwargs):
        # Earlier swaps of this transaction retired pages; none is free.
        assert not sources & store.disk.free_page_ids()
        merges.append(store.disk.free_pages)
        return merge_once(*args, **kwargs)

    monkeypatch.setattr(levels, "merge", watched)
    # The first effect record of the commit does not land.
    store.inject_faults(FaultInjector(0, mode="before", target="wal"))
    with pytest.raises(CrashError):
        store.compact_levels("T")
    assert len(merges) == 2, "the cascade must swap more than once"
    abandon(store)
    with reopened(path) as again:
        assert sorted(again.table("T").scan()) == want
        assert again._referenced_pages() == sources
        assert page_images(again, sources) == before


def test_crash_after_the_commit_fsync_before_the_frees(tmp_path, monkeypatch):
    path = str(tmp_path / "db")
    store, table = levelled_store(path, merged=2, held=2)
    want = sorted(table.scan())
    sources = store._referenced_pages()

    def power_loss(self):
        raise CrashError("injected crash between commit and frees")

    monkeypatch.setattr(_Mutation, "release_retired", power_loss)
    with pytest.raises(CrashError):
        store.compact_levels("T")
    assert store.disk.free_pages == 0  # the list died with the process
    monkeypatch.undo()
    abandon(store)
    with reopened(path) as again:
        # The commit was durable: the merged state, and the sources —
        # which no catalog names any more — derived free.
        assert sorted(again.table("T").scan()) == want
        assert again.table("T").run_count == 1
        assert sources - again._referenced_pages() <= (
            again.disk.free_page_ids()
            | set(range(again.disk.num_pages, max(sources) + 1))
        )


def reusable_span(path):
    """A flat table merged once, after an update, then updated again: the
    first run's pages are free and the next merge's render fits in them.
    (An update renders nothing; the merge folds it in.)"""
    store = open_small(path)
    store.create_table("T", SCHEMA)
    store.load("T", [(i, i) for i in range(300)])
    store.table("T").update({"val": 1}, Range("id", 0, 9))
    store.table("T").compact()
    assert store.disk.free_pages >= 4
    store.table("T").update({"val": 2}, Range("id", 0, 9))
    return store


def open_partitioned(path):
    return RodentStore(path, page_size=512, durable=True)


def partitioned_store(path):
    """Two range partitions of 64 rows; a merge of either renders a few
    512-byte pages."""
    store = open_partitioned(path)
    store.create_table(
        "P", Schema.of("id:int", "val:int", "x:float"),
        layout="partition[id; range, 64](P)",
    )
    store.load("P", [(i, i % 7, i * 0.5) for i in range(128)])
    return store


def assert_left_as_it_was(store, path, want, opener, manifest=None):
    """An aborted call left no trace: the scan (and ``manifest`` of the
    region runs) it found, and a stored row count equal to it, now and
    after a clean close and reopen."""
    name = store.catalog.names()[0]

    def runs(store):
        return [
            (r.rid, r.level, r.min_seq, r.max_seq, r.row_count)
            for r in store.catalog.entry(name).runs()
        ]

    assert sorted(store.table(name).scan()) == want
    assert store.table(name).row_count == len(want)
    assert manifest is None or runs(store) == manifest
    assert_pages_consistent(store)
    store.inject_io_faults(None)
    store.close()
    again = opener(path)
    try:
        assert sorted(again.table(name).scan()) == want
        assert again.table(name).row_count == len(want)
        assert manifest is None or runs(again) == manifest
        assert_pages_consistent(again)
    finally:
        again.close()


def test_an_aborted_partitioned_delete_leaves_no_trace(tmp_path):
    """The delete's merge of partition 0 swaps in before partition 1's
    render runs out of space: the abort swaps partition 0 back."""
    path = str(tmp_path / "db")
    store = partitioned_store(path)
    want = sorted(store.table("P").scan())
    store.inject_io_faults(
        IoFaultInjector(IoFault("enospc", target="page", after=4))
    )
    with pytest.raises(StorageError):
        store.table("P").delete(Range("val", 3, 3))
    assert_left_as_it_was(store, path, want, open_partitioned)


def test_an_aborted_delete_gives_back_the_rows_it_hid(tmp_path):
    """Partition 0 takes four tombstones, then partition 1's reclaim runs
    out of space: the abort takes the tombstones back, and with them the
    rows they hid from partition 0's stored count."""
    path = str(tmp_path / "db")
    store = partitioned_store(path)
    want = sorted(store.table("P").scan())
    store.inject_io_faults(
        IoFaultInjector(IoFault("enospc", target="page", after=0))
    )
    with pytest.raises(StorageError):
        store.table("P").delete(Range("id", 60, 75))
    first = store.table("P").partitions[0]
    assert not first.level_tombstones and first.hidden == 0
    assert_left_as_it_was(store, path, want, open_partitioned)


def test_an_aborted_partitioned_compaction_leaves_no_trace(tmp_path):
    """Pending rows in both partitions; a compaction merges one partition
    per transaction, and the second merge runs out of space after the
    first committed: the first partition stays merged, the second keeps
    its runs and pending rows, and a reopen agrees."""
    path = str(tmp_path / "db")
    store = partitioned_store(path)
    table = store.table("P")
    table.insert([(i, 9, 0.25) for i in (1, 2, 3, 65, 66, 67)])
    want = sorted(table.scan())
    first, second = table.partitions
    second_runs = list(second.runs)
    store.inject_io_faults(
        IoFaultInjector(IoFault("enospc", target="page", after=6))
    )
    with pytest.raises(StorageError):
        table.compact()
    assert len(first.runs) == 1 and not first.pending
    assert first.runs[0].max_seq > max(r.max_seq for r in second_runs)
    assert second.runs == second_runs and len(second.pending) == 3
    manifest = [
        (r.rid, r.level, r.min_seq, r.max_seq, r.row_count)
        for r in store.catalog.entry("P").runs()
    ]
    assert_left_as_it_was(store, path, want, open_partitioned, manifest)


def test_an_aborted_partitioned_load_leaves_no_trace(tmp_path):
    """A load renders every partition's run before it installs any: the
    second partition's render runs out of space, and the first one's run,
    which nothing names, goes back with the failed render's pages."""
    path = str(tmp_path / "db")
    store = partitioned_store(path)
    want = sorted(store.table("P").scan())
    pages = store.disk.num_pages
    store.inject_io_faults(
        IoFaultInjector(IoFault("enospc", target="page", after=5))
    )
    with pytest.raises(StorageError):
        store.load("P", [(i, i % 5, i * 0.25) for i in range(128)])
    assert store.disk.num_pages > pages + 5, "the load must fail in its second run"
    assert_left_as_it_was(store, path, want, open_partitioned)


def test_an_aborted_column_render_gives_back_every_group(tmp_path, monkeypatch):
    """A column run is one extent per group: the merge's second group
    runs out of space, and the first group's extent goes back with the
    one whose write failed."""
    path = str(tmp_path / "db")
    store = open_small(path)
    store.create_table(
        "C", Schema.of("id:int", "val:int", "x:double"), layout="columns(C)"
    )
    store.load("C", [(i, i % 7, i * 0.5) for i in range(300)])
    table = store.table("C")
    table.update({"val": 1}, Range("id", 0, 9))
    want = sorted(table.scan())
    extents = []
    write_pages = LayoutRenderer._write_pages
    monkeypatch.setattr(
        LayoutRenderer, "_write_pages",
        lambda self, pages: extents.append(len(pages)) or write_pages(self, pages),
    )
    store.inject_io_faults(
        IoFaultInjector(IoFault("enospc", target="page", after=4))
    )
    with pytest.raises(StorageError):
        table.compact()
    assert extents == [3, 3], "the render must fail in its second group"
    assert_left_as_it_was(store, path, want, open_small)


def test_crash_between_two_compaction_steps(tmp_path, monkeypatch):
    """A compaction commits one partition per transaction: power fails
    after the first step's commit, as the second begins. The reopen holds
    the model's rows with the first partition merged (its tombstones and
    pending rows folded in) and the second as it was, scrubs clean, and
    keeps the page file within ``2 x live pages + largest run``."""
    from test_free_space import Bound

    path = str(tmp_path / "db")
    store = partitioned_store(path)
    table = store.table("P")
    model = oracle.Model(
        ["id", "val", "x"], [(i, i % 7, i * 0.5) for i in range(128)],
        "partition[id; range, 64](P)",
    )
    table.insert([(i, 9, 0.25) for i in (1, 2, 3, 65, 66, 67)])
    model.insert([(i, 9, 0.25) for i in (1, 2, 3, 65, 66, 67)])
    for action in ("update", "delete"):
        if action == "update":
            args = ({"x": 7.5}, Range("id", 10, 12))
        else:
            args = (Range("id", 70, 72),)
        assert getattr(table, action)(*args) == getattr(model, action)(*args)
    bound = Bound()
    bound.check(store)
    first, second = table.partitions
    assert first.level_tombstones and second.level_tombstones
    second_state = (list(second.runs), list(second.pending),
                    list(second.level_tombstones))
    merges = []
    merge_once = levels.merge

    def power_loss_at_the_second_step(*args, **kwargs):
        merges.append(args[1])
        if len(merges) == 2:
            raise CrashError("injected power loss between two steps")
        return merge_once(*args, **kwargs)

    monkeypatch.setattr(levels, "merge", power_loss_at_the_second_step)
    with pytest.raises(CrashError):
        table.compact()
    assert merges == [first, second]
    monkeypatch.undo()
    abandon(store)
    again = open_partitioned(path)
    try:
        oracle.check_table(again.table("P"), model)
        first, second = again.table("P").partitions
        assert len(first.runs) == 1 and not first.pending
        assert not first.level_tombstones
        assert (
            [(r.rid, r.max_seq) for r in second.runs],
            second.pending, second.level_tombstones,
        ) == (
            [(r.rid, r.max_seq) for r in second_state[0]],
            *second_state[1:],
        )
        bound.check(again)
        assert_pages_consistent(again)
        again.table("P").compact()  # the rest of the merge, after recovery
        oracle.check_table(again.table("P"), model)
        assert all(r.merged() for r in again.table("P").partitions)
        bound.check(again)
        assert_pages_consistent(again)
    finally:
        again.close()


def test_crash_inside_a_seal_of_an_indexed_partitioned_table(
    tmp_path, monkeypatch
):
    """A flush seals each partition's pending rows into a run with its
    declared index built beside it; power fails inside the second seal.
    The abort gives back the first seal's run and its tree; the reopen
    holds the model's rows (the flush never happened), every page is a
    run's or free, and once the index is declared again every run's tree
    is probed and every page is a run's, a tree's or free."""
    path = str(tmp_path / "db")
    store = partitioned_store(path)
    table = store.table("P")
    table.create_index("id")
    model = oracle.Model(
        ["id", "val", "x"], [(i, i % 7, i * 0.5) for i in range(128)],
        "partition[id; range, 64](P)",
    )
    fresh = [(i, 9, 0.25) for i in (1, 2, 3, 65, 66, 67)]
    table.insert(fresh)
    model.insert(fresh)
    before = held_pages(store)
    built = []
    build = levels.build_indexes

    def power_loss_in_the_second_seal(*args, **kwargs):
        if built:
            raise CrashError("injected power loss inside a seal")
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(levels, "build_indexes", power_loss_in_the_second_seal)
    with pytest.raises(CrashError):
        table.flush_inserts()
    monkeypatch.undo()
    (first,) = built[0].values()
    assert set(first.tree.page_ids()) <= store.disk.free_page_ids()
    assert held_pages(store) == before
    abandon(store)
    again = open_partitioned(path)
    try:
        every = set(range(again.disk.num_pages))
        assert every == again._referenced_pages() | again.disk.free_page_ids()
        table = again.table("P")
        assert [len(r.pending) for r in table.partitions] == [3, 3]
        table.create_index("id")
        predicate = Range("id", 60, 70)
        assert table.scan_access(predicate=predicate).probes == 2
        oracle.check_table(table, model, predicate=predicate)
        oracle.check_table(table, model)
        every = set(range(again.disk.num_pages))
        assert every == held_pages(again) | again.disk.free_page_ids()
        assert_pages_consistent(again)
    finally:
        again.close()


def test_an_aborted_level_cascade_leaves_no_trace(tmp_path, monkeypatch):
    """The cascade's first merge (0 -> 1) swaps in; its second (1 -> 2) runs
    out of space: the abort restores the three-run manifest."""
    path = str(tmp_path / "db")
    store, table = levelled_store(path, merged=2, held=2)
    want = sorted(table.scan())
    entry = store.catalog.entry("T")
    manifest = [
        (r.rid, r.level, r.min_seq, r.max_seq, r.row_count)
        for r in entry.runs()
    ]
    assert len(manifest) == 3
    renders = []
    render = RodentStore._render_region
    monkeypatch.setattr(
        RodentStore, "_render_region",
        lambda *a, **k: renders.append(1) or render(*a, **k),
    )
    store.inject_io_faults(
        IoFaultInjector(IoFault("enospc", target="page", after=1))
    )
    with pytest.raises(StorageError):
        store.compact_levels("T")
    assert len(renders) == 2, "the cascade must fail in its second merge"
    assert_left_as_it_was(store, path, want, open_small, manifest)


def test_crash_mid_render_onto_a_reused_span(tmp_path):
    path = str(tmp_path / "db")
    store = reusable_span(path)
    want = sorted(store.table("T").scan())
    num_pages = store.disk.num_pages
    free = store.disk.free_page_ids()
    store.inject_faults(FaultInjector(2, mode="torn", target="page"))
    with pytest.raises(CrashError):
        store.table("T").compact()
    assert store.disk.num_pages == num_pages, "the render must reuse a span"
    assert store.disk.free_page_ids() < free
    abandon(store)
    with reopened(path) as again:
        assert sorted(again.table("T").scan()) == want


def test_torn_fresh_page_record_at_the_log_tail(tmp_path):
    path = str(tmp_path / "db")
    store = reusable_span(path)
    want = sorted(store.table("T").scan())
    # Two FRESH_PAGE records land, the third is torn.
    store.inject_faults(FaultInjector(2, mode="torn", target="wal"))
    with pytest.raises(CrashError):
        store.table("T").compact()
    kinds = [r.kind for r in store.wal.records()]
    assert kinds[-2:] == [KIND_FRESH_PAGE] * 2  # the torn one ends the log
    store.wal.sync()  # the tail reached the medium as it is
    abandon(store)
    with reopened(path) as again:
        assert again.recovery_summary["loser_txns"] == 1
        assert sorted(again.table("T").scan()) == want


def test_pinned_scan_outlives_two_merges(tmp_path):
    path = str(tmp_path / "db")
    store, table = levelled_store(path, merged=0, held=2)
    want = sorted(table.scan())
    pinned = store._referenced_pages()
    scan = table.scan()
    first = next(scan)  # the snapshot is pinned from here
    for n in range(2, 6):  # four more seals: 0 -> 1, then 0 -> 1 -> 2
        table.insert([(n * 8 + i, n) for i in range(8)])
    stats = store.storage_stats()["tables"]["T"]["write_amplification"]
    assert stats["compactions"] >= 2
    assert not pinned & store._referenced_pages()  # merged away, both
    assert not pinned & store.disk.free_page_ids(), "pinned pages were freed"
    assert sorted([first, *scan]) == want
    # The last reader is gone: its runs' pages are free now.
    assert pinned <= store.disk.free_page_ids()
    assert len(list(table.scan())) == 48
    assert_pages_consistent(store)
    store.close()


def parent_store(tmp_path):
    """A copy of the store ``tests/data/parent_store/make_fixture.py``
    wrote, its opener, and the scans it answered (``expected.json``). The
    engine refuses the copy until ``python -m repro.migrate`` converted
    it; ``migrated`` does, returning the migrator's summary."""
    source = os.path.join(os.path.dirname(__file__), "data", "parent_store")
    for name in os.listdir(source):
        if name.startswith("db."):
            shutil.copy(os.path.join(source, name), tmp_path)
    with open(os.path.join(source, "expected.json")) as f:
        expected = json.load(f)

    def opened():
        return RodentStore(
            str(tmp_path / "db.pages"), durable=True, page_size=512,
            pool_capacity=16, level_seal_rows=16,
        )

    def migrated():
        with pytest.raises(StoreFormatError, match="python -m repro.migrate"):
            opened()
        return migrate(str(tmp_path / "db.pages"))

    return opened, migrated, expected


def test_parent_written_store_reopens(tmp_path):
    """A store written by the parent commit (all three table shapes,
    overflow + pending, an un-checkpointed WAL of zero-before-image
    ``KIND_UPDATE`` page records) is refused, then migrated: its replay
    answers the same scans, and it scrubs clean."""
    opened, migrated, expected = parent_store(tmp_path)
    summary = migrated()["recovery"]
    assert summary["clean"] is False and summary["pages_redone"] > 0
    store = opened()
    for name, rows in expected.items():
        assert sorted(map(list, store.table(name).scan())) == rows
        assert store.catalog.entry(name).policy == "eager"  # no key: eager
    assert_pages_consistent(store)
    assert store.scrub()["clean"]
    assert store.disk.free_pages > 0  # the parent's leaked pages came back
    # And it keeps working, reusing them.
    allocated = store.disk.num_pages
    store.table("Flat").insert([(1000, 1, 0.5)])
    store.table("Flat").flush_inserts()
    assert store.disk.num_pages == allocated
    store.close()


def test_parent_written_store_takes_tombstones(tmp_path):
    """Every table of the migrated parent-written store takes an update and
    a delete as tombstones — no page rendered — that a compaction folds in
    and a reopen keeps, equal to ``expected.json`` edited the same way."""
    opened, migrated, expected = parent_store(tmp_path)
    migrated()
    store = opened()
    for name, rows in expected.items():
        table = store.table(name)
        written = store.storage_stats()["tables"][name][
            "write_amplification"]["bytes_written"]
        assert table.update({"val": -1}, Range("id", 2, 3)) == 2
        assert table.delete(Range("id", 5, 5)) == 1
        assert store.storage_stats()["tables"][name][
            "write_amplification"]["bytes_written"] == written
        expected[name] = sorted(
            [r[0], -1 if 2 <= r[0] <= 3 else r[1], r[2]]
            for r in rows if r[0] != 5
        )
        assert sorted(map(list, table.scan())) == expected[name]
    store.close()
    store = opened()
    for name, rows in expected.items():
        assert sorted(map(list, store.table(name).scan())) == rows
        store.table(name).compact()
        assert store.storage_stats()["tables"][name]["tombstones"] == 0
        assert sorted(map(list, store.table(name).scan())) == rows
    assert_pages_consistent(store)
    store.close()


def test_parent_log_is_all_legacy_page_records():
    """The fixture's log is the old protocol's: BEGIN / COMMIT around
    every transaction, and every page record a whole-page ``UPDATE`` with
    an all-zero before-image — which the migrator's decoder steps over."""
    source = os.path.join(os.path.dirname(__file__), "data", "parent_store")
    with open(os.path.join(source, "db.pages.wal"), "rb") as f:
        data = f.read()
    meta = wal_module._HEADER.size + wal_module._UPDATE_META.size
    kinds, pages, at = [], [], 0
    while at < len(data):
        record, end = decode_record(data, at)
        kinds.append(record.kind)
        if record.page_id >= 0:
            before = data[at + meta : at + meta + len(record.after)]
            pages.append((record, before))
        at = end
    assert {k: kinds.count(k) for k in set(kinds)} == {
        KIND_BEGIN: 27, KIND_UPDATE: 49, KIND_COMMIT: 27, KIND_ROWS: 15,
        KIND_CATALOG: 12,
    }
    assert all(r.kind == KIND_UPDATE for r, _ in pages)
    assert all(r.offset == 0 and len(r.after) == 512 for r, _ in pages)
    assert all(before == bytes(512) for _, before in pages)
