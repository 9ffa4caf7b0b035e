"""Free space: the span map, and the growth bound it buys.

* A hypothesis state machine drives ``DiskManager`` (allocate n / free /
  double free / truncate / quarantine + rewrite / reopen with a referenced
  set) against a set model: a live page is never handed out, adjacent frees
  coalesce, an extent takes the smallest span that fits, and a quarantined
  page is not reissued until it was rewritten.
* Steady-state rounds on the three table shapes keep the page file within
  ``2 x live pages + largest run`` (both at their peak so far), stop
  growing, and keep the bound across
  close/reopen and crash/recover — where the map is rebuilt from the catalog,
  never read from a file.
* Dropping, clearing and rebuilding a secondary index gives its nodes back.
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.engine.database import RodentStore
from repro.errors import StorageError
from repro.query.expressions import Range
from repro.storage.disk import DiskManager, FreeSpans
from repro.types import Schema

PAGE = 128


def spans_of(pages):
    """Maximal ``[start, stop)`` runs of a set of page ids."""
    out = []
    for p in sorted(pages):
        if out and out[-1][1] == p:
            out[-1][1] = p + 1
        else:
            out.append([p, p + 1])
    return [tuple(s) for s in out]


class DiskSpace(RuleBasedStateMachine):
    """``DiskManager`` against ``live`` / ``free`` / ``quarantined`` sets."""

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp()
        self.path = os.path.join(self.dir, "pages")
        self.disk = DiskManager(self.path, page_size=PAGE)
        self.live: set[int] = set()
        self.free: set[int] = set()
        self.quarantined: set[int] = set()
        self.end = 0

    def teardown(self):
        self.disk.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    @initialize(n=st.integers(1, 12))
    def first_extent(self, n):
        self.allocate(n, single=False)

    def expected_start(self, n):
        """Best fit: the smallest span holding ``n`` pages and no
        quarantined one (lowest on ties), else the end of the file."""
        fits = [
            (stop - start, start)
            for start, stop in spans_of(self.free)
            if stop - start >= n
            and not any(start <= q < stop for q in self.quarantined)
        ]
        return min(fits)[1] if fits else self.end

    @rule(n=st.integers(1, 6), single=st.booleans())
    def allocate(self, n, single):
        if single:
            n = 1
        want = self.expected_start(n)
        if single:
            ids = [self.disk.allocate_page()]
        else:
            ids = self.disk.allocate_contiguous(n)
        assert ids == list(range(want, want + n))
        assert not set(ids) & self.live, "a live page was handed out"
        assert not set(ids) & self.quarantined
        for p in ids:  # an extent is filled before anything reads it
            self.disk.write_page(p, bytes([p % 251]) * PAGE)
        self.live |= set(ids)
        self.free -= set(ids)
        self.end = max(self.end, ids[-1] + 1)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def free_one(self, data):
        p = data.draw(st.sampled_from(sorted(self.live)))
        self.disk.free_page(p)
        self.live.remove(p)
        self.free.add(p)

    @precondition(lambda self: self.free)
    @rule(data=st.data())
    def double_free(self, data):
        p = data.draw(st.sampled_from(sorted(self.free)))
        with pytest.raises(StorageError, match="double free"):
            self.disk.free_page(p)

    @rule()
    def truncate(self):
        end = self.end
        while end - 1 in self.free:
            end -= 1
        assert self.disk.truncate_free_tail() == self.end - end
        self.free -= set(range(end, self.end))
        self.quarantined -= set(range(end, self.end))
        self.end = end

    @precondition(lambda self: self.free or self.live)
    @rule(data=st.data())
    def quarantine(self, data):
        p = data.draw(st.sampled_from(sorted(self.free | self.live)))
        self.disk.integrity.record_page_failure(p, "test")
        self.quarantined.add(p)

    @precondition(lambda self: self.quarantined)
    @rule(data=st.data())
    def rewrite(self, data):
        p = data.draw(st.sampled_from(sorted(self.quarantined)))
        self.disk.write_page(p, bytes(PAGE))
        self.disk.integrity.record_page_repair(p)
        self.quarantined.remove(p)

    @rule()
    def reopen(self):
        """The map is in no file: a reopened manager is told what is
        referenced and derives the rest."""
        self.disk.close()
        self.disk = DiskManager(self.path, page_size=PAGE)
        assert self.disk.num_pages == self.end
        assert self.disk.free_pages == 0
        self.disk.reset_free(self.live)
        self.free = set(range(self.end)) - self.live
        self.quarantined.clear()  # the registry is per session

    @invariant()
    def agrees_with_model(self):
        assert self.disk.num_pages == self.end
        assert self.disk.free_page_ids() == self.free
        assert self.disk.free_pages == len(self.free)
        # Sorted and coalesced: no two spans touch.
        assert self.disk.free_spans() == spans_of(self.free)
        assert self.disk.file_pages == self.end
        for p in self.live - self.quarantined:
            assert self.disk.read_page(p)[0] in (p % 251, 0)


TestDiskSpace = DiskSpace.TestCase
TestDiskSpace.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


class TestFreeSpans:
    def test_best_fit_takes_smallest_then_lowest(self):
        spans = FreeSpans()
        spans.reset(40, set(range(40)) - {0, 1, 2, 3, 10, 11, 20, 21, 30})
        assert spans.spans() == [(0, 4), (10, 12), (20, 22), (30, 31)]
        assert spans.take(2) == 10  # (10, 12) and (20, 22) tie: lowest
        assert spans.take(3) == 0  # carved off the front of (0, 4)
        assert spans.spans() == [(3, 4), (20, 22), (30, 31)]
        assert spans.take(3) is None
        assert spans.pages == 4

    def test_free_joins_both_neighbours(self):
        spans = FreeSpans()
        for p in (5, 7, 6):
            spans.add(p)
        assert spans.spans() == [(5, 8)] and spans.pages == 3
        assert 6 in spans and 8 not in spans and 4 not in spans

    def test_in_memory_tail_truncation(self):
        disk = DiskManager(page_size=PAGE)
        ids = disk.allocate_contiguous(6)
        for p in ids:
            disk.write_page(p, bytes(PAGE))
        for p in (3, 4, 5, 1):
            disk.free_page(p)
        assert disk.truncate_free_tail() == 3
        assert disk.num_pages == 3 and disk.file_pages == 3
        assert disk.free_page_ids() == {1}
        with pytest.raises(StorageError):
            disk.read_page(4)

    def test_unwritten_extent_reads_as_zeros(self, tmp_path):
        """An extent is not zero-filled: the file grows by being written."""
        disk = DiskManager(str(tmp_path / "p"), page_size=PAGE)
        ids = disk.allocate_contiguous(4)
        assert disk.file_pages == 0
        assert bytes(disk.read_page(ids[2])) == bytes(PAGE)
        disk.write_page(ids[2], b"\x07" * PAGE)
        assert disk.file_pages == 3  # the gap below entered the file
        assert bytes(disk.read_page(ids[0])) == bytes(PAGE)
        assert bytes(disk.read_page(ids[2])) == b"\x07" * PAGE
        disk.close()


# -- the growth bound, on the three table shapes ------------------------------

SCHEMA = Schema.of("id:int", "val:int", "w:float")
KEYS = 600


def rows(lo, hi, salt):
    return [(i, (i * 7 + salt) % 1000, i * 0.5 + salt) for i in range(lo, hi)]


def flat_round(store, n):
    """Insert + flush (an overflow run), delete as many (a copy-on-write
    rewrite), compact every third round."""
    t = store.table("T")
    lo = KEYS + n * 40
    t.insert(rows(lo, lo + 40, n))
    t.flush_inserts()
    t.delete(Range("id", lo - KEYS, lo - KEYS + 39))
    if n % 3 == 2:
        t.compact()


def partition_round(store, n):
    """Update one band, delete another and re-insert it."""
    t = store.table("T")
    a = (n * 37) % (KEYS - 60)
    t.update({"val": n}, Range("id", a, a + 29))
    b = (n * 53) % (KEYS - 60)
    t.delete(Range("id", b, b + 19))
    t.insert(rows(b, b + 20, n))
    if n % 4 == 3:
        t.flush_inserts()


def levels_round(store, n):
    """Steady ingest: upserts over a fixed key space, sealed and merged,
    with a full compaction every sixteenth round (without one the levels
    keep deepening and the versions live at once keep setting records)."""
    t = store.table("T")
    a = (n * 97) % KEYS
    t.insert(rows(a, min(KEYS, a + 64), n))
    if n % 16 == 15:
        t.compact()


SHAPES = {
    "flat": ("rows(T)", flat_round),
    "partitioned": ("partition[id; range, 128](T)", partition_round),
    "levelled": ("levels[4; 4; id](columns(T))", levels_round),
}
ROUNDS = 96


def open_store(path):
    return RodentStore(
        path, durable=True, page_size=1024, pool_capacity=32,
        level_seal_rows=64,
    )


def abandon(store):
    """Power loss: no checkpoint, no close()."""
    store.wal.close()
    store.disk.close()


class Bound:
    """``num_pages <= 2 x live pages + largest run``, live pages and largest
    run being the most the store held at once so far: a merge that shrinks
    the table leaves the file where it was until a checkpoint finds the
    tail free."""

    def __init__(self):
        self.live = self.largest = 0

    def check(self, store) -> int:
        referenced = store._referenced_pages()
        # The map's own invariant: no page is both free and referenced.
        assert not referenced & store.disk.free_page_ids()
        self.live = max(self.live, len(referenced))
        self.largest = max(
            [self.largest]
            + [run.total_pages() for e in store.catalog for run in e.runs()]
        )
        num_pages = store.disk.num_pages
        assert num_pages <= 2 * self.live + self.largest, (
            num_pages, self.live, self.largest,
        )
        return num_pages


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_page_file_follows_live_data(tmp_path, shape):
    layout, one_round = SHAPES[shape]
    path = str(tmp_path / "db")
    store = open_store(path)
    store.create_table("T", SCHEMA, layout=layout)
    if shape == "levelled":
        store.table("T").insert(rows(0, KEYS, 0))
    else:
        store.load("T", rows(0, KEYS, 0))
    bound = Bound()
    sizes = []
    for n in range(ROUNDS):
        one_round(store, n)
        sizes.append(bound.check(store))
    # Steady state: the second half peaks no higher than the first.
    assert max(sizes[ROUNDS // 2:]) <= max(sizes[: ROUNDS // 2]), sizes
    peak = max(sizes)
    want = sorted(store.table("T").scan())

    # Close / reopen: the map is rebuilt from the catalog, not read back.
    store.close()
    store = open_store(path)
    assert store.recovery_summary == {"clean": True}
    assert sorted(store.table("T").scan()) == want
    assert store.disk.free_pages == store.disk.num_pages - len(
        store._referenced_pages()
    )
    for n in range(ROUNDS, ROUNDS + 8):
        one_round(store, n)
        assert bound.check(store) <= peak
    want = sorted(store.table("T").scan())

    # Crash / recover: same bound, same answers, a clean scrub.
    abandon(store)
    store = open_store(path)
    assert store.recovery_summary["clean"] is False
    assert sorted(store.table("T").scan()) == want
    for n in range(ROUNDS + 8, ROUNDS + 16):
        one_round(store, n)
        assert bound.check(store) <= peak
    assert store.scrub()["clean"]
    stats = store.storage_stats()["disk"]
    assert stats["free_pages"] == store.scrub()["pages_free"]
    assert stats["live_pages"] == stats["allocated_pages"] - stats["free_pages"]
    assert stats["file_pages"] <= stats["allocated_pages"]
    store.close()


def test_checkpoint_truncates_a_free_tail(tmp_path):
    path = str(tmp_path / "db")
    store = open_store(path)
    store.create_table("T", SCHEMA)
    store.load("T", rows(0, KEYS, 0))
    store.checkpoint()
    grown = os.path.getsize(path)
    # The first rewrite lands past the old run (both are live until the
    # commit), the second in the hole the old run left: the tail is free.
    store.table("T").delete(Range("id", 100, KEYS))
    store.table("T").delete(Range("id", 90, 99))
    assert store.disk.num_pages * store.disk.frame_size > grown
    store.checkpoint()
    assert os.path.getsize(path) < grown
    assert store.disk.num_pages * store.disk.frame_size == os.path.getsize(path)
    assert sorted(store.table("T").scan()) == sorted(rows(0, 90, 0))
    store.close()


# -- secondary indexes give their nodes back ----------------------------------


def held_pages(store) -> set[int]:
    """Every page the store holds: its runs', their index nodes included."""
    runs = (run for entry in store.catalog for run in entry.runs())
    return {page for run in runs for page in run.page_ids()}


def test_index_rebuilds_do_not_leak_pages():
    """Declared indexes live and die with their runs. On a flat table and
    on a partitioned, levelled one whose indexed runs seal, merge and
    retire, the page file stops growing, no page a run holds is free, and
    the live pages are exactly the runs' and their trees' — before and
    after the indexes are dropped."""
    layouts = ("T", "partition[id; range, 200](levels[2; 2](rows(T)))")
    for layout in layouts:
        store = RodentStore(
            page_size=512, pool_capacity=64, level_seal_rows=32
        )
        store.create_table("T", SCHEMA, layout=layout)
        store.load("T", rows(0, 400, 0))
        table = store.table("T")
        retired, allocated = set(), []
        for n in range(40):
            table.create_index("id")
            table.create_spatial_index("val", "w")
            before = held_pages(store)
            # Tombstones, a seal of the new versions, now and then a merge.
            table.update({"val": n}, Range("id", 0, 9))
            if n % 3 == 2:
                table.flush_inserts()
            table.create_index("id")  # declared already: builds nothing
            retired |= before - held_pages(store)
            allocated.append(store.storage_stats()["disk"]["allocated_pages"])
            held = held_pages(store)
            assert not held & store.disk.free_page_ids(), (layout, n)
            assert store.storage_stats()["disk"]["live_pages"] == len(held)
        assert retired, layout  # indexed runs merged away
        assert max(allocated[20:]) <= max(allocated[:20]), (layout, allocated)
        table.drop_index("id")
        assert not held_pages(store) & store.disk.free_page_ids()
        assert store.storage_stats()["disk"]["live_pages"] == len(
            held_pages(store)
        )
        assert all(
            list(run.indexes) == [("val", "w")]
            for run in store.catalog.entry("T").runs()
        )
        store.close()
