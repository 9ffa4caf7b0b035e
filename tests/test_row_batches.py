"""The rows-run reader: a batch of packed slotted pages per transposition.

``LayoutRenderer.iter_row_batches`` copies the record heaps of consecutive
packed pages into one buffer and turns it into columns with one
``RecordSerializer.decode_heap``; any other page closes the batch and is
decoded alone. The properties below pin down that

* its rows are exactly the concatenated per-page ``decode_page`` output,
  in order, for every page shape, skip set, start and batch size;
* the pool sees the same fetch sequence as a page-at-a-time reader (same
  disk reads and checksum verifications), and no frame stays pinned
  between batches;
* the sorted-range probe fetches no page past the first one holding a key
  above its upper bound, and index builds see the same positions;
* a corrupt page in the middle of a batch loses no row of the pages ahead
  of it under degraded reads.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import vector
from repro.engine.database import RodentStore
from repro.query.expressions import Range
from repro.storage.page import SlottedPage
from repro.storage.serializer import RecordSerializer
from repro.types.schema import Schema

PAGE_SIZE = 1024
NUMERIC = Schema.of("a:int", "x:float", "g:int")
#: Records of ``NUMERIC`` a packed 1 KiB page holds.
PER_PAGE = SlottedPage.packed_capacity(PAGE_SIZE, 1 + 3 * 8)


def numeric_rows(n, start=0):
    return [(i, (i * 37 % 101) / 8, i % 3) for i in range(start, start + n)]


def loaded(records, layout="rows(T)", schema=NUMERIC, **kw):
    kw.setdefault("page_size", PAGE_SIZE)
    kw.setdefault("pool_capacity", 64)
    store = RodentStore(**kw)
    store.create_table("T", schema, layout=layout)
    return store, store.load("T", records)


def per_page_rows(store, layout, skip=(), start=0):
    """The page-at-a-time reference: one ``decode_page`` per page."""
    serializer = RecordSerializer(layout.plan.schema)
    rows = []
    for index, page_id in enumerate(layout.extent.page_ids):
        if index < start or index in skip:
            continue
        frame = store.pool.fetch(page_id)
        try:
            columns = serializer.decode_page(frame.data, store.disk.page_size)
        finally:
            store.pool.unpin(page_id)
        rows.extend(zip(*map(vector.to_list, columns)))
    return rows


def batch_rows_of(store, layout, batch_rows, skip=None, start=0):
    batches = store.renderer.iter_row_batches(
        layout, skip=skip, start=start, batch_rows=batch_rows
    )
    return [row for batch in batches for row in batch.rows()]


@pytest.fixture(params=[True, False], ids=["numpy", "stdlib"])
def numpy_leg(request):
    previous = vector.set_numpy_enabled(request.param)
    yield request.param
    vector.set_numpy_enabled(previous)


def edit_page(store, layout, index, edit):
    """Apply ``edit(page, serializer)`` to one stored page in place."""
    page_id = layout.extent.page_ids[index]
    frame = store.pool.fetch(page_id)
    try:
        edit(SlottedPage(store.disk.page_size, frame.data),
             RecordSerializer(layout.plan.schema))
    finally:
        store.pool.unpin(page_id, dirty=True)


# ---------------------------------------------------------------------------
# equivalence with the page-at-a-time reader
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch_rows", [1, PER_PAGE, 5 * PER_PAGE, 1024])
def test_packed_pages_match_per_page_decode(numpy_leg, batch_rows):
    store, table = loaded(numeric_rows(20 * PER_PAGE + 7))
    layout = table.layout
    expected = per_page_rows(store, layout)
    assert expected == numeric_rows(20 * PER_PAGE + 7)
    assert batch_rows_of(store, layout, batch_rows) == expected
    batches = list(store.renderer.iter_row_batches(layout, batch_rows=batch_rows))
    pages_per_batch = math.ceil(batch_rows / PER_PAGE)
    assert len(batches) == math.ceil(len(layout.extent.page_ids) / pages_per_batch)
    if numpy_leg:
        assert all(vector.is_typed(c) for c in batches[0].columns())


def set_nulls(store, layout, records, positions):
    """Overwrite the records at ``positions`` in place with null-bearing
    ones: same record size, so their pages stay packed-shaped."""
    starts = layout.page_starts
    for position in sorted(positions):
        index = bisect_right(starts, position) - 1
        record = (None, records[position][1], None)

        def null_slot(page, serializer, slot=position - starts[index]):
            assert page.update(slot, serializer.encode(record)) == slot

        edit_page(store, layout, index, null_slot)
        records[position] = record


def test_nulls_in_the_middle_of_a_batch(numpy_leg):
    records = numeric_rows(6 * PER_PAGE)
    store, table = loaded(records)
    layout = table.layout
    set_nulls(store, layout, records, {2 * PER_PAGE + 3, 2 * PER_PAGE + 4})
    page = SlottedPage(PAGE_SIZE, store.pool.fetch(layout.extent.page_ids[2]).data)
    store.pool.unpin(layout.extent.page_ids[2])
    assert RecordSerializer(NUMERIC).packed_heap(page) is not None
    expected = per_page_rows(store, layout)
    assert expected == records
    for batch_rows in (1, 4 * PER_PAGE, 1024):
        assert batch_rows_of(store, layout, batch_rows) == expected


def test_variable_length_schema(numpy_leg):
    schema = Schema.of("a:int", "s:string", "b:bytes")
    records = [(i, "v" * (i % 13), bytes([i % 256]) * (i % 5)) for i in range(900)]
    store, table = loaded(records, schema=schema)
    expected = per_page_rows(store, table.layout)
    assert expected == records
    for batch_rows in (1, 1024):
        assert batch_rows_of(store, table.layout, batch_rows) == expected


def test_tombstoned_and_updated_slots(numpy_leg):
    store, table = loaded(numeric_rows(8 * PER_PAGE))
    layout = table.layout

    def tombstone(page, serializer):
        page.delete(0)
        page.delete(5)

    def update_in_place(page, serializer):
        assert page.update(3, serializer.encode((-1, -1.5, -1))) == 3

    edit_page(store, layout, 2, tombstone)
    edit_page(store, layout, 5, update_in_place)
    expected = per_page_rows(store, layout)
    assert len(expected) == 8 * PER_PAGE - 2
    assert (-1, -1.5, -1) in expected
    for batch_rows in (1, PER_PAGE, 3 * PER_PAGE, 1024):
        assert batch_rows_of(store, layout, batch_rows) == expected
    # The tombstoned page closes a batch and is read alone.
    sizes = [b.n_rows for b in store.renderer.iter_row_batches(layout)]
    assert sizes == [2 * PER_PAGE, PER_PAGE - 2, 5 * PER_PAGE]


@pytest.mark.parametrize(
    "skip, start", [({1, 3, 4}, 0), ({0, 9}, 2), (set(), 5), ({7}, 7)]
)
def test_skip_sets_and_start_offsets(numpy_leg, skip, start):
    store, table = loaded(numeric_rows(10 * PER_PAGE + 3))
    layout = table.layout
    expected = per_page_rows(store, layout, skip, start)
    for batch_rows in (1, 2 * PER_PAGE, 1024):
        assert batch_rows_of(store, layout, batch_rows, skip, start) == expected


@pytest.mark.parametrize("batch_rows", [1, PER_PAGE - 1, 3 * PER_PAGE, 1024])
def test_delta_rows_carry_across_batches(numpy_leg, batch_rows):
    records = numeric_rows(9 * PER_PAGE + 4)
    _, table = loaded(records, layout="delta[a](T)", batch_rows=batch_rows)
    assert list(table.scan()) == records
    assert list(table.scan(predicate=Range("a", 50, 400))) == records[50:401]


def _ordered_reference(store, table):
    """Every region's runs page at a time, then its pending rows."""
    rows = []
    for region in table._require_loaded():
        for run in region.runs:
            rows.extend(per_page_rows(store, run.layout))
        rows.extend(tuple(r) for r in region.pending)
    return rows


@pytest.mark.parametrize("batch_rows", [1, PER_PAGE, 1024])
def test_partitioned_with_overflow_and_pending(numpy_leg, batch_rows):
    store, table = loaded(
        numeric_rows(12 * PER_PAGE), layout="partition[r.g](T)",
        batch_rows=batch_rows,
    )
    table.insert(numeric_rows(3 * PER_PAGE, start=5000))
    table.flush_inserts()  # overflow runs: row pages too
    table.insert(numeric_rows(9, start=9000))  # pending rows
    assert any(len(region.runs) > 1 for region in table.partitions)
    expected = _ordered_reference(store, table)
    assert list(table.scan()) == expected
    predicate = Range("a", 100, 5100)
    assert list(table.scan(predicate=predicate)) == [
        r for r in expected if 100 <= r[0] <= 5100
    ]


@settings(max_examples=25, deadline=None)
@given(
    page_size=st.sampled_from([256, 512, 1024, 4096]),
    n=st.integers(0, 1500),
    batch_rows=st.integers(1, 1500),
    nulls=st.sets(st.integers(0, 1499), max_size=3),
)
def test_any_page_size_row_count_and_batch_size(page_size, n, batch_rows, nulls):
    records = numeric_rows(n)
    store, table = loaded(records, page_size=page_size)
    set_nulls(store, table.layout, records, {p for p in nulls if p < n})
    expected = per_page_rows(store, table.layout)
    assert expected == records
    assert batch_rows_of(store, table.layout, batch_rows) == expected


# ---------------------------------------------------------------------------
# structure: the same pages, fetched once each, nothing left pinned
# ---------------------------------------------------------------------------


class FetchSpy:
    """Records every ``pool.fetch`` page id, in order."""

    def __init__(self, pool):
        self.pool, self.fetched = pool, []
        self._fetch = pool.fetch
        pool.fetch = self

    def __call__(self, page_id):
        self.fetched.append(page_id)
        return self._fetch(page_id)

    def positions(self, layout):
        return [layout.extent.page_ids.index(p) for p in self.fetched]


def _io(store):
    return (
        store.pool.stats.hits + store.pool.stats.misses,
        store.disk.stats.page_reads,
        store.integrity.page_verifications,
    )


def test_same_fetches_reads_and_verifications_as_per_page(tmp_path):
    store, table = loaded(
        numeric_rows(30 * PER_PAGE), path=str(tmp_path / "db"), pool_capacity=8
    )
    layout, skip = table.layout, {2, 3, 11, 29}

    def cold(read):
        store.pool.clear()
        spy = FetchSpy(store.pool)
        before = _io(store)
        try:
            rows = read()
        finally:
            store.pool.fetch = spy._fetch
        return rows, spy.fetched, [b - a for a, b in zip(before, _io(store))]

    reference = cold(lambda: per_page_rows(store, layout, skip))
    batched = cold(lambda: batch_rows_of(store, layout, 1024, skip))
    assert batched == reference
    assert reference[2] == [26, 26, 26]  # every fetch a verified disk read


def test_no_frame_pinned_between_batches():
    store, table = loaded(numeric_rows(10 * PER_PAGE))
    edit_page(store, table.layout, 4, lambda page, _: page.delete(1))
    count = 0
    for batch in store.renderer.iter_row_batches(table.layout, batch_rows=300):
        assert store.pool.pinned_pages() == []
        count += batch.n_rows
    assert count == 10 * PER_PAGE - 1
    assert store.pool.pinned_pages() == []


def _parent_probe_fetches(keys_per_page, lo, hi):
    """Extent positions the sorted-range probe fetches, in order: none when
    ``[lo, hi]`` misses the run's keys (the run's bound decides that), else
    a binary search over first keys, then pages from the last one whose
    first key is below ``lo`` up to the first holding a key above ``hi``."""
    if hi < keys_per_page[0][0] or lo > keys_per_page[-1][-1]:
        return []
    fetched, left, right, start = [], 0, len(keys_per_page) - 1, 0
    while left <= right:
        mid = (left + right) // 2
        fetched.append(mid)
        if keys_per_page[mid][0] < lo:
            start, left = mid, mid + 1
        else:
            right = mid - 1
    for index in range(start, len(keys_per_page)):
        fetched.append(index)
        if keys_per_page[index][-1] > hi:
            break
    return fetched


@pytest.mark.parametrize(
    "lo, hi", [(0, 0), (5, 5), (17, 430), (880, 2000), (-9, -1), (899, 899)]
)
def test_sorted_probe_fetches_no_page_past_hi(lo, hi):
    records = numeric_rows(900)
    store, table = loaded(records, layout="orderby[a](T)")
    layout = table.layout
    starts = layout.page_starts
    keys_per_page = [
        [r[0] for r in records[a:b]] for a, b in zip(starts, starts[1:])
    ]
    spy = FetchSpy(store.pool)
    rows = list(table.scan(predicate=Range("a", lo, hi)))
    assert rows == [r for r in records if lo <= r[0] <= hi]
    assert spy.positions(layout) == _parent_probe_fetches(keys_per_page, lo, hi)


def test_index_build_positions(numpy_leg):
    records = [(i * 7919 % 1000, (i % 17) / 4, i % 5) for i in range(6 * PER_PAGE)]
    _, table = loaded(records)
    table.create_index("a")
    table.create_spatial_index("a", "g")
    (run,) = table._entry.runs()
    index, spatial = run.indexes[("a",)], run.indexes[("a", "g")]
    assert sorted(index.positions_in_range(100, 300)) == [
        i for i, r in enumerate(records) if 100 <= r[0] <= 300
    ]
    assert sorted(spatial.positions_in_box(0, 500, 1, 2)) == [
        i for i, r in enumerate(records) if r[0] <= 500 and 1 <= r[2] <= 2
    ]


# ---------------------------------------------------------------------------
# degraded reads: a corrupt page mid-batch keeps the rows ahead of it
# ---------------------------------------------------------------------------


def test_corrupt_page_mid_batch_keeps_rows_ahead(tmp_path):
    path = str(tmp_path / "db")
    records = numeric_rows(12 * PER_PAGE)
    store, table = loaded(records, path=path, durable=True, degraded_reads=True)
    store.checkpoint()  # no WAL image left to repair from
    store.pool.clear()
    corrupt = 6  # mid-run: all twelve pages would make one 1024-row batch
    page_id = table.layout.extent.page_ids[corrupt]
    with open(path, "r+b") as f:
        f.seek(page_id * store.disk.frame_size + 40)
        byte = f.read(1)
        f.seek(page_id * store.disk.frame_size + 40)
        f.write(bytes([byte[0] ^ 0x10]))
    assert list(table.scan()) == records[: corrupt * PER_PAGE]
    (event,) = store.catalog.entry("T").last_corruption_skipped
    assert event["page_id"] == page_id and event["unit"] == "run[0]"
    store.close()
