"""Column runs read a window at a time.

A column group's unit in the store's decoded cache is a *window* — rows
``[kW, (k+1)W)`` of the group, one vector per field
(``repro.layout.renderer.WINDOW_ROWS``) — or a chunk a pruned scan decoded,
and a full column scan yields window k of every scanned group as batch k.
Every test shrinks ``W`` to 64 rows and uses 256-byte pages, so chunks
(~28 values, or ~10 mini-records) straddle window boundaries. The
properties:

* scans answer what the model (``tests/oracle.py``) does around every
  window edge — W−1, W, W+1 and 2W+3 rows — over single-field,
  multi-field, compressed and delta groups, unpruned, zone-pruned, with a
  limit and with an order;
* a warm full scan yields one batch per window whose vectors *are* the
  cached windows, and fetches no page and decodes nothing;
* a cold zone-pruned scan fetches exactly the pages of the chunks pruning
  leaves, and a cold full scan every page once;
* the cache stays within its byte budget, and no chunk entry lives on
  beside a window that covers it;
* chunk counts in the catalog that disagree with the layout raise.
"""

from __future__ import annotations

import json
import math

import pytest

from oracle import Model, check_table
from repro import vector
from repro.compression import codec_names, get_codec
from repro.engine import synopsis as zonemaps
from repro.engine.database import RodentStore
from repro.engine.persistence import CATALOG_CRC_KEY, _catalog_crc
from repro.errors import StorageError
from repro.layout import cache as decoded_cache
from repro.layout import renderer
from repro.query.expressions import Range
from repro.types.schema import Schema

W = 64
PAGE_SIZE = 256
SCHEMA = Schema.of("a:int", "b:float", "c:int")
LAYOUTS = {
    "single": "columns(T)",
    "multi": "columns[[a, b], [c]](T)",
    "compressed": "compress[varint; a](columns(T))",
    "delta": "columns(delta[a](T))",
}
ROW_COUNTS = [W - 1, W, W + 1, 2 * W + 3]


@pytest.fixture(autouse=True)
def small_windows(monkeypatch):
    monkeypatch.setattr(renderer, "WINDOW_ROWS", W)


@pytest.fixture(params=[True, False], ids=["numpy", "stdlib"])
def numpy_leg(request):
    previous = vector.set_numpy_enabled(request.param)
    yield request.param
    vector.set_numpy_enabled(previous)


def make_rows(n):
    return [(i, (i * 37 % 101) / 8, i * 13 % 17) for i in range(n)]


def loaded(layout, n, **kw):
    store = RodentStore(page_size=PAGE_SIZE, pool_capacity=64, **kw)
    store.create_table("T", SCHEMA, layout=layout)
    rows = make_rows(n)
    return store, store.load("T", rows), Model(SCHEMA.names(), rows, layout)


def spy(monkeypatch, store):
    """Page ids the pool is asked for, and one entry per codec
    ``decode`` call, from now on."""
    fetched, decodes = [], []
    fetch = store.pool.fetch

    def counted_fetch(page_id, *args, **kwargs):
        fetched.append(page_id)
        return fetch(page_id, *args, **kwargs)

    monkeypatch.setattr(store.pool, "fetch", counted_fetch)
    # Patched on the codec classes (the registry shares its instances).
    classes = {type(get_codec(name)) for name in codec_names()}
    originals = {cls: cls.decode for cls in classes}
    for cls, original in originals.items():

        def counted(*args, _decode=original, **kwargs):
            decodes.append(1)
            return _decode(*args, **kwargs)

        monkeypatch.setattr(cls, "decode", counted)
    return fetched, decodes


def window_key(layout, start):
    return (start, min(start + W, layout.row_count))


def is_window(layout, key):
    return key[0] % W == 0 and key == window_key(layout, key[0])


def group_units(store, layout, gi):
    """``(start, end)`` of each unit group ``gi`` holds in the decoded cache."""
    return [u[1:] for u in store.renderer.cache.units(layout) if u[0] == gi]


# ---------------------------------------------------------------------------
# equivalence with the model
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("design", sorted(LAYOUTS))
def test_scans_match_the_model(numpy_leg, design, n):
    store, table, model = loaded(LAYOUTS[design], n)
    narrow = Range("a", n // 3, n // 3 + W // 2)
    cases = [
        dict(),
        dict(predicate=narrow),
        dict(fieldlist=["c", "a"], predicate=narrow),
        dict(fieldlist=["b"], predicate=Range("c", 3, 5)),
        dict(limit=W + 2),
        dict(predicate=narrow, limit=5),
        dict(order=[("c", False), "a"]),
        dict(order=["b", "a"], limit=7),
    ]
    for _ in range(2):  # cold, then from the cached windows and chunks
        for case in cases:
            check_table(table, model, **case, context=design)
        store.renderer.cache.clear()
        for case in reversed(cases):  # pruned reads before full ones
            check_table(table, model, **case, context=design)
    if design != "delta":  # a delta field turns pruning off
        assert table.pruned_pages(narrow) > 0


def test_mini_record_group_without_zone_table_counts_page_headers(numpy_leg):
    """A layout whose catalog carries no zone table (an old catalog, or one
    detached as not parallel) still knows its mini-record chunks' rows."""
    _, table, model = loaded(LAYOUTS["multi"], 2 * W + 3)
    table.layout.synopsis = None
    check_table(table, model)
    check_table(table, model, predicate=Range("a", 10, 90))


# ---------------------------------------------------------------------------
# one batch per window; warm scans read and decode nothing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("design", ["single", "multi", "compressed"])
def test_warm_full_scan_yields_the_cached_windows(numpy_leg, monkeypatch, design):
    store, table, _ = loaded(LAYOUTS[design], 2 * W + 3)
    layout = table.layout
    groups = list(range(len(layout.column_groups)))
    list(store.renderer.iter_column_batches(layout, groups))
    fetched, decodes = spy(monkeypatch, store)
    batches = list(store.renderer.iter_column_batches(layout, groups))
    assert len(batches) == math.ceil(layout.row_count / W)
    for k, batch in enumerate(batches):
        cached = [
            column
            for gi in groups
            for column in store.renderer.cache.get(
                layout, (gi, *window_key(layout, k * W))
            )
        ]
        columns = batch.columns()
        assert len(columns) == len(cached)
        assert all(got is want for got, want in zip(columns, cached))
    rows = [row for batch in store.table("T").scan_batches() for row in batch]
    assert rows == make_rows(2 * W + 3)
    assert fetched == [] and decodes == []


# ---------------------------------------------------------------------------
# cold reads: which pages
# ---------------------------------------------------------------------------


def group_chunk_pages(layout, gi):
    """``(start, end, page id)`` per non-empty chunk of group ``gi``."""
    store = layout.column_groups[gi]
    counts = zonemaps.group_chunk_rows(layout, gi)
    if len(store.fields) == 1:
        pages = [store.extent.page_ids[p] for p, _ in store.chunks]
    else:
        pages = store.extent.page_ids
    out, start = [], 0
    for rows, page in zip(counts, pages):
        if rows:
            out.append((start, start + rows, page))
        start += rows
    return out


@pytest.mark.parametrize("design", ["single", "multi", "compressed"])
def test_cold_pruned_scan_fetches_the_surviving_chunks(numpy_leg, monkeypatch, design):
    store, table, model = loaded(LAYOUTS[design], 2 * W + 3)
    layout = table.layout
    predicate = Range("a", 40, 100)
    groups = list(range(len(layout.column_groups)))
    keep = zonemaps.column_keep_intervals(
        layout, groups, zonemaps.predicate_intervals(predicate)
    )
    assert keep is not None
    # Row order across the groups: by the first row a chunk is wanted for,
    # the group order breaking ties.
    expected = sorted(
        (min(max(lo, start) for lo, hi in keep if lo < end and start < hi), gi, page)
        for gi in groups
        for start, end, page in group_chunk_pages(layout, gi)
        if any(lo < end and start < hi for lo, hi in keep)
    )
    assert len(expected) < layout.total_pages()
    store.renderer.cache.clear()
    fetched, _ = spy(monkeypatch, store)
    check_table(table, model, predicate=predicate)
    assert fetched == [page for _, _, page in expected]


@pytest.mark.parametrize("design", sorted(LAYOUTS))
def test_cold_full_scan_fetches_every_page_once(numpy_leg, monkeypatch, design):
    """... in row order across the groups, as a positional merge reaches
    them (a chunk straddling two windows is not fetched again)."""
    store, table, model = loaded(LAYOUTS[design], 2 * W + 3)
    check_table(table, model)
    layout = table.layout
    store.renderer.cache.clear()
    fetched, _ = spy(monkeypatch, store)
    check_table(table, model)
    assert sorted(fetched) == sorted(layout.page_ids())
    groups = range(len(layout.column_groups))
    assert fetched == [
        page
        for _, _, page in sorted(
            (start, gi, page)
            for gi in groups
            for start, _, page in group_chunk_pages(layout, gi)
        )
    ]


def test_clear_caches_makes_run_cold_pay_every_page(numpy_leg):
    """A column run and a grid run: once read, the decoded cache holds
    them, and ``run_cold`` still pays every page of each."""
    for design in (LAYOUTS["multi"], "grid[a, c],[40, 6](T)"):
        store, table, model = loaded(design, 2 * W + 3)
        check_table(table, model)
        units = store.renderer.cache.units(table.layout)
        if table.layout.column_groups:
            groups = range(len(table.layout.column_groups))
            assert {unit[0] for unit in units} == set(groups)
        else:
            assert len(units) == len(table.layout.cell_directory) > 1
        for _ in range(2):
            _, io = store.run_cold(lambda: check_table(table, model))
            assert io.page_reads == table.layout.total_pages(), design


# ---------------------------------------------------------------------------
# the cache budget, and no row cached twice
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("design", ["single", "multi"])
def test_cache_stays_within_its_row_bound(numpy_leg, monkeypatch, design):
    """The bound is the store's decoded budget, in bytes: reads of many
    runs (every region of a partitioned table) keep the bytes held within
    it, while windows still take over their chunks."""
    budget = 4 * W * 8 + 2 * decoded_cache.ENTRY_OVERHEAD
    monkeypatch.setattr(decoded_cache, "DECODED_CACHE_BYTES", budget)
    store, table, model = loaded(LAYOUTS[design], 5 * W + 3)
    cache = store.renderer.cache
    assert cache.budget == budget
    layout = table.layout
    for predicate in (Range("a", 100, 160), None, Range("a", 200, 260), None):
        check_table(table, model, predicate=predicate)
        assert cache.held <= budget
    for gi in range(len(layout.column_groups)):
        held = group_units(store, layout, gi)
        windows = [key for key in held if is_window(layout, key)]
        for start, end in held:
            assert not any(
                lo <= start and end <= hi and (start, end) != (lo, hi)
                for lo, hi in windows
            ), (start, end, windows)
    assert any(
        is_window(layout, key)
        for gi in range(len(layout.column_groups))
        for key in group_units(store, layout, gi)
    )
    design = "partition[r.c; hash, 4](" + LAYOUTS[design] + ")"
    store.create_table("P", SCHEMA, layout=design.replace("(T)", "(P)"))
    parts = store.load("P", make_rows(5 * W + 3))
    assert len(store.catalog.entry("P").regions) == 4
    for predicate in (None, Range("a", 0, 90), None):
        list(parts.scan(predicate=predicate))
        check_table(table, model, predicate=predicate)
        assert 0 < cache.held <= budget
    stats = store.storage_stats()["decoded_cache"]
    assert stats["evictions"] > 0 and stats["held_bytes"] == cache.held
    assert stats["budget_bytes"] == budget


def test_full_scan_takes_over_the_chunks_a_pruned_scan_cached(numpy_leg):
    store, table, model = loaded(LAYOUTS["single"], 2 * W + 3)
    check_table(table, model, predicate=Range("a", 10, 100))
    held = group_units(store, table.layout, 0)
    assert held and not any(is_window(table.layout, key) for key in held)
    check_table(table, model)
    assert sorted(group_units(store, table.layout, 0)) == [
        window_key(table.layout, start) for start in range(0, 2 * W + 3, W)
    ]


# ---------------------------------------------------------------------------
# chunk counts the layout disagrees with
# ---------------------------------------------------------------------------


def _tamper(chunks):
    return {
        "extra": lambda: chunks.append(list(chunks[-1])),
        "missing": lambda: chunks.pop(),
        "shifted": lambda: (
            chunks[0].__setitem__(1, chunks[0][1] + 1),
            chunks[1].__setitem__(1, chunks[1][1] - 1),
        ),
    }


@pytest.mark.parametrize("how", ["extra", "missing", "shifted"])
def test_group_chunks_disagreeing_with_the_layout_raise(tmp_path, how):
    """The second group of a reopened ``columns(T)`` table declares one
    chunk too many, one too few, or a row moved between two chunks: the
    scan raises instead of returning ``row_count`` rows."""
    db, cat = tmp_path / "db.pages", tmp_path / "catalog.json"
    store = RodentStore(path=str(db), page_size=PAGE_SIZE, pool_capacity=64)
    store.create_table("T", SCHEMA, layout="columns(T)")
    store.load("T", make_rows(2 * W + 3))
    store.save_catalog(str(cat))
    store.close()

    payload = json.loads(cat.read_text())
    del payload[CATALOG_CRC_KEY]
    _tamper(payload["tables"][0]["runs"][0]["column_groups"][1]["chunks"])[how]()
    payload[CATALOG_CRC_KEY] = _catalog_crc(payload)  # a writer bug, not rot
    cat.write_text(json.dumps(payload))

    reopened = RodentStore.open(str(db), str(cat), page_size=PAGE_SIZE)
    try:
        with pytest.raises(StorageError):
            list(reopened.table("T").scan())
    finally:
        reopened.close()
