"""The store's one decoded cache (``repro.layout.cache.DecodedCache``).

* a second identical grid or folded read decodes nothing and fetches no
  page, and answers as the first;
* column chunks and windows, grid cells and folded records are admitted;
  rows pages and array pages are not (the pool holds their pages);
* the bytes held stay within the budget over reads of many runs;
* a merge, a relayout and a ``drop_table`` leave no entry of a retired
  layout, and ``run_cold`` empties the cache;
* ``storage_stats()["decoded_cache"]`` reports it;
* concurrent scans share it and answer as a serial scan does, and
  concurrent puts, gets, pops and frees keep its byte count exact.
"""

import sys
import threading
from contextlib import contextmanager

import pytest

from oracle import Model, check_table
from repro.compression.base import Codec
from repro.compression.varint import VarintCodec
from repro.engine.database import RodentStore
from repro.layout import cache as decoded_cache
from repro.obs import Registry
from repro.query.expressions import Range, Rect
from repro.types import Schema

SCHEMA = Schema.of("t:int", "x:int", "y:int", "g:int")
RECORDS = [(i, (i * 7) % 53 - 26, (i * i) % 41, i // 150) for i in range(600)]
GRID = "compress[varint; x, y](delta[x, y](zorder(grid[x, y],[10, 10](T))))"
FOLDED = "compress[varint; t, x](fold[t, x, y; g](T))"
READS = {
    GRID: dict(fieldlist=["x", "y"], predicate=Rect({"x": (-20, 5), "y": (0, 30)})),
    FOLDED: dict(predicate=Range("g", 1, 2)),
}


def loaded(design, records=RECORDS, **kw):
    store = RodentStore(page_size=1024, pool_capacity=64, **kw)
    store.create_table("T", SCHEMA, layout=design)
    return store, store.load("T", records), Model(SCHEMA.names(), records, design)


@contextmanager
def reads_of(store):
    """``(pages fetched, decode_buffer calls)`` made inside."""
    fetched, calls = [], []
    fetch = store.pool.fetch
    originals = {cls: cls.__dict__["decode_buffer"] for cls in (Codec, VarintCodec)}

    def counted_fetch(page_id, *args, **kwargs):
        fetched.append(page_id)
        return fetch(page_id, *args, **kwargs)

    store.pool.fetch = counted_fetch
    for cls, original in originals.items():

        def spy(self, *args, _original=original, **kwargs):
            calls.append(1)
            return _original(self, *args, **kwargs)

        setattr(cls, "decode_buffer", spy)
    try:
        yield fetched, calls
    finally:
        del store.pool.fetch
        for cls, original in originals.items():
            setattr(cls, "decode_buffer", original)


@pytest.mark.parametrize("design", [GRID, FOLDED], ids=["grid", "folded"])
def test_a_second_identical_read_decodes_and_fetches_nothing(design):
    store, table, model = loaded(design)
    read = READS[design]
    with reads_of(store) as (fetched, calls):
        first = list(table.scan(**read))
    assert fetched and calls
    hits = store.obs["decoded_cache.hits"]
    with reads_of(store) as (fetched, calls):
        second = list(table.scan(**read))
    assert fetched == [] and calls == []
    assert second == first and store.obs["decoded_cache.hits"] > hits
    check_table(table, model, **read)


@pytest.mark.parametrize("design, admitted", [
    ("columns[[t, g], [x], [y]](T)", True),
    (GRID, True),
    (FOLDED, True),
    ("T", False),
    ("orderby[t](T)", False),
    ("transpose(project[t, x](T))", False),
])
def test_which_units_are_admitted(design, admitted):
    store, table, model = loaded(design)
    check_table(table, model)
    assert bool(store.renderer.cache.units(table.layout)) == admitted
    if not admitted:
        assert store.storage_stats()["decoded_cache"]["entries"] == 0


def test_grid_cells_of_many_runs_stay_within_the_budget(monkeypatch):
    budget = 6 * decoded_cache.ENTRY_OVERHEAD
    monkeypatch.setattr(decoded_cache, "DECODED_CACHE_BYTES", budget)
    store, table, model = loaded("partition[r.g; hash, 4](" + GRID + ")")
    cache = store.renderer.cache
    for predicate in (None, Rect({"x": (-20, 5), "y": (0, 30)}), None):
        check_table(table, model, predicate=predicate)
        assert 0 < cache.held <= budget
    stats = store.storage_stats()["decoded_cache"]
    assert stats["evictions"] > 0
    layouts = runs_of(store, "T")
    assert len(layouts) == 4
    assert stats["entries"] == sum(len(cache.units(l)) for l in layouts) > 0


def runs_of(store, name):
    return [run.layout for run in store.catalog.entry(name).runs()]


def test_retired_layouts_leave_no_entry():
    """Merge, relayout and drop each free the runs they supersede; the
    entries go with the pages, and ``run_cold`` empties what is left."""
    store = RodentStore(page_size=1024, pool_capacity=64, level_seal_rows=64)
    cache = store.renderer.cache
    store.create_table("L", SCHEMA, layout="levels[2; 2](columns(L))")
    table = store.load("L", RECORDS[:100])
    read = []
    for k in range(8):
        table.insert(RECORDS[100 + 50 * k : 150 + 50 * k])
        list(table.scan())
        read += [layout for layout in runs_of(store, "L") if cache.units(layout)]
    store.compact_levels("L")
    live = {id(layout) for layout in runs_of(store, "L")}
    retired = [layout for layout in read if id(layout) not in live]
    assert retired, "no merge retired a run the scans had cached"
    assert not any(cache.units(layout) for layout in retired)

    store.create_table("T", SCHEMA, layout=GRID)
    grid = store.load("T", RECORDS)
    list(grid.scan(predicate=READS[GRID]["predicate"]))
    (old,) = runs_of(store, "T")
    assert cache.units(old)
    store.relayout("T", FOLDED)
    assert not cache.units(old)
    list(store.table("T").scan())
    (new,) = runs_of(store, "T")
    assert cache.units(new)
    store.drop_table("T")
    assert not cache.units(new)

    assert cache.held > 0
    store.run_cold(lambda: None)
    assert cache.stats()["entries"] == cache.held == 0


def test_storage_stats_report_the_decoded_cache():
    store, table, model = loaded(GRID)
    stats = store.storage_stats()
    assert {"buffer_pool", "disk", "wal", "integrity"} <= set(stats)
    cached = stats["decoded_cache"]
    assert set(cached) == {
        "budget_bytes", "held_bytes", "entries", "hits", "misses", "evictions"
    }
    assert cached["budget_bytes"] == decoded_cache.DECODED_CACHE_BYTES
    check_table(table, model)
    check_table(table, model)
    cached = store.storage_stats()["decoded_cache"]
    n_cells = sum(1 for e in table.layout.cell_directory if e.row_count)
    assert cached["entries"] == n_cells
    assert cached["misses"] == n_cells and cached["hits"] >= n_cells
    assert cached["held_bytes"] > n_cells * decoded_cache.ENTRY_OVERHEAD


def test_concurrent_scans_share_the_cache():
    design = "partition[r.g; hash, 4](" + GRID + ")"
    store, table, model = loaded(design, scan_workers=2)
    try:
        for _ in range(3):
            check_table(table, model)
            check_table(table, model, predicate=READS[GRID]["predicate"])
        assert store.obs["decoded_cache.hits"] > 0
    finally:
        store.shutdown_scan_executor()


class _Run:
    """A stand-in for a stored layout: the cache asks it only its pages."""

    def __init__(self, page):
        self.page = page

    def page_ids(self):
        return [self.page]


def test_concurrent_updates_keep_the_byte_count_exact(monkeypatch):
    """More threads than cores put, get, take and free units of shared
    runs with a short switch interval; afterwards the bytes held are the
    sum of the entries' charges, within the budget, and every entry's run
    is registered."""
    budget = 40 * decoded_cache.ENTRY_OVERHEAD
    monkeypatch.setattr(decoded_cache, "DECODED_CACHE_BYTES", budget)
    cache = decoded_cache.DecodedCache(Registry())
    runs = [_Run(page) for page in range(6)]
    errors = []

    def work(seed):
        try:
            for i in range(3000):
                run = runs[(seed + i) % len(runs)]
                unit = i % 13
                op = (seed * 7 + i) % 5
                if op < 2:
                    cache.put(run, unit, [seed, i], 8 * (i % 50))
                elif op == 2:
                    cache.get(run, unit)
                elif op == 3:
                    cache.pop(run, unit)
                else:
                    cache.forget_pages([run.page])
        except Exception as error:  # reported by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    charges = [charge for _, charge in cache._entries.values()]
    assert cache.held == sum(charges) <= budget
    assert sorted(cache._entries) == sorted(
        (owner, unit)
        for owner, (_, _, units) in cache._owners.items()
        for unit in units
    )
    assert cache.stats()["entries"] == len(charges)
