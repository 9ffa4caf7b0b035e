"""Tests for repro.obs: the store's one counter registry."""

import pytest

from repro.engine.database import RodentStore
from repro.engine.indexes import fetch_rows_by_position
from repro.obs import COUNTERS, Registry
from repro.types import Schema


class TestRegistry:
    def test_counters_start_at_zero(self):
        obs = Registry()
        assert all(obs[name] == 0 for name in COUNTERS)

    def test_unknown_counter_is_refused(self):
        with pytest.raises(KeyError):
            Registry().add("disk.page_red")

    def test_snapshot_keys_by_suffix(self):
        obs = Registry()
        obs.add("disk.page_reads", 10)
        obs.add("disk.page_writes", 5)
        obs.add("disk.read_seeks", 3)
        obs.add("disk.write_seeks")
        obs.add("wal.appends", 9)
        assert obs.snapshot("disk.") == {
            "page_reads": 10, "page_writes": 5,
            "read_seeks": 3, "write_seeks": 1,
        }
        assert sum(obs.snapshot("disk.").values()) == 19

    def test_snapshot_delta(self):
        obs = Registry()
        obs.add("disk.page_reads", 10)
        obs.add("disk.page_writes", 5)
        with obs.measure("disk.") as delta:
            obs.add("disk.page_reads", 7)
        assert delta["page_reads"] == 7
        assert delta["page_writes"] == 0
        assert obs["disk.page_reads"] == 17

    def test_measure_starts_at_zero_whatever_came_before(self):
        obs = Registry()
        obs.add("wal.fsyncs", 4)
        with obs.measure("wal.") as delta:
            pass
        assert delta == {"appends": 0, "fsyncs": 0}

    def test_measure_fills_in_when_the_block_raises(self):
        obs = Registry()
        with pytest.raises(RuntimeError):
            with obs.measure("wal.") as delta:
                obs.add("wal.appends")
                raise RuntimeError
        assert delta["appends"] == 1


def test_a_store_has_one_registry_its_components_share(tmp_path):
    store = RodentStore(str(tmp_path / "db.pages"), page_size=1024, durable=True)
    for component in (store.disk, store.pool, store.wal, store.renderer,
                      store.renderer.cache, store.integrity):
        assert component.obs is store.obs
    store.create_table("T", Schema.of("a:int"))
    store.load("T", [(i,) for i in range(100)])
    stats = store.storage_stats()
    assert stats["wal"]["appends"] == store.obs["wal.appends"] > 0
    assert stats["disk"]["page_writes"] == store.obs["disk.page_writes"] > 0
    store.close()


def test_decode_counts_values_of_units_the_cache_does_not_serve():
    """A second identical grid read is served from the decoded cache and
    counts no value; a rows scan counts rows x fields read, and a fetch
    by position the rows x fields of the page it decodes."""
    store = RodentStore(page_size=1024)
    schema = Schema.of("id:int", "k:int", "v:float")
    rows = [(i, (i * 37) % 101, i * 0.5) for i in range(1200)]
    store.create_table("G", schema, layout="grid[k, id],[25, 300](G)")
    store.load("G", rows)
    store.create_table("R", schema)
    store.load("R", rows)

    def decoded(kind, read):
        with store.obs.measure(f"decode.{kind}.") as delta:
            read()
        return delta["values"]

    grid = store.table("G")
    first = decoded("grid", lambda: list(grid.scan()))
    assert first == len(rows) * len(schema.fields)
    assert decoded("grid", lambda: list(grid.scan())) == 0
    flat = store.table("R")
    store.run_cold(lambda: None)
    assert decoded("rows", lambda: list(flat.scan())) == len(rows) * 3
    layout = flat.layout
    page_rows = layout.page_starts[1] - layout.page_starts[0]

    def probe():
        list(fetch_rows_by_position(store.renderer, layout, [0]))

    assert decoded("rows", probe) == page_rows * 3
    section = store.storage_stats()["decode"]
    assert set(section) == {"rows", "columns", "grid", "folded", "array"}
    assert section["grid"]["values"] == first
    assert section["rows"]["seconds"] > 0
