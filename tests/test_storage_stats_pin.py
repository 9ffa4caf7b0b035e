"""Pin ``storage_stats()``: one fixed script on four stores, every key and
every counter compared to a golden.

The script runs on a flat, a partitioned, a levelled and a durable store
(the last one crashes and recovers). File sizes and timings are left out
(they move with the medium and the machine), and so are the decoded
cache's held bytes (a vector's bytes differ between the numpy and the
stdlib leg) and the ``decode`` section (its seconds).

Regenerate the golden after a deliberate change with
``PYTHONPATH=src python tests/test_storage_stats_pin.py``.
"""

import json
import os
import sys

import pytest

from repro.engine.database import RodentStore
from repro.query.expressions import Range
from repro.types import Schema

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "storage_stats_pin.json")

SCHEMA = Schema.of("id:int", "k:int", "v:float")
ROWS = [(i, (i * 37) % 101, i * 0.5) for i in range(1200)]

STORES = {
    "flat": "T",
    "partitioned": "partition[id; range, 256](T)",
    "levelled": "levels[2; 2](columns(T))",
    "durable": "grid[k, id],[25, 300](T)",
}

#: Keys whose values are sizes of a file or of memory, or timings.
UNPINNED = {"wal_bytes", "held_bytes", "elapsed_s", "decode"}


def _exercise(store: RodentStore, layout: str) -> None:
    store.create_table("T", SCHEMA, layout=layout)
    store.load("T", ROWS)
    table = store.table("T")
    list(table.scan())
    list(table.scan(predicate=Range("k", 10, 30)))
    table.insert([(2000 + i, i % 101, float(i)) for i in range(100)])
    table.update({"v": 1.0}, Range("id", 0, 50))
    table.delete(Range("id", 100, 150))
    table.flush_inserts()
    store.renderer.cache.clear()
    store.pool.clear()
    for _ in range(2):
        list(table.scan(["id", "k"], Range("id", 300, 700)))
    store.adapt("T")
    store.scrub()


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in UNPINNED}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def _run(name: str, directory: str) -> dict:
    layout = STORES[name]
    if name != "durable":
        store = RodentStore(page_size=1024, pool_capacity=32)
        _exercise(store, layout)
        return _strip(store.storage_stats())
    path = os.path.join(directory, "db.pages")
    store = RodentStore(path, page_size=1024, pool_capacity=32, durable=True)
    _exercise(store, layout)
    store.table("T").insert([(5000 + i, i, 2.0) for i in range(40)])
    before_crash = _strip(store.storage_stats())
    store.wal.close()  # a crash: no checkpoint, no clean close
    store.disk.close()
    reopened = RodentStore(path, page_size=1024, pool_capacity=32, durable=True)
    list(reopened.table("T").scan(predicate=Range("k", 0, 50)))
    after = _strip(reopened.storage_stats())
    reopened.close()
    return {"before_crash": before_crash, "after_recovery": after}


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(STORES))
def test_storage_stats_match_the_golden(name, tmp_path):
    got = json.loads(json.dumps(_run(name, str(tmp_path))))
    assert got == _golden()[name]


if __name__ == "__main__":  # regenerate the golden
    import tempfile

    out = {}
    for name in sorted(STORES):
        with tempfile.TemporaryDirectory() as directory:
            out[name] = _run(name, directory)
    with open(GOLDEN, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
