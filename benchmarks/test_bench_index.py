"""Ablation G: index access paths (B+Tree point/range, R-Tree window).

The paper ships B+Trees and geo-spatial indices without innovating on them;
this benchmark characterizes their page costs so the cost model's constants
stay honest.
"""

import random

import pytest

from repro.index import BPlusTree, MBR, RTree
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager

PAGE_SIZE = 4_096
N_KEYS = 50_000


@pytest.fixture(scope="module")
def btree():
    disk = DiskManager(page_size=PAGE_SIZE)
    pool = BufferPool(disk, capacity=512)
    tree = BPlusTree(pool)
    tree.bulk_load([(k, k) for k in range(N_KEYS)])
    return tree, disk


@pytest.fixture(scope="module")
def rtree():
    disk = DiskManager(page_size=PAGE_SIZE)
    pool = BufferPool(disk, capacity=512)
    tree = RTree(pool)
    rng = random.Random(5)
    boxes = []
    for i in range(20_000):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        boxes.append((MBR(x, y, x + rng.uniform(0, 5), y + rng.uniform(0, 5)), i))
    tree.bulk_load(boxes)
    return tree, disk


def test_bench_btree_point_lookup(btree, benchmark):
    tree, disk = btree
    rng = random.Random(1)

    def run():
        return tree.search(rng.randrange(N_KEYS))

    result = benchmark(run)
    assert len(result) == 1

    tree.pool.clear()
    disk.stats.reset()
    tree.search(N_KEYS // 2)
    print(f"\nB+Tree point lookup: {disk.stats.page_reads} pages "
          f"(height {tree.height})")
    assert disk.stats.page_reads <= tree.height + 1


def test_bench_btree_range_scan(btree, benchmark):
    tree, disk = btree

    def run():
        return sum(1 for _ in tree.range(10_000, 12_000))

    count = benchmark(run)
    assert count == 2_001


def test_bench_btree_insert(benchmark):
    disk = DiskManager(page_size=PAGE_SIZE)
    pool = BufferPool(disk, capacity=512)
    tree = BPlusTree(pool)
    counter = iter(range(10**9))

    def run():
        k = next(counter)
        tree.insert(k, k)

    benchmark(run)


def test_bench_rtree_window_query(rtree, benchmark):
    tree, disk = rtree
    rng = random.Random(2)

    def run():
        x, y = rng.uniform(0, 950), rng.uniform(0, 950)
        return len(tree.search(MBR(x, y, x + 50, y + 50)))

    benchmark(run)

    tree.pool.clear()
    disk.stats.reset()
    hits = tree.search(MBR(500, 500, 550, 550))
    print(f"\nR-Tree 5%-window: {disk.stats.page_reads} pages, "
          f"{len(hits)} hits (height {tree.height})")
    assert disk.stats.page_reads < 0.2 * disk.num_pages


def test_bench_rtree_insert(benchmark):
    disk = DiskManager(page_size=PAGE_SIZE)
    pool = BufferPool(disk, capacity=512)
    tree = RTree(pool)
    rng = random.Random(3)
    inserted = []

    def run():
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        tree.insert(MBR(x, y, x + 1, y + 1), len(inserted))
        inserted.append(x)

    # A fixed number of inserts: calibrated rounds would grow the tree
    # without bound.
    benchmark.pedantic(run, rounds=2_000, iterations=1)
    hits = tree.search(MBR(-1, -1, 1_002, 1_002))
    assert len(inserted) == (1 if benchmark.disabled else 2_000)
    assert sorted(payload for _, payload in hits) == list(range(len(inserted)))


def test_bench_secondary_index_scan(benchmark):
    """Secondary-index scan vs full scan on a selective range predicate.

    The engine-integrated path: a B+Tree over `lat` of a rows layout; the
    scan probes the index, groups matching row positions by page, and reads
    only those pages.
    """
    from repro.engine.database import RodentStore
    from repro.query.expressions import Range
    from repro.workloads import TRACE_SCHEMA, generate_traces

    records = generate_traces(20_000, n_vehicles=10)
    store = RodentStore(page_size=PAGE_SIZE, pool_capacity=256)
    store.create_table("Traces", TRACE_SCHEMA)
    table = store.load("Traces", records)
    lat_lo = 42_310_000
    q = Range("lat", lat_lo, lat_lo + 3_000)

    _, io_full = store.run_cold(lambda: list(table.scan(predicate=q)))
    table.create_index("lat")
    result, io_index = store.run_cold(lambda: list(table.scan(predicate=q)))
    print(
        f"\nsecondary index scan: {io_index.page_reads} pages vs "
        f"{io_full.page_reads} full-scan pages ({len(result)} rows)"
    )
    assert sorted(result) == sorted(
        r for r in records if lat_lo <= r[1] <= lat_lo + 3_000
    )
    assert io_index.page_reads < io_full.page_reads

    def run():
        store.pool.clear()
        store.disk.reset_head()
        return len(list(table.scan(predicate=q)))

    benchmark(run)
