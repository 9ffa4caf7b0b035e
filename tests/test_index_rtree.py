"""Tests for repro.index.rtree (brute-force comparison + hypothesis).

A tree is built once from its entries by STR packing; small pages give
multi-level trees (a 256-byte page holds 5 entries a node).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.index.rtree import MBR, RTree
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


def make_rtree(entries=(), page_size=256, capacity=512):
    disk = DiskManager(page_size=page_size)
    pool = BufferPool(disk, capacity=capacity)
    return RTree(pool, entries), disk


def random_boxes(n, seed=0, span=100.0, max_side=5.0):
    rng = random.Random(seed)
    boxes = []
    for i in range(n):
        x = rng.uniform(0, span)
        y = rng.uniform(0, span)
        boxes.append(
            (MBR(x, y, x + rng.uniform(0, max_side), y + rng.uniform(0, max_side)), i)
        )
    return boxes


def brute_force(boxes, query):
    return sorted(p for b, p in boxes if b.intersects(query))


def pages_read(tree, disk, query):
    """Disk reads of one search from a cold pool, and its payloads."""
    tree.pool.clear()
    disk.stats.reset()
    hits = sorted(p for _, p in tree.search(query))
    return disk.stats.page_reads, hits


class TestMBR:
    def test_validation(self):
        with pytest.raises(IndexError_):
            MBR(1, 0, 0, 1)

    def test_area_union(self):
        """A built tree picks no subtree by area, so ``MBR`` keeps only the
        union the build encloses nodes with."""
        a = MBR(0, 0, 2, 2)
        b = MBR(1, 1, 3, 3)
        assert a.union(b) == MBR(0, 0, 3, 3)
        assert not hasattr(a, "area") and not hasattr(a, "enlargement")

    def test_intersects(self):
        a = MBR(0, 0, 2, 2)
        assert a.intersects(MBR(1, 1, 3, 3))
        assert a.intersects(MBR(2, 2, 3, 3))  # touching counts
        assert not a.intersects(MBR(2.1, 0, 3, 1))

    def test_contains_point(self):
        a = MBR(0, 0, 2, 2)
        assert a.contains_point(1, 1)
        assert a.contains_point(0, 2)
        assert not a.contains_point(3, 1)

    def test_of_points(self):
        box = MBR.of_points([(1, 5), (3, 2), (2, 9)])
        assert box == MBR(1, 2, 3, 9)


class TestInsertSearch:
    """Searches of built trees against brute force."""

    def test_matches_brute_force(self):
        boxes = random_boxes(400, seed=1)
        rt, _ = make_rtree(boxes)
        for qseed in range(5):
            rng = random.Random(100 + qseed)
            x, y = rng.uniform(0, 80), rng.uniform(0, 80)
            query = MBR(x, y, x + 15, y + 15)
            got = sorted(p for _, p in rt.search(query))
            assert got == brute_force(boxes, query)

    def test_point_entries(self):
        rt, _ = make_rtree([(MBR(i, i, i, i), i) for i in range(100)])
        got = sorted(p for _, p in rt.search(MBR(10, 10, 20, 20)))
        assert got == list(range(10, 21))

    def test_empty_tree_search(self):
        rt, disk = make_rtree()
        assert rt.search(MBR(0, 0, 10, 10)) == []
        assert len(rt) == 0 and rt.height == 1 and disk.num_pages == 1

    def test_size_and_height(self):
        rt, disk = make_rtree(random_boxes(100, seed=2))
        assert len(rt) == 100
        assert rt.height == 3  # 20 leaves of 5, then 4 nodes, then the root
        assert disk.num_pages == len(rt.page_ids()) == 20 + 4 + 1

    @given(st.integers(0, 10_000), st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_insert_search_randomized(self, seed, n):
        """Zero, one and many entries, point and box queries."""
        boxes = random_boxes(n, seed=seed)
        rt, _ = make_rtree(boxes)
        rng = random.Random(seed)
        for _ in range(3):
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            side = rng.choice([0.0, 2.0, 35.0])
            query = MBR(x, y, x + side, y + side)
            got = sorted(p for _, p in rt.search(query))
            assert got == brute_force(boxes, query)


class TestBulkLoad:
    def test_str_matches_brute_force(self):
        boxes = random_boxes(500, seed=3)
        rt, _ = make_rtree(boxes, page_size=1024)
        query = MBR(40, 40, 55, 55)
        got = sorted(p for _, p in rt.search(query))
        assert got == brute_force(boxes, query)

    def test_str_empty(self):
        rt, _ = make_rtree([])
        assert len(rt) == 0

    def test_str_prunes_small_queries(self):
        """A point-sized query on an STR-packed tree must visit only a small
        fraction of the nodes — the directory actually prunes."""
        boxes = random_boxes(600, seed=4)
        bulk, disk = make_rtree(boxes)
        total_nodes = disk.num_pages
        touched, hits = pages_read(bulk, disk, MBR(50, 50, 51, 51))
        assert hits == brute_force(boxes, MBR(50, 50, 51, 51))
        assert touched < total_nodes * 0.15

    def test_node_pages_touched(self):
        """Disk reads of a search grow with its window, from one node per
        level up to every node."""
        rt, disk = make_rtree(random_boxes(300, seed=5))
        small, _ = pages_read(rt, disk, MBR(0, 0, 5, 5))
        large, hits = pages_read(rt, disk, MBR(0, 0, 110, 110))
        assert rt.height <= small <= large == disk.num_pages
        assert len(hits) == 300

    def test_nodes_are_packed_to_the_page(self):
        """A node holds as many 40-byte entries as its page, 101 at 4 KiB,
        and each is written once."""
        boxes = random_boxes(101 * 4, seed=8)
        rt, disk = make_rtree(boxes, page_size=4096)
        assert rt.height == 2
        assert disk.num_pages == len(rt.page_ids()) == 4 + 1
        assert disk.stats.page_writes == disk.num_pages


class TestOverlapBehaviour:
    def test_overlapping_mbrs_inflate_page_touches(self):
        """The paper's Figure 2 observation: heavily overlapping boxes force
        many node visits even for small queries."""
        # Non-overlapping tiling vs heavily overlapped boxes.
        tiles = []
        i = 0
        for x in range(10):
            for y in range(10):
                tiles.append((MBR(x * 10, y * 10, x * 10 + 9, y * 10 + 9), i))
                i += 1
        rng = random.Random(6)
        overlapped = []
        for i in range(100):
            x, y = rng.uniform(0, 40), rng.uniform(0, 40)
            overlapped.append((MBR(x, y, x + 60, y + 60), i))

        rt_tiles, _ = make_rtree(tiles)
        rt_over, _ = make_rtree(overlapped)

        query = MBR(42, 42, 52, 52)
        hits_tiles = len(rt_tiles.search(query))
        hits_over = len(rt_over.search(query))
        assert hits_over > hits_tiles * 3


class TestPersistence:
    def test_nodes_survive_pool_eviction(self):
        disk = DiskManager(page_size=256)
        boxes = random_boxes(120, seed=7)
        rt = RTree(BufferPool(disk, capacity=3), boxes)
        assert sorted(p for _, p in rt.search(MBR(0, 0, 110, 110))) == list(
            range(120)
        )
