"""Tests for repro.index.btree (model-based + hypothesis)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.index.btree import BPlusTree
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.types import STRING


def make_tree(order=None, key_type=None, page_size=1024, capacity=256):
    disk = DiskManager(page_size=page_size)
    pool = BufferPool(disk, capacity=capacity)
    kwargs = {"order": order}
    if key_type is not None:
        kwargs["key_type"] = key_type
    return BPlusTree(pool, **kwargs), disk


class TestBasics:
    def test_empty_tree(self):
        tree, _ = make_tree()
        assert len(tree) == 0
        assert tree.search(5) == []
        assert list(tree.items()) == []
        assert list(tree.range(0, 100)) == []

    def test_insert_and_search(self):
        tree, _ = make_tree(order=4)
        for k in [5, 3, 8, 1, 9]:
            tree.insert(k, k * 10)
        assert tree.search(8) == [80]
        assert tree.search(42) == []

    def test_duplicates(self):
        tree, _ = make_tree(order=4)
        for v in range(5):
            tree.insert(7, v)
        assert sorted(tree.search(7)) == [0, 1, 2, 3, 4]

    def test_duplicates_across_leaf_boundary(self):
        tree, _ = make_tree(order=4)
        for v in range(20):
            tree.insert(7, v)
        tree.insert(6, -1)
        tree.insert(8, -2)
        assert sorted(tree.search(7)) == list(range(20))

    def test_items_sorted(self):
        tree, _ = make_tree(order=4)
        keys = random.Random(3).sample(range(1000), 200)
        for k in keys:
            tree.insert(k, k)
        assert [k for k, _ in tree.items()] == sorted(keys)

    def test_range_inclusive(self):
        tree, _ = make_tree(order=4)
        for k in range(100):
            tree.insert(k, k)
        got = [k for k, _ in tree.range(10, 20)]
        assert got == list(range(10, 21))

    def test_range_outside_keys(self):
        tree, _ = make_tree(order=4)
        tree.insert(5, 5)
        assert list(tree.range(10, 20)) == []
        assert [k for k, _ in tree.range(-5, 100)] == [5]

    def test_height_grows(self):
        tree, _ = make_tree(order=4)
        for k in range(200):
            tree.insert(k, k)
        assert tree.height >= 3

    def test_string_keys(self):
        tree, _ = make_tree(order=4, key_type=STRING)
        words = ["pear", "apple", "fig", "mango", "kiwi"]
        for w in words:
            tree.insert(w, len(w))
        assert [k for k, _ in tree.items()] == sorted(words)
        assert tree.search("fig") == [3]

    def test_min_order_enforced(self):
        with pytest.raises(IndexError_):
            make_tree(order=2)


class TestDelete:
    def test_delete_key(self):
        tree, _ = make_tree(order=4)
        for k in range(50):
            tree.insert(k, k)
        assert tree.delete(25) == 1
        assert tree.search(25) == []
        assert len(tree) == 49

    def test_delete_specific_value(self):
        tree, _ = make_tree(order=4)
        tree.insert(7, 1)
        tree.insert(7, 2)
        assert tree.delete(7, value=1) == 1
        assert tree.search(7) == [2]

    def test_delete_missing(self):
        tree, _ = make_tree(order=4)
        tree.insert(1, 1)
        assert tree.delete(99) == 0

    def test_delete_duplicates_across_leaves(self):
        tree, _ = make_tree(order=4)
        for v in range(30):
            tree.insert(5, v)
        assert tree.delete(5) == 30
        assert tree.search(5) == []


class TestBulkLoad:
    def test_bulk_load_matches_inserts(self):
        pairs = [(k * 3 % 101, k) for k in range(150)]
        bulk, _ = make_tree(order=8)
        bulk.bulk_load(pairs)
        incremental, _ = make_tree(order=8)
        for k, v in pairs:
            incremental.insert(k, v)
        assert sorted(bulk.items()) == sorted(incremental.items())

    def test_bulk_load_empty(self):
        tree, _ = make_tree(order=4)
        tree.bulk_load([])
        assert list(tree.items()) == []

    def test_bulk_load_searchable(self):
        tree, _ = make_tree(order=8)
        tree.bulk_load([(k, k * 2) for k in range(500)])
        assert tree.search(123) == [246]
        assert [k for k, _ in tree.range(10, 15)] == [10, 11, 12, 13, 14, 15]


class TestPageBacked:
    def test_probes_read_pages(self):
        tree, disk = make_tree(order=8)
        tree.bulk_load([(k, k) for k in range(2000)])
        tree.pool.clear()
        disk.stats.reset()
        tree.search(999)
        # One page per level (plus at most one next-leaf peek when the key
        # sits at a leaf boundary), through the pool -> disk reads counted.
        assert tree.height <= disk.stats.page_reads <= tree.height + 1

    def test_survives_pool_eviction(self):
        # Tiny pool forces every node access through disk.
        disk = DiskManager(page_size=1024)
        pool = BufferPool(disk, capacity=3)
        tree = BPlusTree(pool, order=8)
        for k in range(300):
            tree.insert(k, k)
        assert [k for k, _ in tree.items()] == list(range(300))


class TestModelBased:
    @given(
        st.lists(
            st.tuples(st.integers(0, 200), st.integers(0, 10**6)),
            max_size=150,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_against_sorted_model(self, pairs):
        tree, _ = make_tree(order=5)
        for k, v in pairs:
            tree.insert(k, v)
        assert sorted(tree.items()) == sorted(pairs)
        model = sorted(pairs)
        for probe in (0, 50, 100, 200):
            assert sorted(tree.search(probe)) == sorted(
                v for k, v in model if k == probe
            )

    @given(
        st.lists(st.integers(0, 100), min_size=1, max_size=120),
        st.integers(0, 100),
        st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_range_against_model(self, keys, lo, hi):
        tree, _ = make_tree(order=5)
        for k in keys:
            tree.insert(k, k)
        lo, hi = min(lo, hi), max(lo, hi)
        got = sorted(k for k, _ in tree.range(lo, hi))
        want = sorted(k for k in keys if lo <= k <= hi)
        assert got == want

    @given(
        st.lists(st.integers(0, 60), min_size=1, max_size=80),
        st.lists(st.integers(0, 60), max_size=20),
    )
    @settings(max_examples=30, deadline=None)
    def test_insert_delete_model(self, inserts, deletes):
        tree, _ = make_tree(order=5)
        model: list[tuple[int, int]] = []
        for k in inserts:
            tree.insert(k, k)
            model.append((k, k))
        for k in deletes:
            removed = tree.delete(k)
            expected = len([1 for mk, _ in model if mk == k])
            assert removed == expected
            model = [(mk, mv) for mk, mv in model if mk != k]
        assert sorted(tree.items()) == sorted(model)


def test_node_payloads_are_pinned():
    """``_write_node`` packs a node's slots in one call; the bytes are what
    the per-value loop wrote (leaf, leaf with a 2**40 value, internal)."""
    from repro.storage.page import BytePage

    pool = BufferPool(DiskManager(page_size=256), capacity=8)
    tree = BPlusTree(pool, order=4)
    for key, value in [(5, 50), (1, -10), (9, 2**40), (7, 70), (3, 30)]:
        tree.insert(key, value)
    payloads = [
        BytePage(256, pool.disk.read_page(p)).read().hex()
        for p in range(pool.disk.num_pages)
    ]
    assert payloads == [
        "0102000100000000000000140000000200000001000000000000000300000000"
        "000000f6ffffffffffffff1e00000000000000",
        "010300ffffffffffffffff1c0000000300000005000000000000000700000000"
        "0000000900000000000000320000000000000046000000000000000000000000"
        "010000",
        "000100ffffffffffffffff0c0000000100000005000000000000000000000000"
        "0000000100000000000000",
    ]
    assert tree.page_ids() == [0, 1, 2]
