"""Tests for repro.index.btree (model-based + hypothesis).

A tree is built once from its entries; small pages give multi-level trees.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.index import btree
from repro.index.btree import BPlusTree
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.types import STRING


def make_tree(pairs=(), key_type=None, page_size=256, capacity=256):
    """A tree over ``pairs``: a 256-byte page holds 13 int entries a leaf."""
    disk = DiskManager(page_size=page_size)
    pool = BufferPool(disk, capacity=capacity)
    kwargs = {} if key_type is None else {"key_type": key_type}
    return BPlusTree(pool, pairs=pairs, **kwargs), disk


class TestBasics:
    def test_empty_tree(self):
        tree, disk = make_tree()
        assert len(tree) == 0
        assert tree.search(5) == []
        assert list(tree.items()) == []
        assert list(tree.range(0, 100)) == []
        assert tree.page_ids() == [tree.root_page] and disk.num_pages == 1

    def test_insert_and_search(self):
        tree, _ = make_tree([(k, k * 10) for k in [5, 3, 8, 1, 9]])
        assert tree.search(8) == [80]
        assert tree.search(42) == []

    def test_duplicates(self):
        tree, _ = make_tree([(7, v) for v in range(5)])
        assert sorted(tree.search(7)) == [0, 1, 2, 3, 4]

    def test_duplicates_across_leaf_boundary(self):
        tree, _ = make_tree([(7, v) for v in range(40)] + [(6, -1), (8, -2)])
        assert tree.height >= 2
        assert tree.search(7) == list(range(40))  # in storage order
        assert tree.search(6) == [-1] and tree.search(8) == [-2]

    def test_items_sorted(self):
        keys = random.Random(3).sample(range(1000), 200)
        tree, _ = make_tree([(k, k) for k in keys])
        assert [k for k, _ in tree.items()] == sorted(keys)

    def test_range_inclusive(self):
        tree, _ = make_tree([(k, k) for k in range(100)])
        got = [k for k, _ in tree.range(10, 20)]
        assert got == list(range(10, 21))

    def test_range_outside_keys(self):
        tree, _ = make_tree([(5, 5)])
        assert list(tree.range(10, 20)) == []
        assert [k for k, _ in tree.range(-5, 100)] == [5]

    def test_height_grows(self):
        tree, _ = make_tree([(k, k) for k in range(200)], page_size=128)
        assert tree.height >= 3
        assert [k for k, _ in tree.items()] == list(range(200))

    def test_string_keys(self):
        words = ["pear", "apple", "fig", "mango", "kiwi"]
        tree, _ = make_tree([(w, len(w)) for w in words], key_type=STRING)
        assert [k for k, _ in tree.items()] == sorted(words)
        assert tree.search("fig") == [3]

    def test_min_order_enforced(self):
        """An internal node must hold two children beside a separator: a
        key too long for that is refused before any page is written."""
        disk = DiskManager(page_size=256)
        pool = BufferPool(disk, capacity=8)
        with pytest.raises(IndexError_):
            BPlusTree(pool, STRING, [("a", 0), ("x" * 202, 1)])
        assert disk.num_pages == 0
        tree = BPlusTree(pool, STRING, [("a", 0), ("x" * 201, 1)])
        assert tree.search("x" * 201) == [1]


class TestBulkLoad:
    def test_bulk_load_empty(self):
        tree, _ = make_tree([])
        assert list(tree.items()) == []
        assert tree.height == 1

    def test_bulk_load_searchable(self):
        tree, _ = make_tree([(k, k * 2) for k in range(500)])
        assert tree.search(123) == [246]
        assert [k for k, _ in tree.range(10, 15)] == [10, 11, 12, 13, 14, 15]


def node_counts(tree):
    """Entries per node, level by level from the leaves up."""
    levels, level = [], [tree.root_page]
    while True:
        nodes = [tree._read_node(page) for page in level]
        levels.append([len(n.slots) for n in nodes])
        if nodes[0].is_leaf:
            return levels[::-1]
        level = [child for n in nodes for child in n.slots]


class TestPacking:
    def test_nodes_are_packed_to_the_page(self):
        """Every node but a level's last is full, and the tree holds no
        other page. A fixed-width int key fills 1 021 entries into a 16 KiB
        leaf; a 256-byte page takes 13 a leaf and 14 children an internal
        node."""
        disk = DiskManager(page_size=16_384)
        tree = BPlusTree(
            BufferPool(disk, capacity=16), pairs=[(k, k) for k in range(2047)]
        )
        assert node_counts(tree) == [[1021, 1021, 5], [3]]
        tree, disk = make_tree([(k, k) for k in range(13 * 14 * 2 + 5)])
        assert node_counts(tree) == [[13] * 28 + [5], [14, 14, 1], [3]]
        assert disk.num_pages == len(tree.page_ids()) == 29 + 3 + 1

    def test_string_nodes_fill_by_encoded_bytes(self):
        """A string key takes 4 + its UTF-8 bytes: 40-byte keys fill a
        1 KiB leaf with (1 008 − 19) // 52 = 19 entries."""
        keys = [f"{i:040d}" for i in range(100)]
        tree, _ = make_tree([(k, 0) for k in keys], STRING, page_size=1024)
        assert node_counts(tree)[0] == [19] * 5 + [5]


def greedy_bounds(widths, capacity, leaf):
    """The reference packing, one entry at a time: a node takes 19 bytes,
    then 8 per slot plus its key's width (an internal node's first child
    brings no key); the next entry that does not fit opens a node."""
    bounds, start, used = [], 0, 19
    for i, width in enumerate(widths):
        if i > start and used + 8 + width > capacity:
            bounds.append((start, i))
            start, used = i, 19
        used += 8 + (width if leaf or i > start else 0)
    bounds.append((start, len(widths)))
    return bounds


@given(st.integers(60, 600), st.lists(st.integers(0, 10**6), max_size=60),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_node_bounds_equal_the_greedy_loop(capacity, draws, leaf):
    widest = capacity - 19 - 16  # two children beside one key
    widths = [4 + draw % (widest - 3) if draw % 3 else 8 for draw in draws]
    assert btree._node_bounds(widths, capacity, leaf) == greedy_bounds(
        widths, capacity, leaf
    )


class TestPageBacked:
    def test_probes_read_pages(self):
        tree, disk = make_tree([(k, k) for k in range(2000)])
        assert tree.height == 3
        tree.pool.clear()
        with disk.measure() as io:
            tree.search(999)
        # One page per level (plus at most one next-leaf peek when the key
        # sits at a leaf boundary), through the pool -> disk reads counted.
        assert tree.height <= io.page_reads <= tree.height + 1

    def test_survives_pool_eviction(self):
        # Tiny pool forces every node access through disk.
        disk = DiskManager(page_size=256)
        tree = BPlusTree(
            BufferPool(disk, capacity=3), pairs=[(k, k) for k in range(300)]
        )
        assert [k for k, _ in tree.items()] == list(range(300))
        assert disk.obs["disk.page_writes"] == disk.num_pages  # each node once


class TestModelBased:
    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(-(2**63), 2**63 - 1)),
            max_size=150,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_against_sorted_model(self, pairs):
        """Zero, one and many entries; few distinct keys, so duplicates
        run across leaves (13 entries a leaf)."""
        tree, _ = make_tree(pairs)
        model = sorted(pairs, key=lambda kv: kv[0])  # stable: input order
        assert list(tree.items()) == model
        assert len(tree) == len(pairs)
        for probe in (-1, 0, 20, 40, 41):
            assert tree.search(probe) == [v for k, v in model if k == probe]

    @given(
        st.lists(st.integers(0, 100), max_size=120),
        st.integers(0, 100),
        st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_range_against_model(self, keys, lo, hi):
        tree, _ = make_tree([(k, k) for k in keys])
        lo, hi = min(lo, hi), max(lo, hi)
        got = [k for k, _ in tree.range(lo, hi)]
        want = sorted(k for k in keys if lo <= k <= hi)
        assert got == want

    @given(
        st.lists(st.text(min_size=1, max_size=200), max_size=60),
        st.text(max_size=3),
        st.text(max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_string_keys_against_model(self, keys, lo, hi):
        """Keys of 1-200 characters (up to 804 encoded bytes), a few a
        1 KiB leaf; duplicates where the draw repeats a key."""
        keys = keys + keys[: len(keys) // 3]
        pairs = [(k, i) for i, k in enumerate(keys)]
        tree, _ = make_tree(pairs, STRING, page_size=1024)
        model = sorted(pairs, key=lambda kv: kv[0])
        assert list(tree.items()) == model
        for key in keys[:5]:
            assert tree.search(key) == [v for k, v in model if k == key]
        lo, hi = min(lo, hi), max(lo, hi)
        assert list(tree.range(lo, hi)) == [
            (k, v) for k, v in model if lo <= k <= hi
        ]


def test_node_payloads_are_pinned():
    """A build writes the wire format: two leaves (``is_leaf``, key count,
    next leaf; the key vector's byte length, then its count and keys; the
    values, one a 2**40) and their root (next ``-1``; one key, two child
    page ids), on the pages allocated in that order."""
    from repro.storage.page import BytePage

    pool = BufferPool(DiskManager(page_size=96), capacity=8)
    tree = BPlusTree(
        pool, pairs=[(5, 50), (1, -10), (9, 2**40), (7, 70), (3, 30)]
    )
    payloads = [
        BytePage(96, pool.disk.read_page(p)).read().hex()
        for p in range(pool.disk.num_pages)
    ]
    assert payloads == [
        "01030001000000000000001c0000000300000001000000000000000300000000"
        "0000000500000000000000f6ffffffffffffff1e000000000000003200000000"
        "000000",
        "010200ffffffffffffffff140000000200000007000000000000000900000000"
        "00000046000000000000000000000000010000",
        "000100ffffffffffffffff0c0000000100000007000000000000000000000000"
        "0000000100000000000000",
    ]
    assert tree.page_ids() == [0, 1, 2] and tree.root_page == 2
