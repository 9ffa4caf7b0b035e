"""Page-backed B+Tree.

The paper: "RodentStore will include both B+Trees as well as a variety of
geo-spatial indices, but we don't anticipate innovating in this regard".
Accordingly this is a textbook B+Tree — one node per page, write-through,
reads through the buffer pool so index probes show up in the pages/query
metric like every other access path.

Keys are scalars (int/float/str); values are signed 64-bit integers (row
positions or encoded page pointers). Duplicate keys are allowed.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Any, Iterator, Sequence

from repro.errors import IndexError_
from repro.storage.buffer import BufferPool
from repro.storage.page import BYTES_HEADER_SIZE, BytePage
from repro.storage.serializer import VectorSerializer
from repro.types.types import DataType, INT

_HEADER = struct.Struct("<BHq")  # is_leaf, n_entries, next_leaf(page id)
_U32 = struct.Struct("<I")


class _Node:
    """In-memory image of one B+Tree node."""

    __slots__ = ("page_id", "is_leaf", "keys", "values", "children", "next_leaf")

    def __init__(self, page_id: int, is_leaf: bool):
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.keys: list[Any] = []
        self.values: list[int] = []  # leaf payloads
        self.children: list[int] = []  # internal child page ids
        self.next_leaf: int = -1


class BPlusTree:
    """A B+Tree over one scalar key type.

    Args:
        pool: buffer pool for node I/O.
        key_type: key data type (defaults to int).
        order: max entries per node; derived from the page size when omitted.
    """

    def __init__(
        self,
        pool: BufferPool,
        key_type: DataType = INT,
        order: int | None = None,
    ):
        self.pool = pool
        self.key_type = key_type
        self._key_ser = VectorSerializer(key_type)
        capacity = pool.disk.page_size - BYTES_HEADER_SIZE
        if order is None:
            key_width = key_type.fixed_size or key_type.estimated_size()
            order = max(4, (capacity - 32) // (key_width + 12))
        if order < 4:
            raise IndexError_("B+Tree order must be at least 4")
        self.order = order
        self._page_ids: list[int] = []
        root = self._new_node(is_leaf=True)
        self._write_node(root)
        self.root_page = root.page_id
        self._height = 1
        self._size = 0

    # -- node I/O -----------------------------------------------------------

    def _new_node(self, is_leaf: bool) -> _Node:
        frame = self.pool.new_page()
        self.pool.unpin(frame.page_id, dirty=True)
        self._page_ids.append(frame.page_id)
        return _Node(frame.page_id, is_leaf)

    def page_ids(self) -> list[int]:
        """Every page this tree allocated (whoever drops the tree frees
        them: nodes a bulk load replaced are among them)."""
        return list(self._page_ids)

    def _write_node(self, node: _Node) -> None:
        key_bytes = self._key_ser.encode(node.keys)
        slots = node.values if node.is_leaf else node.children
        payload = b"".join(
            (
                _HEADER.pack(
                    1 if node.is_leaf else 0, len(node.keys), node.next_leaf
                ),
                _U32.pack(len(key_bytes)),
                key_bytes,
                struct.pack(f"<{len(slots)}q", *slots),
            )
        )
        frame = self.pool.fetch(node.page_id)
        try:
            page = BytePage(self.pool.disk.page_size)
            page.write(payload)
            frame.data[:] = page.buffer
        finally:
            self.pool.unpin(node.page_id, dirty=True)
        self.pool.flush(node.page_id)

    def _read_node(self, page_id: int) -> _Node:
        frame = self.pool.fetch(page_id)
        try:
            page = BytePage(self.pool.disk.page_size, frame.data)
            payload = page.read()
        finally:
            self.pool.unpin(page_id)
        is_leaf, n, next_leaf = _HEADER.unpack_from(payload, 0)
        offset = _HEADER.size
        (key_len,) = _U32.unpack_from(payload, offset)
        offset += 4
        keys = self._key_ser.decode(payload[offset : offset + key_len])
        offset += key_len
        node = _Node(page_id, bool(is_leaf))
        node.keys = keys
        node.next_leaf = next_leaf
        count = n if is_leaf else n + 1
        slots = list(struct.unpack_from(f"<{count}q", payload, offset))
        if is_leaf:
            node.values = slots
        else:
            node.children = slots
        return node

    # -- basic properties ---------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    # -- search ------------------------------------------------------------

    def _descend(self, key: Any) -> list[_Node]:
        """Path from root to the rightmost leaf that may hold ``key``.

        Used by inserts (new duplicates append after existing ones).
        """
        path = [self._read_node(self.root_page)]
        while not path[-1].is_leaf:
            node = path[-1]
            index = bisect_right(node.keys, key)
            path.append(self._read_node(node.children[index]))
        return path

    def _descend_first(self, key: Any) -> _Node:
        """The leftmost leaf that may hold ``key``.

        Used by reads: duplicate keys can span several leaves, and the scan
        must start at the first occurrence.
        """
        node = self._read_node(self.root_page)
        while not node.is_leaf:
            index = bisect_left(node.keys, key)
            node = self._read_node(node.children[index])
        return node

    def _leaf_spans(self, lo: Any, hi: Any) -> Iterator[tuple[_Node, int, int]]:
        """``(leaf, start, stop)`` per leaf holding entries with
        lo <= key <= hi, in key order: the entries are the leaf's
        ``[start:stop]`` — bounds found by bisection, no per-entry work."""
        leaf = self._descend_first(lo)
        start = bisect_left(leaf.keys, lo)
        while True:
            stop = bisect_right(leaf.keys, hi, start)
            if stop > start:
                yield leaf, start, stop
            if stop < len(leaf.keys) or leaf.next_leaf < 0:
                return
            leaf = self._read_node(leaf.next_leaf)
            start = 0

    def search(self, key: Any) -> list[int]:
        """All values stored under ``key``."""
        return self.range_values(key, key)

    def range(self, lo: Any, hi: Any) -> Iterator[tuple[Any, int]]:
        """(key, value) pairs with lo <= key <= hi, in key order."""
        for leaf, start, stop in self._leaf_spans(lo, hi):
            yield from zip(leaf.keys[start:stop], leaf.values[start:stop])

    def range_values(self, lo: Any, hi: Any) -> list[int]:
        """The values of :meth:`range`, without the pairs."""
        out: list[int] = []
        for leaf, start, stop in self._leaf_spans(lo, hi):
            out.extend(leaf.values[start:stop])
        return out

    def items(self) -> Iterator[tuple[Any, int]]:
        """All (key, value) pairs in key order."""
        node = self._read_node(self.root_page)
        while not node.is_leaf:
            node = self._read_node(node.children[0])
        while True:
            yield from zip(node.keys, node.values)
            if node.next_leaf < 0:
                return
            node = self._read_node(node.next_leaf)

    # -- insertion -----------------------------------------------------------

    def insert(self, key: Any, value: int) -> None:
        path = self._descend(key)
        leaf = path[-1]
        index = bisect_right(leaf.keys, key)
        leaf.keys.insert(index, key)
        leaf.values.insert(index, value)
        self._size += 1
        if len(leaf.keys) <= self.order:
            self._write_node(leaf)
            return
        self._split(path)

    def _split(self, path: list[_Node]) -> None:
        node = path.pop()
        mid = len(node.keys) // 2
        sibling = self._new_node(node.is_leaf)
        if node.is_leaf:
            sibling.keys = node.keys[mid:]
            sibling.values = node.values[mid:]
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
            sibling.next_leaf = node.next_leaf
            node.next_leaf = sibling.page_id
            separator = sibling.keys[0]
        else:
            separator = node.keys[mid]
            sibling.keys = node.keys[mid + 1 :]
            sibling.children = node.children[mid + 1 :]
            node.keys = node.keys[:mid]
            node.children = node.children[: mid + 1]
        self._write_node(node)
        self._write_node(sibling)

        if not path:
            root = self._new_node(is_leaf=False)
            root.keys = [separator]
            root.children = [node.page_id, sibling.page_id]
            self._write_node(root)
            self.root_page = root.page_id
            self._height += 1
            return
        parent = path[-1]
        index = parent.children.index(node.page_id)
        parent.keys.insert(index, separator)
        parent.children.insert(index + 1, sibling.page_id)
        if len(parent.keys) <= self.order:
            self._write_node(parent)
            return
        self._split(path)

    # -- deletion (no rebalancing; underflowed nodes are tolerated) -----------

    def delete(self, key: Any, value: int | None = None) -> int:
        """Remove entries with ``key`` (optionally only a specific value).

        Returns the number of removed entries. Nodes are allowed to
        underflow — the tree stays correct, merely less dense, which matches
        the bulk-load-then-read usage of the benchmarks.
        """
        removed = 0
        leaf = self._descend_first(key)
        while True:
            i = bisect_left(leaf.keys, key)
            changed = False
            while i < len(leaf.keys) and leaf.keys[i] == key:
                if value is None or leaf.values[i] == value:
                    del leaf.keys[i]
                    del leaf.values[i]
                    removed += 1
                    changed = True
                else:
                    i += 1
            if changed:
                self._write_node(leaf)
            if (
                leaf.keys
                and leaf.keys[-1] >= key
                or leaf.next_leaf < 0
            ):
                break
            next_leaf = self._read_node(leaf.next_leaf)
            if not next_leaf.keys or next_leaf.keys[0] > key:
                break
            leaf = next_leaf
        self._size -= removed
        return removed

    # -- bulk loading ----------------------------------------------------------

    def bulk_load(self, pairs: Sequence[tuple[Any, int]]) -> None:
        """Replace the tree contents with sorted ``pairs`` (bottom-up build)."""
        ordered = sorted(pairs, key=lambda kv: kv[0])
        fill = max(2, (self.order * 2) // 3)
        leaves: list[_Node] = []
        for start in range(0, max(len(ordered), 1), fill):
            chunk = ordered[start : start + fill]
            leaf = self._new_node(is_leaf=True)
            leaf.keys = [k for k, _ in chunk]
            leaf.values = [v for _, v in chunk]
            leaves.append(leaf)
        for a, b in zip(leaves, leaves[1:]):
            a.next_leaf = b.page_id
        for leaf in leaves:
            self._write_node(leaf)

        level = leaves
        height = 1
        while len(level) > 1:
            parents: list[_Node] = []
            for start in range(0, len(level), fill):
                group = level[start : start + fill]
                parent = self._new_node(is_leaf=False)
                parent.children = [n.page_id for n in group]
                parent.keys = [_subtree_min(self, n) for n in group[1:]]
                parents.append(parent)
            for parent in parents:
                self._write_node(parent)
            level = parents
            height += 1
        self.root_page = level[0].page_id
        self._height = height
        self._size = len(ordered)


def _subtree_min(tree: BPlusTree, node: _Node) -> Any:
    while not node.is_leaf:
        node = tree._read_node(node.children[0])
    if not node.keys:
        raise IndexError_("empty node during bulk load")
    return node.keys[0]
