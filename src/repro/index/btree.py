"""Page-backed B+Tree, built once.

The paper: "RodentStore will include both B+Trees as well as a variety of
geo-spatial indices, but we don't anticipate innovating in this regard".
Accordingly this is a textbook B+Tree — one node per page, reads through
the buffer pool so index probes show up in the pages/query metric like
every other access path.

A tree is built bottom-up from all its entries and never changed: the
engine builds one per run when the run is sealed or merged and retires it
with the run (:mod:`repro.engine.indexes`). So every node is packed — it
holds as many entries as its page holds by encoded bytes — and written
exactly once, to a page allocated for it. An internal node's separators
are the least keys of the nodes of the level just built.

Keys are scalars (int/float/str); values are signed 64-bit integers (row
positions or encoded page pointers). Duplicate keys are allowed.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import itemgetter
from typing import Any, Iterable, Iterator

from repro.errors import IndexError_
from repro.index.pages import node_capacity, read_node, write_node
from repro.storage.buffer import BufferPool
from repro.storage.serializer import VectorSerializer
from repro.types.types import DataType, INT

_HEADER = struct.Struct("<BHq")  # is_leaf, n_keys, next_leaf(page id)
_U32 = struct.Struct("<I")
#: A node's bytes before its entries: the header, then the key vector's
#: byte length and its count.
_HEAD = _HEADER.size + 2 * _U32.size
_SLOT = 8  # a leaf's value or an internal node's child page id


class _Node:
    """In-memory image of one B+Tree node, as read back."""

    __slots__ = ("is_leaf", "keys", "slots", "next_leaf")

    def __init__(self, is_leaf: bool, keys: list, slots: list, next_leaf: int):
        self.is_leaf = is_leaf
        self.keys = keys
        self.slots = slots  # leaf values, or the n_keys + 1 child page ids
        self.next_leaf = next_leaf


class BPlusTree:
    """A B+Tree over one scalar key type, built from ``pairs``.

    Args:
        pool: buffer pool for node I/O.
        key_type: key data type (defaults to int).
        pairs: the ``(key, value)`` entries, in any order.

    Raises:
        IndexError_: a key too long for an internal node to hold two
            children beside it; nothing was written.
    """

    def __init__(
        self,
        pool: BufferPool,
        key_type: DataType = INT,
        pairs: Iterable[tuple[Any, int]] = (),
    ):
        self.pool = pool
        self.key_type = key_type
        self._key_ser = VectorSerializer(key_type)
        ordered = sorted(pairs, key=itemgetter(0))
        keys = [key for key, _ in ordered]
        slots = [value for _, value in ordered]
        if key_type.fixed_size is not None:
            widths = [key_type.fixed_size] * len(keys)
        else:
            widths = [self._key_ser.encoded_size((k,)) - _U32.size for k in keys]
        capacity = node_capacity(pool)
        widest = max(widths, default=0)
        if widest > capacity - _HEAD - 2 * _SLOT:
            raise IndexError_(
                f"a key of {widest} bytes does not fit a B+Tree node of "
                f"{capacity} bytes"
            )
        self._page_ids: list[int] = []
        self._size = len(keys)
        self._height = 1
        bounds = _node_bounds(widths, capacity, leaf=True)
        level = self._write_level(True, bounds, keys, slots)
        while len(level) > 1:
            keys = [keys[start] for start, _ in bounds]  # each node's least
            widths = [widths[start] for start, _ in bounds]
            bounds = _node_bounds(widths, capacity, leaf=False)
            level = self._write_level(False, bounds, keys, level)
            self._height += 1
        self.root_page = level[0]

    # -- node I/O -----------------------------------------------------------

    def _write_level(self, is_leaf, bounds, keys, slots) -> list[int]:
        """Write one level's nodes, left to right, each to a page allocated
        for it: entries ``[start:stop]`` of ``keys`` and ``slots`` per
        ``bounds`` (an internal node keeps no key for its first child).
        A leaf links the next, whose page is allocated first. The nodes'
        page ids."""
        frames = [self.pool.new_page()]
        for n, (start, stop) in enumerate(bounds):
            last = n + 1 == len(bounds)
            if not last:
                frames.append(self.pool.new_page())
            next_leaf = -1 if last or not is_leaf else frames[n + 1].page_id
            node_keys = keys[start:stop] if is_leaf else keys[start + 1 : stop]
            key_bytes = self._key_ser.encode(node_keys)
            node_slots = slots[start:stop]
            write_node(self.pool, frames[n], b"".join((
                _HEADER.pack(is_leaf, len(node_keys), next_leaf),
                _U32.pack(len(key_bytes)),
                key_bytes,
                struct.pack(f"<{len(node_slots)}q", *node_slots),
            )))
        ids = [frame.page_id for frame in frames]
        self._page_ids += ids
        return ids

    def page_ids(self) -> list[int]:
        """Every page this tree holds (whoever drops the tree frees them)."""
        return list(self._page_ids)

    def _read_node(self, page_id: int) -> _Node:
        payload = read_node(self.pool, page_id)
        is_leaf, n, next_leaf = _HEADER.unpack_from(payload, 0)
        offset = _HEADER.size
        (key_len,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        keys = self._key_ser.decode(payload[offset : offset + key_len])
        offset += key_len
        count = n if is_leaf else n + 1
        slots = list(struct.unpack_from(f"<{count}q", payload, offset))
        return _Node(bool(is_leaf), keys, slots, next_leaf)

    # -- basic properties ---------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    # -- search ------------------------------------------------------------

    def _descend_first(self, key: Any) -> _Node:
        """The leftmost leaf that may hold ``key``: duplicate keys can span
        several leaves, and a scan must start at the first occurrence."""
        node = self._read_node(self.root_page)
        while not node.is_leaf:
            node = self._read_node(node.slots[bisect_left(node.keys, key)])
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
            yield from zip(leaf.keys[start:stop], leaf.slots[start:stop])

    def range_values(self, lo: Any, hi: Any) -> list[int]:
        """The values of :meth:`range`, without the pairs."""
        out: list[int] = []
        for leaf, start, stop in self._leaf_spans(lo, hi):
            out.extend(leaf.slots[start:stop])
        return out

    def items(self) -> Iterator[tuple[Any, int]]:
        """All (key, value) pairs in key order."""
        node = self._read_node(self.root_page)
        while not node.is_leaf:
            node = self._read_node(node.slots[0])
        while True:
            yield from zip(node.keys, node.slots)
            if node.next_leaf < 0:
                return
            node = self._read_node(node.next_leaf)


def _node_bounds(widths: list[int], capacity: int, leaf: bool):
    """``(start, stop)`` of each node of a level, left to right: as many
    consecutive entries as the node's page holds by encoded bytes. An entry
    takes its slot and its key's ``width`` — except an internal node's
    first child, whose least key the parent holds. No entries make one
    empty node."""
    ends = list(accumulate(map(_SLOT.__add__, widths), initial=0))
    bounds, start = [], 0
    while start < len(widths) or not bounds:
        room = capacity - _HEAD + ends[start]
        if not leaf and start < len(widths):
            room += widths[start]
        stop = max(start + 1, bisect_right(ends, room) - 1)
        bounds.append((start, min(stop, len(widths))))
        start = stop
    return bounds
