"""Page-backed 2-D R-Tree.

The Figure 2 baseline: "a relatively common approach to index spatial objects
using a secondary R-Tree over the trajectories". The paper found it
*suboptimal* on dense trace data because trajectory bounding boxes overlap
heavily — every overlapping box costs a random I/O and drags in many
observations. This implementation reproduces exactly that behaviour: nodes
live one-per-page, reads go through the buffer pool, and the benchmark builds
it over trajectory MBRs whose payloads point at row pages.

Construction supports Sort-Tile-Recursive (STR) bulk loading and quadratic-
split incremental insertion (Guttman 1984).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import IndexError_
from repro.storage.buffer import BufferPool
from repro.storage.page import BYTES_HEADER_SIZE, BytePage

_HEADER = struct.Struct("<BH")  # is_leaf, n_entries
_ENTRY = struct.Struct("<ddddq")  # xmin, ymin, xmax, ymax, pointer


@dataclass(frozen=True)
class MBR:
    """Minimum bounding rectangle (closed on all sides)."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise IndexError_(f"invalid MBR {self}")

    @staticmethod
    def of_points(points: Sequence[tuple[float, float]]) -> "MBR":
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        return MBR(min(xs), min(ys), max(xs), max(ys))

    def area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    def union(self, other: "MBR") -> "MBR":
        return MBR(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def intersects(self, other: "MBR") -> bool:
        return not (
            other.xmin > self.xmax
            or other.xmax < self.xmin
            or other.ymin > self.ymax
            or other.ymax < self.ymin
        )

    def contains_point(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def enlargement(self, other: "MBR") -> float:
        return self.union(other).area() - self.area()


class _Node:
    __slots__ = ("page_id", "is_leaf", "entries")

    def __init__(self, page_id: int, is_leaf: bool):
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.entries: list[tuple[MBR, int]] = []  # (mbr, payload-or-child)

    def mbr(self) -> MBR:
        box = self.entries[0][0]
        for other, _ in self.entries[1:]:
            box = box.union(other)
        return box


class RTree:
    """A 2-D rectangle index mapping MBRs to int64 payloads.

    Args:
        pool: buffer pool for node I/O.
        max_entries: node fanout; derived from page size when omitted.
    """

    def __init__(self, pool: BufferPool, max_entries: int | None = None):
        self.pool = pool
        capacity = pool.disk.page_size - BYTES_HEADER_SIZE
        if max_entries is None:
            max_entries = max(4, (capacity - 8) // _ENTRY.size)
        if max_entries < 4:
            raise IndexError_("R-Tree fanout must be at least 4")
        self.max_entries = max_entries
        self.min_entries = max(2, max_entries // 3)
        self._page_ids: list[int] = []
        root = self._new_node(is_leaf=True)
        self._write_node(root)
        self.root_page = root.page_id
        self._size = 0
        self._height = 1

    # -- node I/O -----------------------------------------------------------

    def _new_node(self, is_leaf: bool) -> _Node:
        frame = self.pool.new_page()
        self.pool.unpin(frame.page_id, dirty=True)
        self._page_ids.append(frame.page_id)
        return _Node(frame.page_id, is_leaf)

    def page_ids(self) -> list[int]:
        """Every page this tree allocated (whoever drops it frees them)."""
        return list(self._page_ids)

    def _write_node(self, node: _Node) -> None:
        if len(node.entries) > self.max_entries + 1:
            raise IndexError_("node overflow escaped splitting")
        parts = [_HEADER.pack(1 if node.is_leaf else 0, len(node.entries))]
        for box, pointer in node.entries:
            parts.append(
                _ENTRY.pack(box.xmin, box.ymin, box.xmax, box.ymax, pointer)
            )
        payload = b"".join(parts)
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
        is_leaf, n = _HEADER.unpack_from(payload, 0)
        node = _Node(page_id, bool(is_leaf))
        offset = _HEADER.size
        for _ in range(n):
            xmin, ymin, xmax, ymax, pointer = _ENTRY.unpack_from(payload, offset)
            offset += _ENTRY.size
            node.entries.append((MBR(xmin, ymin, xmax, ymax), pointer))
        return node

    # -- properties ---------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    # -- search ------------------------------------------------------------

    def search(self, query: MBR) -> list[tuple[MBR, int]]:
        """All (mbr, payload) leaf entries intersecting ``query``."""
        return list(self.iter_search(query))

    def iter_search(self, query: MBR) -> Iterator[tuple[MBR, int]]:
        stack = [self.root_page]
        while stack:
            node = self._read_node(stack.pop())
            for box, pointer in node.entries:
                if not box.intersects(query):
                    continue
                if node.is_leaf:
                    yield box, pointer
                else:
                    stack.append(pointer)

    def node_pages_touched(self, query: MBR) -> int:
        """Index pages a query reads (for cost accounting without the pool)."""
        touched = 0
        stack = [self.root_page]
        while stack:
            node = self._read_node(stack.pop())
            touched += 1
            if node.is_leaf:
                continue
            for box, pointer in node.entries:
                if box.intersects(query):
                    stack.append(pointer)
        return touched

    # -- insertion (Guttman, quadratic split) --------------------------------

    def insert(self, box: MBR, payload: int) -> None:
        path = self._choose_path(box)
        leaf = path[-1]
        leaf.entries.append((box, payload))
        self._size += 1
        self._propagate(path)

    def _choose_path(self, box: MBR) -> list[_Node]:
        path = [self._read_node(self.root_page)]
        while not path[-1].is_leaf:
            node = path[-1]
            best = min(
                node.entries,
                key=lambda e: (e[0].enlargement(box), e[0].area()),
            )
            path.append(self._read_node(best[1]))
        return path

    def _propagate(self, path: list[_Node]) -> None:
        while path:
            node = path.pop()
            if len(node.entries) <= self.max_entries:
                self._write_node(node)
                if path:
                    parent = path[-1]
                    for i, (pbox, pointer) in enumerate(parent.entries):
                        if pointer == node.page_id:
                            parent.entries[i] = (node.mbr(), pointer)
                            break
                continue
            left_entries, right_entries = _quadratic_split(
                node.entries, self.min_entries
            )
            node.entries = left_entries
            sibling = self._new_node(node.is_leaf)
            sibling.entries = right_entries
            self._write_node(node)
            self._write_node(sibling)
            if path:
                parent = path[-1]
                for i, (pbox, pointer) in enumerate(parent.entries):
                    if pointer == node.page_id:
                        parent.entries[i] = (node.mbr(), pointer)
                        break
                parent.entries.append((sibling.mbr(), sibling.page_id))
            else:
                root = self._new_node(is_leaf=False)
                root.entries = [
                    (node.mbr(), node.page_id),
                    (sibling.mbr(), sibling.page_id),
                ]
                self._write_node(root)
                self.root_page = root.page_id
                self._height += 1
                return

    # -- STR bulk loading --------------------------------------------------------

    def bulk_load(self, entries: Sequence[tuple[MBR, int]]) -> None:
        """Sort-Tile-Recursive packing (Leutenegger et al. 1997)."""
        if not entries:
            return
        fill = max(2, (self.max_entries * 2) // 3)
        leaves: list[_Node] = []
        for group in _str_tiles(list(entries), fill):
            leaf = self._new_node(is_leaf=True)
            leaf.entries = group
            leaves.append(leaf)
        for leaf in leaves:
            self._write_node(leaf)

        level = leaves
        height = 1
        while len(level) > 1:
            up_entries = [(n.mbr(), n.page_id) for n in level]
            parents: list[_Node] = []
            for group in _str_tiles(up_entries, fill):
                parent = self._new_node(is_leaf=False)
                parent.entries = group
                parents.append(parent)
            for parent in parents:
                self._write_node(parent)
            level = parents
            height += 1
        self.root_page = level[0].page_id
        self._height = height
        self._size = len(entries)


def _str_tiles(
    entries: list[tuple[MBR, int]], fill: int
) -> list[list[tuple[MBR, int]]]:
    """Group entries into node-sized tiles by x-slabs then y within slab."""
    n = len(entries)
    n_nodes = math.ceil(n / fill)
    n_slabs = max(1, math.ceil(math.sqrt(n_nodes)))
    per_slab = math.ceil(n / n_slabs)
    by_x = sorted(entries, key=lambda e: (e[0].xmin + e[0].xmax) / 2)
    tiles: list[list[tuple[MBR, int]]] = []
    for s in range(0, n, per_slab):
        slab = sorted(
            by_x[s : s + per_slab], key=lambda e: (e[0].ymin + e[0].ymax) / 2
        )
        for t in range(0, len(slab), fill):
            tiles.append(slab[t : t + fill])
    return tiles


def _quadratic_split(
    entries: list[tuple[MBR, int]], min_entries: int
) -> tuple[list[tuple[MBR, int]], list[tuple[MBR, int]]]:
    """Guttman's quadratic split."""
    # Pick the pair wasting the most area as seeds.
    worst = None
    seeds = (0, 1)
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            waste = (
                entries[i][0].union(entries[j][0]).area()
                - entries[i][0].area()
                - entries[j][0].area()
            )
            if worst is None or waste > worst:
                worst = waste
                seeds = (i, j)
    left = [entries[seeds[0]]]
    right = [entries[seeds[1]]]
    left_box = entries[seeds[0]][0]
    right_box = entries[seeds[1]][0]
    rest = [e for k, e in enumerate(entries) if k not in seeds]
    for index, entry in enumerate(rest):
        remaining = len(rest) - index
        if len(left) + remaining <= min_entries:
            left.append(entry)
            left_box = left_box.union(entry[0])
            continue
        if len(right) + remaining <= min_entries:
            right.append(entry)
            right_box = right_box.union(entry[0])
            continue
        grow_left = left_box.enlargement(entry[0])
        grow_right = right_box.enlargement(entry[0])
        if grow_left < grow_right or (
            grow_left == grow_right and left_box.area() <= right_box.area()
        ):
            left.append(entry)
            left_box = left_box.union(entry[0])
        else:
            right.append(entry)
            right_box = right_box.union(entry[0])
    return left, right
