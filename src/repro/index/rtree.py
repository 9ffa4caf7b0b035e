"""Page-backed 2-D R-Tree, built once by Sort-Tile-Recursive packing.

The Figure 2 baseline: "a relatively common approach to index spatial objects
using a secondary R-Tree over the trajectories". The paper found it
*suboptimal* on dense trace data because trajectory bounding boxes overlap
heavily — every overlapping box costs a random I/O and drags in many
observations. This implementation reproduces exactly that behaviour: nodes
live one-per-page, reads go through the buffer pool, and the benchmark builds
it over trajectory MBRs whose payloads point at row pages.

A tree is built bottom-up from all its entries (STR, Leutenegger et al.
1997) and never changed, like :class:`repro.index.btree.BPlusTree`: every
node holds as many entries as its page holds and is written exactly once,
to a page allocated for it; a parent's entry for a node is the rectangle
enclosing that node's entries.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import IndexError_
from repro.index.pages import node_capacity, read_node, write_node
from repro.storage.buffer import BufferPool

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


class RTree:
    """A 2-D rectangle index mapping MBRs to int64 payloads, built from
    ``entries`` (``(mbr, payload)`` pairs, in any order).

    Raises:
        IndexError_: a page too small to hold two entries.
    """

    def __init__(
        self, pool: BufferPool, entries: Iterable[tuple[MBR, int]] = ()
    ):
        self.pool = pool
        entries = list(entries)
        fanout = (node_capacity(pool) - _HEADER.size) // _ENTRY.size
        if fanout < 2:
            raise IndexError_(
                f"a page of {pool.disk.page_size} bytes holds fewer than two "
                f"R-Tree entries"
            )
        self._page_ids: list[int] = []
        self._size = len(entries)
        self._height = 1
        level = [self._write_node(True, t) for t in _str_tiles(entries, fanout)]
        while len(level) > 1:
            level = [self._write_node(False, t) for t in _str_tiles(level, fanout)]
            self._height += 1
        self.root_page = level[0][1]

    # -- node I/O -----------------------------------------------------------

    def _write_node(
        self, is_leaf: bool, entries: list[tuple[MBR, int]]
    ) -> tuple[MBR | None, int]:
        """Write one node to a page allocated for it: its entry in the
        level above, ``(enclosing mbr, page id)``."""
        payload = _HEADER.pack(is_leaf, len(entries)) + b"".join(
            _ENTRY.pack(box.xmin, box.ymin, box.xmax, box.ymax, pointer)
            for box, pointer in entries
        )
        page_id = write_node(self.pool, self.pool.new_page(), payload)
        self._page_ids.append(page_id)
        if not entries:
            return None, page_id  # an empty tree's root
        boxes = [box for box, _ in entries]
        return MBR(
            min(b.xmin for b in boxes), min(b.ymin for b in boxes),
            max(b.xmax for b in boxes), max(b.ymax for b in boxes),
        ), page_id

    def page_ids(self) -> list[int]:
        """Every page this tree holds (whoever drops it frees them)."""
        return list(self._page_ids)

    def _read_node(self, page_id: int) -> tuple[bool, list[tuple[MBR, int]]]:
        payload = read_node(self.pool, page_id)
        is_leaf, n = _HEADER.unpack_from(payload, 0)
        entries = []
        for xmin, ymin, xmax, ymax, pointer in _ENTRY.iter_unpack(
            payload[_HEADER.size : _HEADER.size + n * _ENTRY.size]
        ):
            entries.append((MBR(xmin, ymin, xmax, ymax), pointer))
        return bool(is_leaf), entries

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
            is_leaf, entries = self._read_node(stack.pop())
            for box, pointer in entries:
                if not box.intersects(query):
                    continue
                if is_leaf:
                    yield box, pointer
                else:
                    stack.append(pointer)


def _str_tiles(
    entries: list[tuple[MBR, int]], fill: int
) -> list[list[tuple[MBR, int]]]:
    """Group entries into node-sized tiles: x-slabs of whole nodes, then
    runs of ``fill`` by y within each slab. No entries make one empty
    tile."""
    n = len(entries)
    if not n:
        return [[]]
    n_nodes = math.ceil(n / fill)
    n_slabs = math.ceil(math.sqrt(n_nodes))
    per_slab = fill * math.ceil(n_nodes / n_slabs)
    by_x = sorted(entries, key=lambda e: (e[0].xmin + e[0].xmax) / 2)
    tiles: list[list[tuple[MBR, int]]] = []
    for s in range(0, n, per_slab):
        slab = sorted(
            by_x[s : s + per_slab], key=lambda e: (e[0].ymin + e[0].ymax) / 2
        )
        for t in range(0, len(slab), fill):
            tiles.append(slab[t : t + fill])
    return tiles
