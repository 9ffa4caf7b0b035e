"""One decoded cache for the store: decoded units under one byte budget.

The buffer pool keeps pages; this keeps what decoding them gave. An entry
is one decoded *unit* of one stored run, keyed by ``(the run's
StoredLayout, unit)``: a column group's chunk or window (``(group index,
first row, end row)``) or a grid cell's or folded record's vectors (its
stream offset). Rows pages and array pages are not admitted: their decode
is a fixed-width unpack of a frame the pool already holds, and keeping
them here would make a table larger than the pool memory-resident.

Every entry is charged its vectors' bytes plus :data:`ENTRY_OVERHEAD`, and
the least recently used entries go once the total passes the budget,
:data:`DECODED_CACHE_BYTES`; the store's memory ceiling is the pool's pages
plus that. Runs are immutable, so an entry never goes stale: a run's
entries go when its pages are freed (:meth:`DecodedCache.forget_pages`),
all of them when the store measures a cold read (``RodentStore.run_cold``).
A key holds its layout object, so its identity cannot be reused while an
entry names it. One lock guards the cache for concurrent scans.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Iterable

#: The store-wide budget of decoded bytes (entry overheads included).
DECODED_CACHE_BYTES = 16 << 20

#: Bytes charged to an entry beyond its vectors: the key, the entry's
#: tuple and dict slots, the vector objects' headers.
ENTRY_OVERHEAD = 512


class DecodedCache:
    """An LRU of decoded units across every run of a store."""

    def __init__(self) -> None:
        self.budget = DECODED_CACHE_BYTES
        self.held = self.hits = self.misses = self.evictions = 0
        self._entries: OrderedDict = OrderedDict()  # key -> (value, bytes)
        #: ``id(layout) -> (layout, a page it owns, its units)``.
        self._owners: dict[int, tuple[Any, Any, set]] = {}
        self._lock = threading.Lock()

    def get(self, layout, unit) -> Any:
        """The unit's cached value (now the most recent), or ``None``."""
        key = (id(layout), unit)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return entry[0]

    def has(self, layout, unit) -> bool:
        """Whether the unit is cached (counted as neither hit nor miss)."""
        return (id(layout), unit) in self._entries

    def put(self, layout, unit, value, nbytes: int) -> None:
        """Cache ``value`` (its vectors ``nbytes`` long) as the unit,
        evicting the least recently used entries past the budget; an entry
        the budget cannot hold is not cached."""
        charge = nbytes + ENTRY_OVERHEAD
        if charge > self.budget:
            return
        with self._lock:
            self._drop((id(layout), unit))
            owner = self._owners.get(id(layout))
            if owner is None:
                anchor = next(iter(layout.page_ids()), None)
                owner = self._owners[id(layout)] = (layout, anchor, set())
            owner[2].add(unit)
            self._entries[(id(layout), unit)] = (value, charge)
            self.held += charge
            while self.held > self.budget:
                self._drop(next(iter(self._entries)))
                self.evictions += 1

    def pop(self, layout, unit) -> Any:
        """Take the unit's value out of the cache (``None`` if absent)."""
        with self._lock:
            entry = self._drop((id(layout), unit))
        return None if entry is None else entry[0]

    def units(self, layout) -> list:
        """The units of ``layout`` held, least recently used first."""
        with self._lock:
            return [u for i, u in self._entries if i == id(layout)]

    def forget_pages(self, page_ids: Iterable[int]) -> None:
        """Drop every entry of the runs whose pages are being freed (a
        run's pages are freed together, so one page of each decides)."""
        freed = set(page_ids)
        with self._lock:
            for owner, (_, anchor, units) in list(self._owners.items()):
                if anchor in freed:
                    for unit in list(units):
                        self._drop((owner, unit))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._owners.clear()
            self.held = 0

    def stats(self) -> dict:
        return {
            "budget_bytes": self.budget,
            "held_bytes": self.held,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def _drop(self, key) -> tuple | None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.held -= entry[1]
            units = self._owners[key[0]][2]
            units.discard(key[1])
            if not units:
                del self._owners[key[0]]
        return entry
