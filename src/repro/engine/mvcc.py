"""Snapshot isolation for catalog entries (MVCC, copy-on-write flavor).

RodentStore writers never mutate a rendered layout in place: a structural
change (flush, re-layout, compaction, partition rewrite) builds new pages
copy-on-write and atomically swaps the new plan/layout into the catalog entry
at commit. That makes snapshots nearly free — a scan *pins* the entry, which
shallow-copies the handful of references it needs (plan, indexes, and each
region's run list and pending buffer, frozen by ``Region.freeze``); unchanged
pages are shared between versions, as in RStore's page-shared snapshots.

The one thing pinning must also solve is reclamation: the pages of a
superseded layout may still be read by in-flight scans that pinned the old
version. Writers therefore hand the free operation to
:meth:`EntryMVCC.retire` instead of freeing directly; the deferred free runs
when the last pin at or below the retired version drains.

Locking discipline: ``EntryMVCC.lock`` (an RLock) guards all mutation of the
entry's layout-bearing fields *and* all snapshot captures. Writers hold it
only for the pointer swap, never during rendering — scans stay wait-free in
practice.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.catalog import CatalogEntry


class TableSnapshot:
    """What one scan sees: the entry's layout-bearing state at pin time."""

    __slots__ = (
        "version", "plan", "regions", "loaded", "indexes", "spatial_indexes",
        "level_tombstones", "released",
    )

    def __init__(self, entry: "CatalogEntry", version: int):
        self.version = version
        self.plan = entry.plan
        self.regions = [region.freeze() for region in entry.regions]
        self.loaded = entry.loaded
        self.indexes = dict(entry.indexes)
        self.spatial_indexes = dict(entry.spatial_indexes)
        self.level_tombstones = tuple(entry.level_tombstones)
        self.released = False


class EntryMVCC:
    """Version counter, pin registry, and deferred-free list for one entry."""

    def __init__(self):
        self.lock = threading.RLock()
        self.version = 0
        # version -> number of in-flight scans pinned at that version.
        self.pins: dict[int, int] = {}
        # (retired_at_version, free_fn): runs when no pin <= version remains.
        self.garbage: list[tuple[int, Callable[[], None]]] = []

    # -- snapshots --------------------------------------------------------

    def pin(self, entry: "CatalogEntry") -> TableSnapshot:
        """Capture a snapshot and register it as an active reader."""
        with self.lock:
            snap = TableSnapshot(entry, self.version)
            self.pins[self.version] = self.pins.get(self.version, 0) + 1
            return snap

    def release(self, snap: TableSnapshot) -> None:
        """Drop a pin (idempotent) and free any garbage it was holding."""
        with self.lock:
            if snap.released:
                return
            snap.released = True
            count = self.pins.get(snap.version, 0)
            if count <= 1:
                self.pins.pop(snap.version, None)
            else:
                self.pins[snap.version] = count - 1
            self._drain()

    # -- reclamation -------------------------------------------------------

    def retire(self, free_fn: Callable[[], None]) -> None:
        """Schedule ``free_fn`` once every reader of the old version drains.

        Called under :attr:`lock`, immediately after a writer swapped new
        state into the entry: readers pinned at or below the current version
        may still reference the superseded pages, readers arriving after the
        bump cannot.
        """
        self.garbage.append((self.version, free_fn))
        self.version += 1
        self._drain()

    def _drain(self) -> None:
        if not self.garbage:
            return
        oldest_pin = min(self.pins) if self.pins else None
        ready: list[Callable[[], None]] = []
        kept: list[tuple[int, Callable[[], None]]] = []
        for version, free_fn in self.garbage:
            if oldest_pin is not None and oldest_pin <= version:
                kept.append((version, free_fn))
            else:
                ready.append(free_fn)
        self.garbage = kept
        for free_fn in ready:
            free_fn()

    @property
    def active_pins(self) -> int:
        with self.lock:
            return sum(self.pins.values())
