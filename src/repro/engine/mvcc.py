"""Snapshot isolation for catalog entries (MVCC, copy-on-write flavor).

One :class:`TableSnapshot` — a table's state at one moment — serves both
readers and aborts. A scan *pins* one (:meth:`EntryMVCC.pin`) and reads
only it, so it keeps seeing the version it opened while writers commit new
ones. A transaction takes one when it first locks a table
(``_Mutation.lock``) and, should it abort, puts the table back as the
snapshot found it. Both are cheap because writers never mutate a rendered
layout in place: a structural change (seal, merge, re-layout, partition
rewrite) builds new runs copy-on-write and swaps new plans and run lists
into the entry, so a snapshot copies a handful of references; unchanged
pages are shared between versions, as in RStore's page-shared snapshots.

The one thing pinning must also solve is reclamation: the pages of a
superseded layout may still be read by in-flight scans that pinned the old
version. Writers therefore hand the free operation to
:meth:`EntryMVCC.retire` instead of freeing directly; the deferred free runs
when the last pin at or below the retired version drains. That is all a
reader needs: a re-layout may land while a scan is mid-iteration.

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

#: A catalog entry's state that a transaction may change: what a snapshot
#: holds (and an abort restores). The regions' own state comes with
#: ``regions``.
ENTRY_FIELDS = (
    "plan", "stats", "regions", "loaded", "region_index", "policy",
    "next_partition_id", "next_run_id", "next_run_seq",
    "indexes", "wa_bytes_ingested", "wa_bytes_written",
    "wa_pages_compacted", "wa_compactions",
)


class TableSnapshot:
    """A table's state at one moment: every field of :data:`ENTRY_FIELDS`
    under its own name (a list or dict copied: some change in place) and,
    per region, a copy of its field dict, its runs as a tuple and its
    pending count (the tombstone list is only ever replaced). The pending
    buffer and that count hold its rows without a copy: an insert only
    appends to the buffer, every other change installs a new one.

    A reader's snapshot :meth:`freeze`\\ s its regions; a transaction's
    :meth:`restore`\\ s them, and the entry, on abort.
    """

    __slots__ = (*ENTRY_FIELDS, "region_states", "version", "released")

    def __init__(self, entry: "CatalogEntry", version: int = 0):
        for name in ENTRY_FIELDS:
            value = getattr(entry, name)
            if isinstance(value, (list, dict)):
                value = type(value)(value)
            setattr(self, name, value)
        self.region_states = [
            (vars(region).copy(), tuple(region.runs), len(region.pending))
            for region in self.regions
        ]
        self.version = version
        self.released = False

    def freeze(self) -> None:
        """Make ``regions`` copies that later writes leave alone: what a
        pinned scan reads (filled from the captured fields, no
        ``__init__``: a pin is on every scan's path). A region's pending
        buffer becomes a view of the rows counted (no row is copied)."""
        regions, self.regions = self.regions, []
        for region, (fields, runs, count) in zip(regions, self.region_states):
            copy = object.__new__(type(region))
            pending = fields["pending"].view(count)
            vars(copy).update(fields, runs=runs, pending=pending)
            self.regions.append(copy)

    def restore(self, entry: "CatalogEntry") -> None:
        """Put ``entry`` and its regions back as they were (an unfrozen
        snapshot of ``entry``; caller holds its MVCC lock). A pending buffer
        the transaction appended to is replaced by a copy of the rows
        counted, never cut short in place: a reader pinned before the abort
        keeps the rows it saw, and a later insert writes into new vectors.
        A pending zone a write widened in place stays a sound bound of the
        rows kept."""
        for name in ENTRY_FIELDS:
            setattr(entry, name, getattr(self, name))
        for region, (fields, runs, count) in zip(
            self.regions, self.region_states
        ):
            if len(fields["pending"]) != count:
                fields["pending"] = fields["pending"].prefix(count)
            vars(region).update(fields, runs=list(runs))

    def page_ids(self) -> set[int]:
        """Every page the snapshot's runs occupy, their indexes' included."""
        return {
            page
            for _, runs, _ in self.region_states
            for run in runs
            for page in run.page_ids()
        }


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
            snap.freeze()
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
