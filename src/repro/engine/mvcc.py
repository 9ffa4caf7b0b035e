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

Readers share: a pin hands out one frozen view per table state, built by
the first pin after a change and reused by every later one until the next
(RapidStore's readers likewise pin a version without copying it). Every
change to the entry is made under ``EntryMVCC.lock``, and releasing that
lock drops the shared view, so the next pin captures what the writer left.

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

    A reader's snapshot :meth:`freeze`\\ s its regions and is shared by
    every pin of that state; a transaction's :meth:`restore`\\ s them, and
    the entry, on abort (it keeps its own copy).
    """

    __slots__ = (*ENTRY_FIELDS, "region_states", "version")

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


class _WriteLock:
    """The entry's lock as writers take it (reentrant): its release drops
    the shared reader view, so no pin after a write reads the state before
    it."""

    __slots__ = ("_mvcc",)

    def __init__(self, mvcc: "EntryMVCC"):
        self._mvcc = mvcc

    def __enter__(self) -> "_WriteLock":
        self._mvcc._lock.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self._mvcc._view = None
        self._mvcc._lock.release()


class EntryMVCC:
    """Version counter, pin registry, shared reader view and deferred-free
    list for one entry."""

    def __init__(self):
        self._lock = threading.RLock()
        self.lock = _WriteLock(self)
        self.version = 0
        # version -> number of in-flight scans pinned at that version.
        self.pins: dict[int, int] = {}
        # (retired_at_version, free_fn): runs when no pin <= version remains.
        self.garbage: list[tuple[int, Callable[[], None]]] = []
        # The frozen view of the current state every pin shares (None:
        # the next pin builds it).
        self._view: TableSnapshot | None = None

    # -- snapshots --------------------------------------------------------

    def pin(self, entry: "CatalogEntry", reader: bool = True) -> TableSnapshot:
        """The frozen view of ``entry``'s current state, registered as an
        active reader (released by :meth:`release`, once) unless ``reader``
        is false: a planner deciding a scan that pins it later. A view
        serves every pin until the next write; a catalog load that replaced
        the plan or the regions is a new state too."""
        with self._lock:
            view = self._view
            if (
                view is None
                or view.version != self.version
                or view.plan is not entry.plan
                or len(view.regions) != len(entry.regions)
            ):
                view = self._view = TableSnapshot(entry, self.version)
                view.freeze()
            if reader:
                self.pins[view.version] = self.pins.get(view.version, 0) + 1
            return view

    def release(self, snap: TableSnapshot) -> None:
        """Drop one pin of ``snap`` and free any garbage it was holding."""
        with self._lock:
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
        with self._lock:
            return sum(self.pins.values())
