"""Catalog: logical schemas, physical plans, and stored layouts per table."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from repro import vector
from repro.algebra.physical import PhysicalPlan
from repro.engine.mvcc import EntryMVCC
from repro.engine.synopsis import ZoneTable
from repro.errors import CatalogError
from repro.types.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.stats import TableStats
    from repro.layout.renderer import StoredLayout
    from repro.optimizer.monitor import WorkloadMonitor


@dataclass
class Run:
    """One immutable rendered unit: a layout and the plan it was rendered
    under — its design. Rendered once, by a bulk load, a seal or a merge
    (:mod:`repro.engine.levels`), and never modified afterwards.

    ``rid`` and the creation-sequence range ``min_seq``/``max_seq`` order
    the runs of a region: a levelled one is resolved newest-first by
    ``max_seq``, and a tombstone with sequence ``s`` suppresses matching
    rows in runs with ``max_seq < s``. ``level`` is a levelled run's size
    class.

    ``indexes`` are the run's secondary indexes (:mod:`repro.engine.indexes`),
    keyed by the fields each covers: derived from its pages, never logged
    or persisted, and retired with it. The dict is replaced, never changed
    in place.
    """

    plan: PhysicalPlan
    layout: "StoredLayout"
    rid: int = 0
    level: int = 0
    min_seq: int = 0
    max_seq: int = 0
    indexes: dict = field(default_factory=dict)

    @property
    def row_count(self) -> int:
        return self.layout.row_count

    def total_pages(self) -> int:
        return self.layout.total_pages()

    def page_ids(self) -> list[int]:
        """Every page the run holds: its layout's and its indexes'."""
        pages = self.layout.page_ids()
        for index in self.indexes.values():
            pages += index.tree.page_ids()
        return pages


class PendingBuffer:
    """A region's inserted rows not yet sealed, held as columns: one
    append-only vector per stored field (:func:`repro.vector.extend`: an
    ``array`` where every value fits a typecode, else a list) and the
    number of rows.

    Positions below ``len`` never change. An insert appends in place; every
    other change — a seal or merge, a delete's filter, a re-layout's
    reorder, an abort — installs a new buffer. So a :meth:`view` (the same
    vectors, the count it was taken at) is a snapshot, and :meth:`columns`
    reads one: a C-level slice per field (an ``ndarray`` under numpy),
    which later appends never reach. :meth:`rows` is the tuple view of the
    rare paths (keyed resolution, updates and deletes, the catalog image);
    iterating and ``==`` go through it, as on a list of rows.
    """

    __slots__ = ("vectors", "count")

    def __init__(self, vectors: Sequence = (), count: int = 0):
        self.vectors = list(vectors)
        self.count = count

    def append(self, columns: Sequence[Sequence]) -> None:
        """Append rows given as ``columns``, one value sequence per field."""
        if not columns or not len(columns[0]):
            return
        olds = self.vectors or [None] * len(columns)
        self.vectors = [vector.extend(v, c) for v, c in zip(olds, columns)]
        self.count += len(columns[0])

    def view(self, count: int) -> "PendingBuffer":
        """The first ``count`` rows, sharing the vectors: later appends
        never reach them."""
        return PendingBuffer(self.vectors, count)

    def prefix(self, count: int) -> "PendingBuffer":
        """The first ``count`` rows in vectors of their own."""
        return PendingBuffer([v[:count] for v in self.vectors], count)

    def columns(self) -> list:
        """One vector per field, independent of the buffer."""
        return [vector.head(v, self.count) for v in self.vectors]

    def rows(self) -> list[tuple]:
        return list(zip(*(vector.to_list(v[: self.count]) for v in self.vectors)))

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (PendingBuffer, list, tuple)):
            return NotImplemented
        return self.rows() == list(other)

    def __repr__(self) -> str:
        return f"PendingBuffer({self.rows()!r})"


@dataclass
class Region:
    """A list of runs plus the not-yet-rendered inserts that trail them.

    Every table is a list of these, shaped by two parameters of its plan:
    a router — one region, or ``partition[...]``'s regions routed by key
    (``lower``/``upper`` are the range bounds partition pruning intersects
    with predicate ranges, ``None`` = unbounded) — and a level policy:
    unbounded fan-in (flat), or ``levels[...]``, whose regions are read
    newest-first. Runs are kept sorted by ``max_seq`` and change only by a
    seal (the pending rows out, one run in) or a merge (runs out, one run
    in). ``plan`` is the region's design, which every seal and merge
    renders under: the table plan of a flat table, else the plan's region
    template (a partition's free to diverge through single-partition
    re-layouts). A run keeps the design it was rendered under, so a region
    whose design changed without a rewrite (the new-data-only and lazy
    policies of §5) holds runs off it until the next merge.

    ``level_tombstones`` are the (seq, value) deletes and updates of the
    region — value is the merge key under a keyed level policy, the full
    stored row otherwise — each suppressing matching rows in this region's
    runs older than its seq, until a merge folds it in. The list is
    replaced, never changed in place.

    ``pending`` holds inserted records (stored-record shape) as columns
    (:class:`PendingBuffer`), with an incrementally maintained zone map.
    It lives here — not on Table handles — so every handle sees the same
    rows and a re-layout can fold them into the new representation.

    ``hidden`` counts the run rows tombstones suppress, so ``row_count``
    (runs + pending − hidden) is what a scan returns — an upper bound
    under a keyed level policy, whose shadowed versions are known only
    when a merge drops them.
    """

    plan: PhysicalPlan | None = None
    runs: list = field(default_factory=list)
    pending: PendingBuffer = field(default_factory=PendingBuffer)
    pending_zone: "ZoneTable | None" = None
    pid: int = 0
    key: object = None
    lower: float | None = None
    upper: float | None = None
    level_tombstones: list = field(default_factory=list)
    hidden: int = 0

    @property
    def main(self) -> "Run | None":
        """The region's first run (``None`` before any)."""
        return self.runs[0] if self.runs else None

    @property
    def row_count(self) -> int:
        runs = sum(r.row_count for r in self.runs)
        return runs + len(self.pending) - self.hidden

    def total_pages(self) -> int:
        return sum(r.total_pages() for r in self.runs)

    def off_design(self) -> bool:
        """Does a run keep a design other than the region's?"""
        return any(run.plan.expr != self.plan.expr for run in self.runs)

    def merged(self) -> bool:
        """Is the region what a full merge leaves — at most one run, on
        its design, with nothing pending or tombstoned?"""
        return not (
            self.pending or len(self.runs) > 1 or self.off_design()
            or self.level_tombstones
        )

    def add_pending(self, names: Sequence[str], rows: Sequence[tuple]) -> None:
        """Buffer ``rows``, transposed once (:meth:`add_columns`)."""
        self.add_columns(names, list(zip(*rows)))

    def add_columns(self, names: Sequence[str], columns: Sequence) -> None:
        """Buffer rows given as ``columns`` (one value sequence per field):
        they append to the buffer and fold into the running zone (no
        rescan)."""
        self.pending.append(columns)
        if self.pending_zone is None:
            self.pending_zone = ZoneTable()
        self.pending_zone.merge(len(columns[0]) if columns else 0, names, columns)

    def clear_pending(self) -> None:
        self.pending = PendingBuffer()
        self.pending_zone = None

    def describe_key(self) -> str:
        if self.lower is not None or self.upper is not None:
            lo = "-inf" if self.lower is None else f"{self.lower:g}"
            hi = "+inf" if self.upper is None else f"{self.upper:g}"
            return f"[{lo}, {hi})"
        return repr(self.key)


@dataclass
class CatalogEntry:
    """Everything the engine knows about one table: its plan, and its data
    as a list of :class:`Region` the plan's router and level policy shape."""

    name: str
    logical_schema: Schema
    plan: PhysicalPlan | None = None
    stats: "TableStats | None" = None
    # The table's data: see :class:`Region`. Range-partitioned regions are
    # kept sorted by bucket so the table scans in ascending key order.
    regions: "list[Region]" = field(default_factory=list)
    # True once the table is scannable: after a bulk load (an empty load
    # may legitimately create zero value-partitions), and from birth for a
    # levelled table, whose first seal renders run 0.
    loaded: bool = False
    # Declared secondary indexes, by the fields each covers: (field,) for
    # a B+Tree, (x, y) for an R-Tree. Every rows run holds one of each
    # (``Run.indexes``); like them, never persisted.
    indexes: tuple = ()
    # Live workload observations feeding the adaptive loop (lazily created
    # by the AdaptiveController the first time the table is scanned).
    monitor: "WorkloadMonitor | None" = None
    # The reorganization policy a new design reaches old runs under (a
    # :class:`~repro.optimizer.reorganize.Policy` value).
    policy: str = "eager"
    # Reads since a deferred design, the lazy policy's access count
    # (:meth:`~repro.optimizer.reorganize.ReorganizationManager.on_access`);
    # ``None``: none due, an O(1) check. A fresh entry's first read looks
    # for one: a reopen keeps a deferred design, and the policy. Never
    # persisted.
    lazy_accesses: int | None = 0
    # Monotonic partition-id allocator for this table.
    next_partition_id: int = 0
    # Cumulative partition-pruning counters (exposed by storage_stats).
    partition_scans: int = 0
    partitions_pruned_total: int = 0
    # Monotonic run-id / sequence allocators for this table: runs are only
    # compared within a region, so one table-wide counter orders them all.
    next_run_id: int = 0
    next_run_seq: int = 0
    # Write-amplification accounting (exposed by storage_stats): logical
    # bytes first rendered for inserted rows vs total bytes rendered
    # including compaction/rewrite passes.
    wa_bytes_ingested: int = 0
    wa_bytes_written: int = 0
    wa_pages_compacted: int = 0
    wa_compactions: int = 0
    # Transient key -> Region index for O(1) insert routing; rebuilt lazily
    # whenever it disagrees with ``regions`` (never persisted).
    region_index: dict = field(default_factory=dict, repr=False)
    # Corrupt units the most recent degraded-read scan skipped (event
    # dicts); surfaced as ``corruption_skipped`` in explain(). Never
    # persisted.
    last_corruption_skipped: list = field(default_factory=list, repr=False)
    # Snapshot machinery: version counter, scan pins, deferred page frees.
    # ``mvcc.lock`` guards every mutation of the layout-bearing fields
    # above (plan/regions/indexes).
    mvcc: EntryMVCC = field(default_factory=EntryMVCC, repr=False)

    def runs(self) -> "Iterator[Run]":
        """Every run of every region — what the metadata walkers (page
        counts, scrub, drop, cold-cache resets) iterate."""
        return (run for region in self.regions for run in region.runs)

    def total_pages(self) -> int:
        return sum(run.total_pages() for run in self.runs())


class Catalog:
    """Name -> :class:`CatalogEntry` mapping with schema lookups."""

    def __init__(self):
        self._entries: dict[str, CatalogEntry] = {}

    def create(self, name: str, schema: Schema) -> CatalogEntry:
        if name in self._entries:
            raise CatalogError(f"table {name!r} already exists")
        entry = CatalogEntry(name=name, logical_schema=schema)
        self._entries[name] = entry
        return entry

    def drop(self, name: str) -> None:
        if name not in self._entries:
            raise CatalogError(f"unknown table {name!r}")
        del self._entries[name]

    def entry(self, name: str) -> CatalogEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._entries

    def get(self, name: str) -> CatalogEntry | None:
        return self._entries.get(name)

    def put_back(self, name: str, entry: CatalogEntry | None) -> None:
        """Undo a create (``entry`` is ``None``) or a drop of ``name``."""
        if entry is None:
            self._entries.pop(name, None)
        else:
            self._entries[name] = entry

    def schemas(self) -> dict[str, Schema]:
        """Logical schemas keyed by table name (the interpreter's input)."""
        return {name: e.logical_schema for name, e in self._entries.items()}

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __iter__(self) -> Iterator[CatalogEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)
