"""Catalog: logical schemas, physical plans, and stored layouts per table."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.algebra.physical import PhysicalPlan
from repro.engine.mvcc import EntryMVCC
from repro.errors import CatalogError
from repro.types.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.stats import TableStats
    from repro.engine.synopsis import ZoneTable
    from repro.layout.renderer import StoredLayout
    from repro.optimizer.monitor import WorkloadMonitor


@dataclass
class PartitionRegion:
    """One horizontal partition: an independently rendered region.

    A partitioned table is a sequence of these — each with its own physical
    plan (initially the table's per-partition template, free to diverge
    through single-partition re-layouts), stored layout with zone synopses,
    overflow regions, and pending insert buffer. ``key`` identifies the
    partition (distinct value, range bucket index, or hash bucket);
    ``lower``/``upper`` are the range bounds partition pruning intersects
    with predicate ranges (``None`` = unbounded).
    """

    pid: int
    key: object = None
    lower: float | None = None
    upper: float | None = None
    plan: PhysicalPlan | None = None
    layout: "StoredLayout | None" = None
    overflow: list = field(default_factory=list)
    pending: list = field(default_factory=list)
    pending_zone: "ZoneTable | None" = None

    @property
    def row_count(self) -> int:
        count = self.layout.row_count if self.layout is not None else 0
        count += sum(o.row_count for o in self.overflow)
        count += len(self.pending)
        return count

    def total_pages(self) -> int:
        pages = self.layout.total_pages() if self.layout is not None else 0
        pages += sum(o.total_pages() for o in self.overflow)
        return pages

    def describe_key(self) -> str:
        if self.lower is not None or self.upper is not None:
            lo = "-inf" if self.lower is None else f"{self.lower:g}"
            hi = "+inf" if self.upper is None else f"{self.upper:g}"
            return f"[{lo}, {hi})"
        return repr(self.key)


@dataclass
class LevelRun:
    """One immutable sorted-run of a levelled (LSM) table.

    A run is an independently rendered region of the table's ``inner``
    design: rendered once when the pending buffer seals (level 0) or when
    a level merges (level > 0), never modified afterwards. ``min_seq`` /
    ``max_seq`` are the creation-sequence range the run covers — scans
    resolve runs newest-first by ``max_seq``, and a tombstone with
    sequence ``s`` suppresses matching rows in runs with ``max_seq < s``.
    """

    rid: int
    level: int
    min_seq: int
    max_seq: int
    plan: PhysicalPlan | None = None
    layout: "StoredLayout | None" = None

    @property
    def row_count(self) -> int:
        return self.layout.row_count if self.layout is not None else 0

    def total_pages(self) -> int:
        return self.layout.total_pages() if self.layout is not None else 0


@dataclass
class CatalogEntry:
    """Everything the engine knows about one table."""

    name: str
    logical_schema: Schema
    plan: PhysicalPlan | None = None
    layout: "StoredLayout | None" = None
    stats: "TableStats | None" = None
    # Row-major overflow regions holding data inserted after the last
    # (re)organization — the paper's "reorganize only new data" state.
    overflow: list = field(default_factory=list)
    # Secondary access paths: field name -> FieldIndex, and
    # (x_field, y_field) -> SpatialIndex.
    indexes: dict = field(default_factory=dict)
    spatial_indexes: dict = field(default_factory=dict)
    # Not-yet-flushed inserted records (stored-record shape) with an
    # incrementally maintained zone map. Kept on the catalog entry — not on
    # Table handles — so every handle sees the same pending rows and a
    # re-layout can fold them into the new representation.
    pending: list = field(default_factory=list)
    pending_zone: "ZoneTable | None" = None
    # Live workload observations feeding the adaptive loop (lazily created
    # by the AdaptiveController the first time the table is scanned).
    monitor: "WorkloadMonitor | None" = None
    # Horizontal partitions of a partitioned table (plan.kind ==
    # LAYOUT_PARTITIONED); each region owns its own plan/layout/overflow/
    # pending. Range-partitioned regions are kept sorted by bucket so the
    # table scans in ascending key order.
    partitions: "list[PartitionRegion]" = field(default_factory=list)
    # True once a partitioned table has been bulk-loaded (an empty load
    # may legitimately create zero value-partitions).
    partitions_loaded: bool = False
    # Monotonic partition-id allocator for this table.
    next_partition_id: int = 0
    # Cumulative partition-pruning counters (exposed by storage_stats).
    partition_scans: int = 0
    partitions_pruned_total: int = 0
    # Immutable runs of a levelled table (plan.kind == LAYOUT_LEVELLED),
    # kept sorted by max_seq ascending (oldest first); scans walk them in
    # reverse. ``level_tombstones`` are (seq, value) pairs — value is the
    # merge key for keyed tables, the full stored row otherwise — each
    # suppressing matching rows in runs older than its seq.
    runs: "list[LevelRun]" = field(default_factory=list)
    level_tombstones: list = field(default_factory=list)
    # Monotonic run-id / sequence allocators for this table.
    next_run_id: int = 0
    next_run_seq: int = 0
    # Write-amplification accounting (exposed by storage_stats): logical
    # bytes first rendered for inserted rows vs total bytes rendered
    # including compaction/rewrite passes.
    wa_bytes_ingested: int = 0
    wa_bytes_written: int = 0
    wa_pages_compacted: int = 0
    wa_compactions: int = 0
    # Transient key -> PartitionRegion index for O(1) insert routing;
    # rebuilt lazily whenever it disagrees with ``partitions`` (never
    # persisted).
    region_index: dict = field(default_factory=dict, repr=False)
    # Corrupt units the most recent degraded-read scan skipped (event
    # dicts); surfaced as ``corruption_skipped`` in explain(). Never
    # persisted.
    last_corruption_skipped: list = field(default_factory=list, repr=False)
    # Snapshot machinery: version counter, scan pins, deferred page frees.
    # ``mvcc.lock`` guards every mutation of the layout-bearing fields
    # above (plan/layout/overflow/pending/indexes/partitions).
    mvcc: EntryMVCC = field(default_factory=EntryMVCC, repr=False)


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

    def schemas(self) -> dict[str, Schema]:
        """Logical schemas keyed by table name (the interpreter's input)."""
        return {name: e.logical_schema for name, e in self._entries.items()}

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __iter__(self) -> Iterator[CatalogEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)
