"""Reorganization policies (paper §5, final paragraph).

When the advisor produces a new physical design, three policies govern when
data actually moves:

* **eager** — "every object with a new design is rewritten immediately";
* **new-data-only** — "reorganize only new data, leaving old data as it
  was"; cheap, but reads stay slow and scans must merge old + new;
* **lazy** — "objects are rewritten in the background or when they are
  accessed"; here: after the rows a compaction would fold in — every run
  after a region's first and the pending rows,
  ``Table.unmerged_row_count`` — exceed a fraction of the table, or after a
  configurable number of accesses, the next touch point triggers the
  rewrite.

The three are one action and a schedule, for every table shape. The action
gives some regions — a flat table's one, some partitions, a levelled
table's runs — the new design (:func:`repro.engine.levels.redesign`): later
flushes seal under it. The schedule decides when the old runs merge into it
(:func:`repro.engine.levels.merge_regions`): eager now, lazy when due,
new-data-only never — though a levelled table's own cascade still merges
old runs under the design it has then, as an LSM does. Only a design that
changes the table's shape, or drops fields given ``source_records``, takes
the eager whole-table reload, :meth:`RodentStore.relayout`. The design and
the policy live in the catalog, so both survive a reopen.

Every rewrite charges its I/O to the reorganization counters the benchmarks
compare policies by, one reorganization per region it rewrites. A redesign
is one transaction and a merge one per region, each swapped in at commit
(WAL-logged on durable stores): a crash between two merges leaves some
regions merged onto the new design and the rest holding runs off it — the
state a lazy policy leaves — never a half-rewritten region.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Sequence

from repro.algebra import ast
from repro.algebra.parser import parse
from repro.engine.catalog import Region
from repro.engine.database import RodentStore
from repro.engine.levels import merge_regions, redesign
from repro.errors import StorageError


class Policy(Enum):
    EAGER = "eager"
    NEW_DATA_ONLY = "new-data-only"
    LAZY = "lazy"


@dataclass
class ReorganizationManager:
    """Apply new designs to tables under their policies."""

    store: RodentStore
    #: The lazy rewrite fires once the rows a compaction would fold in
    #: reach this fraction of the table...
    lazy_unmerged_fraction = 0.25
    #: ...or after this many accesses since the design was recorded.
    lazy_access_threshold = 8

    def set_policy(self, table: str, policy: Policy | str) -> None:
        """Record ``table``'s policy in its catalog entry (one transaction,
        so it survives a reopen)."""
        with self.store.mutate(table) as m:
            entry = self.store.catalog.entry(table)
            entry.policy = Policy(policy).value
            m.touch(table)
            entry.lazy_accesses = 0

    def policy(self, table: str) -> Policy:
        return Policy(self.store.catalog.entry(table).policy)

    # -- costing -----------------------------------------------------------

    def estimated_rewrite_ms(
        self,
        table: str,
        new_storage_pages: int,
        regions: Sequence[Region] | None = None,
    ) -> float:
        """Predicted one-time cost of rewriting ``regions`` of ``table``
        (default: every region) into a design of ``new_storage_pages``
        pages for the whole table: one sequential pass over the regions'
        current runs and one sequential write of their share of the new
        design. The adaptive controller charges this against a
        recommendation's predicted benefit before any data moves — a cheap
        design switch that saves little must not thrash — and charging
        only the regions a rewrite reads is what makes partition-scoped
        adaptation cheap: a hot 10% of the table amortizes ~10x faster than
        a whole-table rewrite.
        """
        entry = self.store.catalog.entry(table)
        total = entry.total_pages()
        if regions is None:
            regions = entry.regions
        read_pages = sum(r.total_pages() for r in regions)
        share = read_pages / total if total else 1.0
        write_pages = max(1, new_storage_pages * share)
        return self.store.cost_model.cost_ms(read_pages + write_pages, 2)

    # -- design changes ---------------------------------------------------

    def apply_design(
        self,
        table: str,
        expression: ast.Node | str,
        source_records: Sequence[Sequence[Any]] | None = None,
    ) -> None:
        """Install a new physical design under the table's policy. A design
        of the table's regions (:meth:`RodentStore.region_plan`) is one
        :meth:`reorganize` of every region; any other — one that changes
        the table's shape, or drops fields given ``source_records`` —
        re-lays the table out eagerly, and raises under a deferred
        policy."""
        expr = (
            expression if isinstance(expression, ast.Node) else parse(expression)
        )
        if source_records is None and self._is_region_design(table, expr):
            regions = self.store.catalog.entry(table).regions
            self.reorganize(table, expr, regions)
        elif self.policy(table) is Policy.EAGER:
            self._rewrite(1, self.store.relayout, table, expr, source_records)
        else:
            raise StorageError(
                "a design that changes the table's shape or drops fields "
                "needs the eager policy"
            )

    def _is_region_design(self, table: str, expr: ast.Node) -> bool:
        try:
            self.store.region_plan(table, expr)
        except StorageError:
            return False
        return True

    def reorganize(
        self, table: str, expr: ast.Node | None, regions: Sequence[Region]
    ) -> bool:
        """Give ``regions`` of ``table`` the design ``expr`` and schedule
        their merge by the table's policy, whatever its shape: eager merges
        them now, lazy once :meth:`on_access` finds it due, new-data-only
        never. ``expr`` ``None`` keeps their designs: a merge of runs,
        which runs now under every policy. Returns whether the regions
        merged now."""
        if expr is None or self.policy(table) is Policy.EAGER:
            t = self.store.table(table)
            self._rewrite(len(regions), merge_regions, t, regions, expr)
            return True
        redesign(self.store.table(table), expr, regions)
        self.store.catalog.entry(table).lazy_accesses = 0
        return False

    def _rewrite(self, count: int, action, *args) -> None:
        """Run one rewrite of ``count`` regions and charge its I/O to the
        store's ``adaptivity.reorganizations`` and ``reorganization_io.*``
        counters."""
        with self.store.disk.measure() as io:
            action(*args)
        obs = self.store.obs
        obs.add("reorganization_io.page_reads", io.page_reads)
        obs.add("reorganization_io.page_writes", io.page_writes)
        obs.add("adaptivity.reorganizations", count)

    # -- access hook ---------------------------------------------------------

    def on_access(self, table: str) -> bool:
        """Notify the manager that ``table`` is being read.

        Under the lazy policy this may trigger the deferred merge of every
        region whose old runs are off its design; returns True when a
        reorganization happened.
        """
        entry = self.store.catalog.entry(table)
        accesses = entry.lazy_accesses
        if accesses is None:
            return False
        regions = self._off_design(table)
        if not regions or self.policy(table) is not Policy.LAZY:
            entry.lazy_accesses = None  # nothing deferred, or not lazy
            return False
        entry.lazy_accesses = accesses + 1
        if not self._lazy_due(table, accesses + 1):
            return False
        t = self.store.table(table)
        self._rewrite(len(regions), merge_regions, t, regions)
        entry.lazy_accesses = None
        return True

    def _lazy_due(self, table: str, accesses: int) -> bool:
        if accesses >= self.lazy_access_threshold:
            return True
        t = self.store.table(table)
        total = max(1, t.estimated_row_count())
        return (t.unmerged_row_count / total) >= self.lazy_unmerged_fraction

    def _off_design(self, table: str) -> list[Region]:
        """The regions of ``table`` with a run off the region's design."""
        regions = self.store.catalog.entry(table).regions
        return [region for region in regions if region.off_design()]

    def pending(self, table: str) -> ast.Node | None:
        """The design old runs of ``table`` wait for — one a deferred
        policy installed that no merge has reached yet (the first such
        region's) — else ``None``."""
        regions = self._off_design(table)
        return regions[0].plan.expr if regions else None
