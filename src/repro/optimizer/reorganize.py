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

The three are one action and a schedule. Eager re-lays the table out now
(:meth:`RodentStore.relayout`, the one path for a design that changes the
table's shape, or drops fields given ``source_records``). The deferred
policies make the design every region's (:func:`repro.engine.levels.redesign`):
later flushes seal under it, old runs keep theirs — for good under
new-data-only, until the lazy rewrite fires under lazy. The design lives in
the catalog, so it survives a reopen; the policy is per-process.

A partition's re-layout touches only that partition, and a levelled
table's is the merge of its runs, so both are always eager. Every rewrite
charges its I/O to the reorganization counters the benchmarks compare
policies by. Every action is one transaction, swapped in at commit
(WAL-logged on durable stores), so policies never observe — or leave
behind — a half-reorganized table, even across a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Sequence

from repro.algebra import ast
from repro.algebra.parser import parse
from repro.algebra.physical import LAYOUT_LEVELLED, LAYOUT_PARTITIONED
from repro.engine.catalog import Region
from repro.engine.database import RodentStore
from repro.engine.levels import redesign
from repro.errors import StorageError
from repro.storage.disk import IOStats


class Policy(Enum):
    EAGER = "eager"
    NEW_DATA_ONLY = "new-data-only"
    LAZY = "lazy"


@dataclass
class _TableState:
    policy: Policy
    #: Accesses since a deferred design; ``None``: none due (O(1) check).
    accesses: int | None = None


@dataclass
class ReorganizationManager:
    """Apply new designs to tables under a chosen policy."""

    store: RodentStore
    _states: dict[str, _TableState] = field(default_factory=dict)
    reorganization_io: IOStats = field(default_factory=IOStats)
    reorganizations: int = 0
    #: The lazy rewrite fires once the rows a compaction would fold in
    #: reach this fraction of the table...
    lazy_overflow_fraction = 0.25
    #: ...or after this many accesses since the design was recorded.
    lazy_access_threshold = 8

    def set_policy(self, table: str, policy: Policy | str) -> None:
        policy = Policy(policy) if isinstance(policy, str) else policy
        # The first access looks for a deferred design (a reopen kept it).
        self._states[table] = _TableState(policy, accesses=0)

    def _state(self, table: str) -> _TableState:
        if table not in self._states:
            self._states[table] = _TableState(policy=Policy.EAGER)
        return self._states[table]

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
        """Install a new physical design under the table's policy: eager
        re-lays the table out (from ``source_records`` when given); the
        deferred policies :func:`redesign` it, which raises unless the
        design passes :meth:`RodentStore.region_plan`."""
        state = self._state(table)
        expr = (
            expression if isinstance(expression, ast.Node) else parse(expression)
        )
        if state.policy == Policy.EAGER:
            self._rewrite(
                self.store.relayout, table, expr, source_records=source_records
            )
            return
        if source_records is not None:
            raise StorageError("source_records need the eager policy")
        redesign(self.store.table(table), expr)
        state.accesses = 0

    def reorganize(
        self, table: str, expr: ast.Node | None, regions: Sequence[Region]
    ) -> Policy:
        """Apply the design the adaptive controller chose for ``regions``
        of ``table``, by the table's shape, and return the policy it ran
        under:

        * a flat table: :meth:`apply_design` under the table's policy;
        * a partitioned table: one :meth:`RodentStore.relayout_partition`
          per region, eager;
        * a levelled table: one full :meth:`RodentStore.compact_levels`
          that merges every run into one under ``expr`` (``None`` keeps
          the run design), eager.
        """
        kind = self.store.catalog.entry(table).plan.kind
        if kind == LAYOUT_PARTITIONED:
            for region in regions:
                self._rewrite(
                    self.store.relayout_partition, table, region.pid, expr
                )
        elif kind == LAYOUT_LEVELLED:
            self._rewrite(
                self.store.compact_levels, table, inner=expr, full=True
            )
        else:
            self.apply_design(table, expr)
            return self._state(table).policy
        return Policy.EAGER

    def _rewrite(self, action, table: str, *args, **kwargs) -> None:
        """Run one rewrite of ``table`` and charge its I/O to the
        reorganization counters."""
        before = self.store.disk.stats.snapshot()
        action(table, *args, **kwargs)
        delta = self.store.disk.stats.delta(before)
        self.reorganization_io.page_reads += delta.page_reads
        self.reorganization_io.page_writes += delta.page_writes
        self.reorganization_io.read_seeks += delta.read_seeks
        self.reorganization_io.write_seeks += delta.write_seeks
        self.reorganizations += 1

    # -- access hook ---------------------------------------------------------

    def on_access(self, table: str) -> bool:
        """Notify the manager that ``table`` is being read.

        Under the lazy policy this may trigger the deferred rewrite; returns
        True when a reorganization happened.
        """
        state = self._states.get(table)
        lazy = state is not None and state.policy is Policy.LAZY
        if not lazy or state.accesses is None:
            return False
        design = self.pending(table)
        if design is None:
            state.accesses = None  # nothing deferred (any more)
            return False
        state.accesses += 1
        if not self._lazy_due(table, state):
            return False
        self._rewrite(self.store.relayout, table, design)
        state.accesses = None
        return True

    def _lazy_due(self, table: str, state: _TableState) -> bool:
        if state.accesses >= self.lazy_access_threshold:
            return True
        t = self.store.table(table)
        total = max(1, t.row_count)
        return (t.unmerged_row_count / total) >= self.lazy_overflow_fraction

    def pending(self, table: str) -> ast.Node | None:
        """The design of ``table`` while some run is off its region's
        design — one a deferred policy installed and no rewrite has
        applied to the old runs yet — else ``None``."""
        entry = self.store.catalog.entry(table)
        if any(region.off_design() for region in entry.regions):
            return entry.plan.expr
        return None
