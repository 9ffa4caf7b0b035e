"""Reorganization policies (paper §5, final paragraph).

When the advisor produces a new physical design, three policies govern when
data actually moves:

* **eager** — "every object with a new design is rewritten immediately";
* **new-data-only** — "reorganize only new data, leaving old data as it
  was"; cheap, but reads stay slow and scans must merge old + new;
* **lazy** — "objects are rewritten in the background or when they are
  accessed"; here: after the rows a compaction would fold in — flushed
  overflow runs and pending inserts, ``Table.overflow_row_count`` — exceed
  a fraction of the table, or after a configurable number of accesses, the
  next touch point triggers the rewrite.

The manager tracks cumulative reorganization I/O so the reorganization
benchmark can compare write amplification against read latency per policy.

Every rewrite routes through :meth:`RodentStore.relayout` /
:meth:`RodentStore.relayout_partition`, which are transactional: the new
representation is rendered copy-on-write and swapped in at commit (WAL-
logged on durable stores), so policies never observe — or leave behind —
a half-reorganized table, even across a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Sequence

from repro.algebra import ast
from repro.algebra.parser import parse
from repro.engine.database import RodentStore
from repro.storage.disk import IOStats


class Policy(Enum):
    EAGER = "eager"
    NEW_DATA_ONLY = "new-data-only"
    LAZY = "lazy"


@dataclass
class _TableState:
    policy: Policy
    pending_design: ast.Node | None = None
    accesses_since_design: int = 0
    source_records: list[tuple] | None = None


@dataclass
class ReorganizationManager:
    """Apply new designs to tables under a chosen policy."""

    store: RodentStore
    lazy_overflow_fraction: float = 0.25
    lazy_access_threshold: int = 8
    _states: dict[str, _TableState] = field(default_factory=dict)
    reorganization_io: IOStats = field(default_factory=IOStats)
    reorganizations: int = 0

    def set_policy(self, table: str, policy: Policy | str) -> None:
        policy = Policy(policy) if isinstance(policy, str) else policy
        state = self._states.get(table)
        if state is None:
            self._states[table] = _TableState(policy=policy)
        else:
            state.policy = policy

    def _state(self, table: str) -> _TableState:
        if table not in self._states:
            self._states[table] = _TableState(policy=Policy.EAGER)
        return self._states[table]

    # -- costing -----------------------------------------------------------

    def estimated_rewrite_ms(self, table: str, new_storage_pages: int) -> float:
        """Predicted one-time cost of rewriting ``table`` into a design of
        ``new_storage_pages`` pages: one sequential pass over the current
        representation (every run of every region) and one
        sequential write of the new one. The adaptive controller charges
        this against a recommendation's predicted benefit before any data
        moves — a cheap design switch that saves little must not thrash.
        """
        read_pages = self.store.catalog.entry(table).total_pages()
        return self.store.cost_model.cost_ms(
            read_pages + max(1, new_storage_pages), 2
        )

    def estimated_region_rewrite_ms(
        self, regions: Sequence[Any], new_storage_pages: int
    ) -> float:
        """Predicted cost of rewriting just these partition regions: one
        pass over their pages plus a region-scaled share of the new
        design's footprint. This is the number that makes partition-scoped
        adaptation cheap — a hot 10% of the table amortizes ~10x faster
        than a whole-table rewrite."""
        read_pages = sum(r.total_pages() for r in regions)
        write_pages = max(1, min(new_storage_pages, read_pages or 1))
        return self.store.cost_model.cost_ms(read_pages + write_pages, 2)

    # -- design changes ---------------------------------------------------

    def apply_design(
        self,
        table: str,
        expression: ast.Node | str,
        source_records: Sequence[Sequence[Any]] | None = None,
    ) -> None:
        """Install a new physical design under the table's policy."""
        state = self._state(table)
        expr = (
            expression if isinstance(expression, ast.Node) else parse(expression)
        )
        state.source_records = (
            [tuple(r) for r in source_records] if source_records else None
        )
        if state.policy == Policy.EAGER:
            self._rewrite(table, expr, state)
            state.pending_design = None
            return
        # Both deferred policies install the plan for *future* data by
        # recording it; new-data-only never rewrites old data.
        state.pending_design = expr
        state.accesses_since_design = 0

    def _rewrite(self, table: str, expr: ast.Node, state: _TableState) -> None:
        before = self.store.disk.stats.snapshot()
        self.store.relayout(table, expr, source_records=state.source_records)
        delta = self.store.disk.stats.delta(before)
        self.reorganization_io.page_reads += delta.page_reads
        self.reorganization_io.page_writes += delta.page_writes
        self.reorganization_io.read_seeks += delta.read_seeks
        self.reorganization_io.write_seeks += delta.write_seeks
        self.reorganizations += 1

    def rewrite_partition(
        self, table: str, pid: int, expr: ast.Node | str
    ) -> None:
        """Rewrite one partition region under a new design (always eager —
        the rewrite touches only that region's pages, so the deferred
        policies' motivation does not apply), tracked in the same
        reorganization I/O counters as whole-table rewrites."""
        node = expr if isinstance(expr, ast.Node) else parse(expr)
        before = self.store.disk.stats.snapshot()
        self.store.relayout_partition(table, pid, node)
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
        state = self._state(table)
        if state.pending_design is None:
            return False
        state.accesses_since_design += 1
        if state.policy == Policy.NEW_DATA_ONLY:
            return False
        if state.policy == Policy.LAZY and self._lazy_due(table, state):
            self._rewrite(table, state.pending_design, state)
            state.pending_design = None
            return True
        return False

    def _lazy_due(self, table: str, state: _TableState) -> bool:
        if state.accesses_since_design >= self.lazy_access_threshold:
            return True
        t = self.store.table(table)
        total = max(1, t.row_count)
        return (t.overflow_row_count / total) >= self.lazy_overflow_fraction

    def step_background(self, table: str) -> bool:
        """Background rewrite opportunity (the lazy policy's other half)."""
        state = self._state(table)
        if state.policy == Policy.LAZY and state.pending_design is not None:
            self._rewrite(table, state.pending_design, state)
            state.pending_design = None
            return True
        return False

    def pending(self, table: str) -> ast.Node | None:
        return self._state(table).pending_design
