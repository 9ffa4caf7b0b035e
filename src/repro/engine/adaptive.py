"""The closed adaptive loop: monitor → advise → reorganize (paper §5).

The paper's optimizer "takes as input a relational schema and a workload of
SQL queries and outputs a recommended storage representation"; offline, a
designer feeds it a hand-written :class:`~repro.optimizer.workload.Workload`.
This module closes the loop *online*: every access-method call is observed
by a per-table :class:`~repro.optimizer.monitor.WorkloadMonitor`, and the
:class:`AdaptiveController` periodically (every ``check_interval`` observed
scans, or on :meth:`RodentStore.adapt`) re-runs the advisor against fresh
statistics, compares the incumbent design's predicted cost with the
recommendation under a **hysteresis margin**, charges the one-time
reorganization cost against the amortized benefit, and — when the switch
clearly pays — drives the :class:`ReorganizationManager` under the table's
configured policy (eager / new-data-only / lazy).

Safety properties:

* a re-layout goes through :meth:`RodentStore.relayout` → ``load``, which
  re-renders zone-map synopses for the new layout and clears secondary /
  spatial indexes, so pruning and access-path choice can never consult
  metadata describing the old physical design;
* a re-layout is one transaction (``store.mutate``): it renders the new
  representation copy-on-write, swaps it in atomically at commit, and —
  on a durable store — WAL-logs it, so a crash mid-adaptation rolls back
  to the old design and in-flight scans keep their MVCC snapshot of it;
* **lossy designs are never auto-adopted**: a recommendation that projects
  logical fields away would make future re-layouts (and the next adaptation)
  unable to re-derive the base records, so the controller falls back to the
  best non-lossy alternative;
* internal scans (statistics refresh, record recovery during a rewrite,
  compaction) run with observation *paused* so the loop cannot feed on its
  own maintenance traffic or recurse.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Sequence

from repro import vector
from repro.algebra import ast
from repro.algebra.interpreter import AlgebraInterpreter
from repro.algebra.physical import LAYOUT_LEVELLED, LAYOUT_PARTITIONED
from repro.algebra.rewriter import structurally_equal
from repro.engine.stats import TableStats
from repro.optimizer.monitor import DEFAULT_DECAY, WorkloadMonitor
from repro.optimizer.reorganize import Policy, ReorganizationManager
from repro.optimizer.workload import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.catalog import CatalogEntry
    from repro.engine.database import RodentStore
    from repro.engine.table import Table
    from repro.query.expressions import Predicate


class AdaptiveController:
    """Per-store adaptivity: observe scans, periodically re-advise, reorganize.

    Args:
        store: the owning :class:`RodentStore`.
        enabled: when False (the default), scans are still monitored but
            reorganizations only happen through :meth:`RodentStore.adapt`.
        check_interval: observed scans per table between automatic checks.
        hysteresis: minimum *relative* predicted improvement
            (``benefit > hysteresis * incumbent_ms``) before a switch is
            considered — two designs within the margin never thrash.
        min_observations: observations required before the first check.
        amortization_queries: workload repetitions over which the one-time
            rewrite cost must be recovered by the per-execution benefit.
        strategy: advisor search strategy for online checks.
        decay: per-observation exponential decay of monitor weights.
    """

    def __init__(
        self,
        store: "RodentStore",
        enabled: bool = False,
        check_interval: int = 64,
        hysteresis: float = 0.15,
        min_observations: int = 8,
        amortization_queries: float = 200.0,
        strategy: str = "exhaustive",
        decay: float = DEFAULT_DECAY,
    ):
        self.store = store
        self.enabled = enabled
        self.check_interval = check_interval
        self.hysteresis = hysteresis
        self.min_observations = min_observations
        self.amortization_queries = amortization_queries
        self.strategy = strategy
        self.decay = decay
        self.reorganizer = ReorganizationManager(store)
        self.adaptations = 0
        self.checks = 0
        #: Optional hand-written workloads per table; each check merges the
        #: monitor's observed workload into them with decay (see
        #: :meth:`seed_workload`).
        self.seed_workloads: dict[str, "Workload"] = {}
        #: Last decision per table (what ``adaptivity_report`` surfaces).
        self.decisions: dict[str, dict] = {}
        self._since_check: dict[str, int] = {}
        #: Decayed ingest load per levelled table (rows, bumped by every
        #: insert and decayed by every observed scan): while it is high
        #: the table is write-hot and the levelled check leaves run
        #: fragmentation to the background merge cadence; once reads
        #: dominate, a full compaction becomes eligible.
        self._write_load: dict[str, float] = {}
        self._suspended = 0
        #: Scans currently being iterated. Automatic reorganization frees
        #: the old layout's pages, so it must never fire while another
        #: iterator still reads them — periodic checks and lazy rewrites
        #: wait until no tracked scan is live. (A generator that was
        #: created but never started is not tracked; the window between
        #: creation and first ``next()`` remains the caller's to sequence,
        #: exactly as with an explicit ``relayout()``.)
        self._live_scans = 0

    # -- observation plumbing ----------------------------------------------

    @contextmanager
    def pause(self):
        """Suppress observation/adaptation for internal maintenance scans."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    @property
    def paused(self) -> bool:
        return self._suspended > 0

    def monitor(self, name: str) -> WorkloadMonitor:
        """The table's monitor, created on first access."""
        entry = self.store.catalog.entry(name)
        if entry.monitor is None:
            entry.monitor = WorkloadMonitor(name, decay=self.decay)
        return entry.monitor

    def observe_scan(
        self,
        table: "Table",
        fieldlist: Sequence[str] | None,
        predicate: "Predicate | None",
        order_keys: Sequence[tuple[str, bool]],
    ):
        """Record one access-method call; may trigger a pending/lazy or
        periodic adaptation *before* the scan binds its layout.

        Returns ``(monitor, pattern key)`` for result-cardinality feedback,
        or ``None`` while observation is paused.
        """
        if self._suspended:
            return None
        monitor = self.monitor(table.name)
        key = monitor.observe(fieldlist, predicate, order_keys)
        if table.name in self._write_load:
            self._write_load[table.name] *= self.decay
        # Reorganization swaps the layout and frees its pages: defer both
        # the lazy-policy rewrite and the periodic check while any other
        # scan is mid-iteration (the observing scan itself has not started).
        if self._live_scans == 0:
            if self.reorganizer.pending(table.name) is not None:
                with self.pause():
                    if self.reorganizer.on_access(table.name):
                        self.adaptations += 1  # deferred rewrite fired
            if self.enabled:
                count = self._since_check.get(table.name, 0) + 1
                if (
                    count >= self.check_interval
                    and monitor.ticks >= self.min_observations
                ):
                    self._since_check[table.name] = 0
                    self.check(table.name)
                else:
                    self._since_check[table.name] = count
        return monitor, key

    def track_scan(self, stream):
        """Mark a scan live from first ``next()`` to exhaustion/close.

        Works for batch and row iterators alike; while any tracked scan is
        live, automatic reorganization is deferred (see ``_live_scans``).
        """

        def generate():
            self._live_scans += 1
            try:
                yield from stream
            finally:
                self._live_scans -= 1

        return generate()

    def count_batches(
        self, observation, batches: Iterator[list[tuple]]
    ) -> Iterator[list[tuple]]:
        """Pass batches through, recording the result cardinality.

        Only *fully consumed* scans record: an abandoned iterator's partial
        count would poison the pattern's ``avg_rows`` (which the planner
        falls back to when a table has no statistics). Limited scans are
        excluded upstream for the same reason — ``limit`` is not part of
        the access signature.
        """
        monitor, key = observation

        def generate() -> Iterator[list[tuple]]:
            n = 0
            for batch in batches:
                n += len(batch)
                yield batch
            monitor.record_result(key, n)

        return generate()

    def note_write(self, name: str, rows: int) -> None:
        """Ingest signal from levelled inserts: bump the table's decayed
        write load (scans decay it back down; see ``_write_load``)."""
        if self._suspended:
            return
        self._write_load[name] = (
            self._write_load.get(name, 0.0) * self.decay + float(rows)
        )

    def record_estimate(
        self, name: str, estimated: float, actual: float
    ) -> None:
        """Planner feedback: a scan's estimated vs actual cardinality."""
        if self._suspended:
            return
        self.monitor(name).record_estimate(estimated, actual)

    def observe_partitions(self, name: str, pids: Sequence[int]) -> None:
        """Record which partitions a scan actually read (its survivors
        after partition pruning) — the skew signal behind hot/cold
        per-partition layout decisions."""
        if self._suspended:
            return
        self.monitor(name).observe_partitions(pids)

    # -- policy ------------------------------------------------------------

    def set_policy(self, name: str, policy: Policy | str) -> None:
        """Reorganization policy for ``name`` (eager/new-data-only/lazy)."""
        self.reorganizer.set_policy(name, policy)

    def seed_workload(self, workload: "Workload") -> None:
        """Install a hand-written workload the advisor should respect
        before (and alongside) observed traffic: each check folds the live
        observations into it via :meth:`Workload.merge_decayed`, so the
        seed shapes early decisions and fades as real traffic accumulates.
        """
        self.seed_workloads[workload.table] = workload

    # -- the check: advise, compare, maybe reorganize ----------------------

    def check(self, name: str, force: bool = False) -> dict:
        """Run one adaptation cycle for ``name``; returns the decision.

        ``force`` (what :meth:`RodentStore.adapt` passes) waives the
        minimum-observation gate and the amortization charge — the operator
        asked, so the rewrite cost is accepted — but never the hysteresis
        margin: a design that is not clearly better is not installed.
        """
        from repro.optimizer.advisor import recommend

        self.checks += 1
        entry = self.store.catalog.entry(name)
        decision: dict = {"table": name, "adapted": False}
        self.decisions[name] = decision
        monitor = entry.monitor
        seed = self.seed_workloads.get(name)
        if (monitor is None or not monitor.patterns) and seed is None:
            decision["reason"] = "no observed workload"
            return decision
        if entry.plan is None or not entry.loaded:
            decision["reason"] = "table not loaded"
            return decision
        if (
            not force
            and seed is None
            and monitor.ticks < self.min_observations
        ):
            decision["reason"] = "too few observations"
            return decision

        workload = (
            monitor.to_workload()
            if monitor is not None
            else Workload(name)
        )
        if seed is not None:
            # The hand-written seed fades as observed evidence accumulates:
            # at full strength before any traffic, halved for every 20
            # units of observed decayed weight.
            fade = 0.5 ** (workload.total_weight / 20.0)
            workload = seed.merge_decayed(workload, decay=fade)
        if not workload.queries:
            decision["reason"] = "no live patterns"
            return decision
        partitioned = entry.plan.kind == LAYOUT_PARTITIONED
        levelled = entry.plan.kind == LAYOUT_LEVELLED
        if partitioned:
            incumbent_expr = self._hottest_region_expr(entry)
        elif levelled:
            # The incumbent a levelled check argues against is the run
            # template — the design every future seal/merge renders.
            incumbent_expr = entry.plan.level_plans[0].expr
        else:
            incumbent_expr = entry.plan.expr
        with self.pause():
            stats = self._fresh_stats(entry)
            if stats is None:
                decision["reason"] = "no statistics"
                return decision
            recommendation = recommend(
                entry.logical_schema,
                stats,
                workload,
                self.store.cost_model,
                strategy=self.strategy,
                incumbent=incumbent_expr,
            )

        incumbent_text = incumbent_expr.to_text()
        decision["incumbent"] = incumbent_text
        decision["incumbent_ms"] = recommendation.incumbent_ms
        chosen = self._choose_non_lossy(
            entry, recommendation, region_design=partitioned or levelled
        )
        if chosen is None:
            decision["reason"] = "no non-lossy improvement"
            return decision
        if partitioned:
            return self._check_partitioned(
                entry, decision, chosen, recommendation, workload, force
            )
        if levelled:
            return self._check_levelled(
                entry, decision, chosen, recommendation, workload, force
            )
        expr, predicted_ms, storage_pages = chosen
        decision["recommended"] = expr.to_text()
        decision["predicted_ms"] = round(predicted_ms, 3)

        if decision["recommended"] == incumbent_text:
            decision["reason"] = "incumbent is optimal"
            return decision
        pending = self.reorganizer.pending(name)
        if pending is not None and pending.to_text() == decision["recommended"]:
            # A deferred policy already holds this exact design; re-applying
            # would reset the lazy access counter and fake an adaptation.
            decision["reason"] = "recommendation already pending under policy"
            return decision
        incumbent_ms = recommendation.incumbent_ms
        if incumbent_ms is None:
            decision["reason"] = "incumbent cost unknown"
            return decision
        benefit = incumbent_ms - predicted_ms
        margin = self.hysteresis * incumbent_ms
        if benefit <= margin:
            decision["reason"] = (
                f"within hysteresis margin "
                f"(benefit {benefit:.2f} ms <= {margin:.2f} ms)"
            )
            return decision
        rewrite_ms = self.reorganizer.estimated_rewrite_ms(
            name, storage_pages
        )
        per_execution = benefit / max(1.0, workload.total_weight)
        amortized = per_execution * self.amortization_queries
        decision["rewrite_ms"] = round(rewrite_ms, 3)
        decision["amortized_benefit_ms"] = round(amortized, 3)
        if not force and amortized < rewrite_ms:
            decision["reason"] = (
                f"rewrite cost not amortized "
                f"({amortized:.2f} ms benefit < {rewrite_ms:.2f} ms rewrite)"
            )
            return decision

        if pending is not None:
            # A different design was pending under a deferred policy; it is
            # replaced, and the decision log keeps the trace.
            decision["superseded_pending"] = pending.to_text()
        with self.pause():
            self.reorganizer.apply_design(name, expr)
        self._since_check[name] = 0
        applied = self.reorganizer.pending(name) is None
        if applied:
            # ``adaptations`` counts layouts actually switched; a design
            # merely *recorded* under lazy/new-data-only shows up as
            # ``pending_design`` in the report (and as a reorganization
            # once the deferred rewrite fires).
            self.adaptations += 1
        decision["adapted"] = True
        decision["reason"] = (
            f"predicted {benefit:.2f} ms/workload benefit over incumbent"
        )
        decision["policy"] = self.reorganizer._state(name).policy.value
        decision["applied_immediately"] = applied
        return decision

    # -- partitioned tables: hot/cold per-partition designs ----------------

    #: A partition is "hot" when its decayed access weight reaches this
    #: multiple of the mean partition weight.
    HOT_PARTITION_FACTOR = 1.0

    def _partition_weights(self, entry: "CatalogEntry") -> dict[int, float]:
        if entry.monitor is None:
            return {}
        return entry.monitor.partition_weights()

    def _worst_region_cost(
        self, entry: "CatalogEntry", regions, workload: "Workload"
    ) -> float | None:
        """Predicted workload cost of the costliest of ``regions``' current
        designs (None when statistics cannot price them)."""
        from repro.optimizer.advisor import _cost_of
        from repro.optimizer.cost_model import PlanCostEstimator

        stats = entry.stats
        if stats is None:
            return None
        estimator = PlanCostEstimator(
            stats, self.store.cost_model, self.store.cost_model.page_size
        )
        worst = None
        for region in regions:
            if region.plan is None:
                continue
            try:
                ms = _cost_of(
                    region.plan.expr,
                    entry.logical_schema,
                    estimator,
                    workload,
                )
            except Exception:
                continue
            if ms is not None and (worst is None or ms > worst):
                worst = ms
        return worst

    def _hottest_region_expr(self, entry: "CatalogEntry") -> ast.Node:
        """The incumbent design a partitioned check compares against: the
        most-accessed region's plan (falling back to the template)."""
        weights = self._partition_weights(entry)
        best = None
        for region in entry.regions:
            if region.plan is None:
                continue
            weight = weights.get(region.pid, 0.0)
            if best is None or weight > best[0]:
                best = (weight, region.plan.expr)
        if best is not None:
            return best[1]
        assert entry.plan is not None
        return entry.plan.partition_plans[0].expr

    def _check_partitioned(
        self,
        entry: "CatalogEntry",
        decision: dict,
        chosen: tuple[ast.Node, float, int],
        recommendation,
        workload: "Workload",
        force: bool,
    ) -> dict:
        """Partition-granular adaptation: apply the recommended design to
        the *hot* partitions only, one region at a time.

        Cold partitions keep their current layout — that is the point of
        partition-scoped reorganization: a skewed workload re-optimizes the
        regions it actually touches without rewriting the whole table, and
        hot and cold partitions end up with different physical designs.
        """
        name = entry.name
        expr, predicted_ms, storage_pages = chosen
        decision["recommended"] = expr.to_text()
        decision["predicted_ms"] = round(predicted_ms, 3)
        incumbent_ms = recommendation.incumbent_ms
        if incumbent_ms is None:
            decision["reason"] = "incumbent cost unknown"
            return decision

        weights = self._partition_weights(entry)
        total_weight = sum(weights.values())
        mean = total_weight / max(1, len(entry.regions))
        threshold = self.HOT_PARTITION_FACTOR * mean
        hot = [
            region
            for region in entry.regions
            if total_weight == 0.0
            or weights.get(region.pid, 0.0) >= threshold
        ]
        decision["hot_partitions"] = [r.pid for r in hot]
        decision["partition_weights"] = {
            r.pid: round(weights.get(r.pid, 0.0), 3)
            for r in entry.regions
        }

        stale = [
            region
            for region in hot
            if region.plan is not None
            and not structurally_equal(region.plan.expr, expr)
        ]
        if not stale:
            decision["reason"] = (
                "hot partitions already use the recommended design"
            )
            return decision

        benefit = incumbent_ms - predicted_ms
        margin = self.hysteresis * incumbent_ms
        if benefit <= margin:
            # The hottest region may already run the recommended design
            # while other newly-hot regions lag on an older one; measure
            # the gap from the *worst* stale region instead.
            lag_ms = self._worst_region_cost(entry, stale, workload)
            if lag_ms is not None:
                benefit = max(benefit, lag_ms - predicted_ms)
                margin = self.hysteresis * max(incumbent_ms, lag_ms)
        if benefit <= margin:
            decision["reason"] = (
                f"within hysteresis margin "
                f"(benefit {benefit:.2f} ms <= {margin:.2f} ms)"
            )
            return decision
        rewrite_ms = self.reorganizer.estimated_region_rewrite_ms(
            stale, storage_pages
        )
        per_execution = benefit / max(1.0, workload.total_weight)
        amortized = per_execution * self.amortization_queries
        decision["rewrite_ms"] = round(rewrite_ms, 3)
        decision["amortized_benefit_ms"] = round(amortized, 3)
        if not force and amortized < rewrite_ms:
            decision["reason"] = (
                f"rewrite cost not amortized "
                f"({amortized:.2f} ms benefit < {rewrite_ms:.2f} ms rewrite)"
            )
            return decision

        rewritten = []
        with self.pause():
            for region in stale:
                # One region at a time: each rewrite reads and writes only
                # that partition's pages.
                self.reorganizer.rewrite_partition(name, region.pid, expr)
                rewritten.append(region.pid)
        self._since_check[name] = 0
        self.adaptations += 1
        decision["adapted"] = True
        decision["relayout_partitions"] = rewritten
        decision["kept_partitions"] = [
            r.pid for r in entry.regions if r.pid not in set(rewritten)
        ]
        decision["reason"] = (
            f"re-laid out {len(rewritten)} hot partition(s) to "
            f"{expr.to_text()} (predicted {benefit:.2f} ms/workload benefit)"
        )
        return decision

    # -- levelled tables: run-design re-choice + read-heavy merges ---------

    #: Below this decayed write load (rows) a levelled table counts as
    #: read-mostly: the check may full-compact its runs for scan locality.
    LEVELLED_WRITE_LOAD_FLOOR = 1.0

    def _check_levelled(
        self,
        entry: "CatalogEntry",
        decision: dict,
        chosen: tuple[ast.Node, float, int],
        recommendation,
        workload: "Workload",
        force: bool,
    ) -> dict:
        """Levelled adaptation, two triggers in priority order.

        1. **Run-design re-choice**: when the advisor's non-lossy pick
           beats the run template past hysteresis and the full-compaction
           rewrite amortizes, every run merges into one re-rendered under
           the new design (future seals render it too) — compaction is
           exactly when re-choosing a hot run's layout is free-ish.
        2. **Read-heavy merge**: a fragmented manifest costs one extra
           seek per run per scan. Once the decayed ingest load has
           drained (reads dominate) and the saved seeks amortize the
           merge, the runs fold into one. While ingest is hot the check
           leaves fan-out to the background merge cadence instead of
           fighting it.
        """
        from repro.engine.cost import estimate

        name = entry.name
        expr, predicted_ms, storage_pages = chosen
        decision["recommended"] = expr.to_text()
        decision["predicted_ms"] = round(predicted_ms, 3)
        (region,) = entry.regions
        decision["run_count"] = len(region.runs)
        write_load = self._write_load.get(name, 0.0)
        decision["write_load"] = round(write_load, 3)
        assert entry.plan is not None and entry.plan.levels is not None
        incumbent_expr = entry.plan.level_plans[0].expr
        incumbent_ms = recommendation.incumbent_ms

        if (
            incumbent_ms is not None
            and not structurally_equal(expr, incumbent_expr)
        ):
            benefit = incumbent_ms - predicted_ms
            margin = self.hysteresis * incumbent_ms
            if benefit > margin:
                rewrite_ms = self.reorganizer.estimated_rewrite_ms(
                    name, storage_pages
                )
                per_execution = benefit / max(1.0, workload.total_weight)
                amortized = per_execution * self.amortization_queries
                decision["rewrite_ms"] = round(rewrite_ms, 3)
                decision["amortized_benefit_ms"] = round(amortized, 3)
                if force or amortized >= rewrite_ms:
                    with self.pause():
                        self.store.compact_levels(name, inner=expr)
                    self._since_check[name] = 0
                    self.adaptations += 1
                    decision["adapted"] = True
                    decision["relayout_runs"] = True
                    decision["reason"] = (
                        f"re-chose run design {expr.to_text()} via full "
                        f"compaction (predicted {benefit:.2f} ms/workload "
                        f"benefit)"
                    )
                    return decision
                decision["reason"] = (
                    f"rewrite cost not amortized ({amortized:.2f} ms "
                    f"benefit < {rewrite_ms:.2f} ms rewrite)"
                )
                return decision

        n_runs = len(region.runs)
        if n_runs > 1:
            if not force and write_load > self.LEVELLED_WRITE_LOAD_FLOOR:
                decision["reason"] = (
                    f"ingest-hot (write load {write_load:.1f} rows): run "
                    f"merges stay with the background compaction cadence"
                )
                return decision
            model = self.store.cost_model
            pages = region.total_pages()
            per_scan = (
                estimate(model, pages, n_runs).ms
                - estimate(model, pages, 1).ms
            )
            rewrite_ms = self.reorganizer.estimated_rewrite_ms(name, pages)
            amortized = per_scan * self.amortization_queries
            decision["merge_benefit_ms_per_scan"] = round(per_scan, 3)
            decision["rewrite_ms"] = round(rewrite_ms, 3)
            if per_scan > 0 and (force or amortized >= rewrite_ms):
                with self.pause():
                    report = self.store.compact_levels(name, full=True)
                self._since_check[name] = 0
                self.adaptations += 1
                decision["adapted"] = True
                decision["merged_runs"] = report["runs_merged"]
                decision["reason"] = (
                    f"read-mostly: merged {report['runs_merged']} runs "
                    f"into one (saves {per_scan:.2f} ms/scan in seeks)"
                )
                return decision
            decision["reason"] = (
                f"run merge not amortized ({amortized:.2f} ms benefit "
                f"< {rewrite_ms:.2f} ms merge)"
            )
            return decision
        decision["reason"] = "levelled structure already optimal"
        return decision

    def check_all(self, force: bool = False) -> dict[str, dict]:
        return {
            name: self.check(name, force=force)
            for name in self.store.catalog.names()
        }

    # -- helpers -----------------------------------------------------------

    #: Recollect statistics only beyond this relative row-count drift —
    #: the rescan is O(table), too expensive to pay on every check under a
    #: steady insert trickle.
    STATS_DRIFT_FRACTION = 0.1

    def _fresh_stats(self, entry: "CatalogEntry") -> TableStats | None:
        """Current statistics; recollected when the row count drifted.

        Inserted (pending/overflow) rows are invisible to load-time stats,
        so a check after sustained inserts re-scans the logical records, as
        the column vectors of a batch scan — but only once the drift
        exceeds :attr:`STATS_DRIFT_FRACTION` (the rescan is a full O(table)
        pass, run synchronously inside a check).
        Falls back to the stale stats when the incumbent layout cannot
        re-derive them (lossy design installed by hand).
        """
        from repro.engine.table import Table

        table = Table(self.store, entry)
        stats = entry.stats
        if stats is not None:
            drift = abs(table.row_count - stats.row_count)
            if drift <= self.STATS_DRIFT_FRACTION * max(1, stats.row_count):
                return stats
        schema = entry.logical_schema
        try:
            batches = [
                batch.columns()
                for batch in table.scan_column_batches(fieldlist=schema.names())
            ]
        except Exception:
            return stats
        columns = [vector.concat(list(parts)) for parts in zip(*batches)]
        entry.stats = TableStats.from_columns(
            schema, columns or [()] * len(schema.fields)
        )
        return entry.stats

    def _choose_non_lossy(
        self,
        entry: "CatalogEntry",
        recommendation,
        region_design: bool = False,
    ) -> tuple[ast.Node, float, int] | None:
        """Best recommended design that retains every logical field.

        A design that projects fields away cannot be auto-installed: the
        data it drops would be unrecoverable at the *next* adaptation. The
        advisor ranks alternatives; walk them best-first until a non-lossy
        one appears. Returns (expression, predicted ms, storage pages).

        With ``region_design`` (partitioned tables) the bar is stricter:
        the design becomes one *partition's* layout, so it must produce
        exactly the table's stored field set (regions must stay mutually
        projectable) and cannot itself be partitioned.
        """
        from repro.algebra.parser import parse

        interpreter = AlgebraInterpreter(
            {entry.name: entry.logical_schema}
        )
        candidates: list[tuple[ast.Node | str, float]] = [
            (recommendation.expression, recommendation.predicted_ms)
        ]
        candidates.extend(recommendation.alternatives)
        logical = set(entry.logical_schema.names())
        from repro.engine.table import _scan_schema

        required = logical
        if region_design and entry.plan is not None:
            required = set(_scan_schema(entry.plan).names())
        for expr, predicted_ms in candidates:
            try:
                node = parse(expr) if isinstance(expr, str) else expr
                plan = interpreter.compile(node)
                produced = set(_scan_schema(plan).names())
            except Exception:
                continue
            if region_design:
                # The design becomes one region's/run's layout: it cannot
                # itself split into regions or runs.
                if plan.kind in (LAYOUT_PARTITIONED, LAYOUT_LEVELLED):
                    continue
                if produced != required:
                    continue
            elif not (logical <= produced):
                continue
            pages = self._storage_pages(entry, plan)
            return node, predicted_ms, pages
        return None

    def _storage_pages(self, entry: "CatalogEntry", plan) -> int:
        from repro.optimizer.cost_model import PlanCostEstimator

        stats = entry.stats
        if stats is None:
            return 1
        estimator = PlanCostEstimator(
            stats, self.store.cost_model, self.store.cost_model.page_size
        )
        try:
            return estimator.storage_pages(plan)
        except Exception:
            return 1

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict:
        """The ``adaptivity`` section of :meth:`RodentStore.storage_stats`."""
        io = self.reorganizer.reorganization_io
        tables = {}
        for entry in self.store.catalog:
            if entry.monitor is None:
                continue
            table_report = entry.monitor.report()
            decision = self.decisions.get(entry.name)
            if decision is not None:
                table_report["last_decision"] = decision
            pending = self.reorganizer.pending(entry.name)
            if pending is not None:
                table_report["pending_design"] = pending.to_text()
            tables[entry.name] = table_report
        return {
            "enabled": self.enabled,
            "check_interval": self.check_interval,
            "hysteresis": self.hysteresis,
            "min_observations": self.min_observations,
            "amortization_queries": self.amortization_queries,
            "checks": self.checks,
            "adaptations": self.adaptations,
            "reorganizations": self.reorganizer.reorganizations,
            "reorganization_io": {
                "page_reads": io.page_reads,
                "page_writes": io.page_writes,
            },
            "tables": tables,
        }
