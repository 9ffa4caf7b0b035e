"""The closed adaptive loop: monitor → advise → reorganize (paper §5).

The paper's optimizer "takes as input a relational schema and a workload of
SQL queries and outputs a recommended storage representation"; offline, a
designer feeds it a hand-written :class:`~repro.optimizer.workload.Workload`.
This module closes the loop *online*: every access-method call is observed
by a per-table :class:`~repro.optimizer.monitor.WorkloadMonitor`, and the
:class:`AdaptiveController` periodically (every ``check_interval`` observed
scans, or on :meth:`RodentStore.adapt`) re-runs the advisor against fresh
statistics. One decision serves every table shape: it finds the regions the
recommendation would rewrite (a flat table, its hot stale partitions, or a
levelled table's runs), compares their predicted cost with the
recommendation's under a **hysteresis margin**, charges the one-time
rewrite of just those regions against the amortized benefit, and — when the
switch clearly pays — hands it to :meth:`ReorganizationManager.reorganize`,
which gives those regions the design and merges their runs under the
table's policy (eager / new-data-only / lazy), charging every rewrite alike.

Safety properties:

* a re-layout is a merge of the regions' runs under the new design
  (:func:`~repro.engine.levels.merge`), which renders zone-map synopses and
  the declared secondary indexes for the new runs and retires the old runs
  with theirs, so pruning and access-path choice can never consult
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
from typing import TYPE_CHECKING, Sequence

from repro import vector
from repro.algebra import ast
from repro.algebra.rewriter import structurally_equal
from repro.engine.stats import TableStats
from repro.errors import RodentStoreError
from repro.optimizer.monitor import DEFAULT_DECAY, WorkloadMonitor
from repro.optimizer.reorganize import Policy, ReorganizationManager
from repro.optimizer.workload import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.catalog import CatalogEntry, Region
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

    The loop's tuning is class-level (an instance may override any of it
    by assignment, as tests and examples do).
    """

    #: Minimum *relative* predicted improvement (``benefit > hysteresis *
    #: incumbent_ms``) before a switch is considered — two designs within
    #: the margin never thrash.
    hysteresis = 0.15
    #: Observations required before the first automatic check.
    min_observations = 8
    #: Workload repetitions over which the one-time rewrite cost must be
    #: recovered by the per-execution benefit.
    amortization_queries = 200.0
    #: Advisor search strategy for online checks.
    strategy = "exhaustive"
    #: Per-observation exponential decay of monitor weights.
    decay = DEFAULT_DECAY

    def __init__(
        self,
        store: "RodentStore",
        enabled: bool = False,
        check_interval: int = 64,
    ):
        self.store = store
        self.enabled = enabled
        self.check_interval = check_interval
        self.reorganizer = ReorganizationManager(store)
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
        name: str,
        fieldlist: Sequence[str] | None,
        predicate: "Predicate | None",
        order_keys: Sequence[tuple[str, bool]],
        signature=None,
    ):
        """Record one access-method call on table ``name`` (its monitor's
        ``signature`` of these arguments, when the caller has it); may
        trigger a lazy rewrite or a periodic adaptation *before* the scan
        binds its layout.

        Returns ``(monitor, pattern key)`` for result-cardinality feedback
        (``WorkloadMonitor.record_result`` once the scan completes), or
        ``None`` while observation is paused.
        """
        if self._suspended:
            return None
        monitor = self.monitor(name)
        key = monitor.observe(fieldlist, predicate, order_keys, signature)
        if name in self._write_load:
            self._write_load[name] *= self.decay
        if self.store._stopped is not None:
            return monitor, key  # reads go on; nothing may be rewritten
        # A re-layout may land while other scans are mid-iteration: each
        # reads its pinned snapshot, and the pages it supersedes wait for
        # the last of those pins.
        if self.reorganizer.on_access(name):  # a deferred rewrite fired
            self.store.obs.add("adaptivity.adaptations")
        if self.enabled:
            count = self._since_check.get(name, 0) + 1
            if (
                count >= self.check_interval
                and monitor.ticks >= self.min_observations
            ):
                self._since_check[name] = 0
                self.check(name)
            else:
                self._since_check[name] = count
        return monitor, key

    def note_write(self, name: str, rows: int) -> None:
        """Ingest signal from levelled inserts: bump the table's decayed
        write load (scans decay it back down; see ``_write_load``)."""
        if self._suspended:
            return
        self._write_load[name] = (
            self._write_load.get(name, 0.0) * self.decay + float(rows)
        )

    def record_estimate(self, name: str, estimated, actual: float) -> None:
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

        One decision for every table shape: advise on the workload, find
        the regions the chosen design would rewrite (:meth:`_stale_regions`),
        gate them once (:meth:`_gain`, then :meth:`_amortized`), and apply
        once through :meth:`ReorganizationManager.reorganize`. A levelled
        table whose runs keep their design may still merge them
        (:meth:`_merge_runs`).

        ``force`` (what :meth:`RodentStore.adapt` passes) waives the
        minimum-observation gate and the amortization charge — the operator
        asked, so the rewrite cost is accepted — but never the hysteresis
        margin: a design that is not clearly better is not installed.
        """
        from repro.optimizer.advisor import recommend

        self.store.obs.add("adaptivity.checks")
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
        incumbent_expr = self._incumbent_expr(entry)
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

        decision["incumbent"] = incumbent_expr.to_text()
        decision["incumbent_ms"] = recommendation.incumbent_ms
        chosen = self._choose_non_lossy(entry, recommendation)
        if chosen is None:
            decision["reason"] = "no non-lossy improvement"
            return decision
        expr, predicted_ms, storage_pages = chosen
        decision["recommended"] = expr.to_text()
        decision["predicted_ms"] = round(predicted_ms, 3)

        stale = self._stale_regions(entry, expr, decision)
        benefit = self._gain(
            entry, stale, expr, recommendation.incumbent_ms, predicted_ms,
            workload, decision,
        )
        if benefit is None:
            if entry.plan.levels is not None:
                return self._merge_runs(entry, decision, force)
            return decision
        rewrite_ms = self.reorganizer.estimated_rewrite_ms(
            name, storage_pages, stale
        )
        per_execution = benefit / max(1.0, workload.total_weight)
        if not self._amortized(decision, per_execution, rewrite_ms, force):
            return decision

        if entry.plan.partition is not None:
            # Cold partitions keep their current layout: a skewed workload
            # re-optimizes the regions it touches without rewriting the
            # whole table.
            rewritten = decision["relayout_partitions"] = [r.pid for r in stale]
            decision["kept_partitions"] = [
                r.pid for r in entry.regions if r.pid not in rewritten
            ]
        if entry.plan.levels is not None:
            decision["relayout_runs"] = True
        self._apply(entry, expr, stale, decision)
        decision["reason"] = (
            f"predicted {benefit:.2f} ms/workload benefit over incumbent"
        )
        return decision

    def _apply(
        self,
        entry: "CatalogEntry",
        expr: ast.Node | None,
        regions: Sequence["Region"],
        decision: dict,
    ) -> None:
        """The one apply: hand the design to the reorganizer and record the
        adaptation under the table's policy. ``adaptations`` counts layouts
        actually switched; a design installed for new data only under lazy
        / new-data-only shows up as ``pending_design`` in the report while
        old runs keep their design (and as an adaptation once the lazy
        rewrite fires)."""
        with self.pause():
            merged = self.reorganizer.reorganize(entry.name, expr, regions)
        self._since_check[entry.name] = 0
        self.store.obs.add("adaptivity.adaptations", merged)
        decision["adapted"] = True
        decision["policy"] = entry.policy
        decision["applied_immediately"] = merged

    def _gain(
        self,
        entry: "CatalogEntry",
        stale: Sequence["Region"],
        expr: ast.Node,
        incumbent_ms: float | None,
        predicted_ms: float,
        workload: "Workload",
        decision: dict,
    ) -> float | None:
        """The hysteresis gate: the predicted benefit per workload of
        rewriting ``stale`` to ``expr``, or None (with the reason recorded)
        when nothing is stale or the benefit is within the margin.

        The benefit is measured from the incumbent and, when that is within
        the margin, from the costliest stale region: the hottest partition
        may already run the recommended design while other newly-hot
        partitions lag on an older one. (A table of one region has the
        incumbent as its one stale region.)
        """
        from repro.optimizer.advisor import _cost_of

        if not stale:
            decision["reason"] = "incumbent is optimal"
        elif incumbent_ms is None:
            decision["reason"] = "incumbent cost unknown"
        else:
            benefit = incumbent_ms - predicted_ms
            margin = self.hysteresis * incumbent_ms
            if benefit <= margin and entry.stats is not None:
                estimator = self._estimator(entry)
                costs = (
                    _cost_of(r.plan.expr, entry.logical_schema, estimator, workload)
                    for r in stale
                )
                lag_ms = max((ms for ms in costs if ms is not None), default=None)
                if lag_ms is not None:
                    benefit = max(benefit, lag_ms - predicted_ms)
                    margin = self.hysteresis * max(incumbent_ms, lag_ms)
            if benefit > margin:
                return benefit
            decision["reason"] = (
                f"within hysteresis margin "
                f"(benefit {benefit:.2f} ms <= {margin:.2f} ms)"
            )
        return None

    def _amortized(
        self, decision: dict, per_execution: float, rewrite_ms: float,
        force: bool,
    ) -> bool:
        """The amortization charge: does ``per_execution`` ms saved, over
        :attr:`amortization_queries` executions, pay for the one-time
        rewrite? ``force`` waives it."""
        amortized = per_execution * self.amortization_queries
        decision["rewrite_ms"] = round(rewrite_ms, 3)
        decision["amortized_benefit_ms"] = round(amortized, 3)
        if force or amortized >= rewrite_ms:
            return True
        decision["reason"] = (
            f"rewrite cost not amortized "
            f"({amortized:.2f} ms benefit < {rewrite_ms:.2f} ms rewrite)"
        )
        return False

    # -- which regions a design rewrites -----------------------------------

    #: A partition is "hot" when its decayed access weight reaches this
    #: multiple of the mean partition weight.
    HOT_PARTITION_FACTOR = 1.0

    def _partition_weights(self, entry: "CatalogEntry") -> dict[int, float]:
        return entry.monitor.partition_weights() if entry.monitor else {}

    def _incumbent_expr(self, entry: "CatalogEntry") -> ast.Node:
        """The design a check argues against: the most-accessed region's —
        a flat table's design, a levelled table's run template, a
        partitioned table's hottest partition (falling back to the
        template before any partition exists)."""
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
        return entry.plan.region_template.expr

    def _stale_regions(
        self, entry: "CatalogEntry", expr: ast.Node, decision: dict
    ) -> list["Region"]:
        """The regions installing ``expr`` would rewrite: those whose design
        differs from it among the *hot* regions: a skewed workload
        re-optimizes only the partitions it touches, and with no recorded
        weights (a table without a router) every region is hot."""
        regions = entry.regions
        weights = self._partition_weights(entry)
        total = sum(weights.values())
        threshold = self.HOT_PARTITION_FACTOR * total / max(1, len(regions))
        hot = [
            region
            for region in regions
            if total == 0.0 or weights.get(region.pid, 0.0) >= threshold
        ]
        decision["hot_partitions"] = [r.pid for r in hot]
        decision["partition_weights"] = {
            r.pid: round(weights.get(r.pid, 0.0), 3) for r in regions
        }
        return [
            region
            for region in hot
            if region.plan is not None
            and not structurally_equal(region.plan.expr, expr)
        ]

    # -- levelled tables: read-mostly run merges ---------------------------

    #: Below this decayed write load (rows) a levelled table counts as
    #: read-mostly: the check may full-compact its runs for scan locality.
    LEVELLED_WRITE_LOAD_FLOOR = 1.0

    def _merge_runs(
        self, entry: "CatalogEntry", decision: dict, force: bool
    ) -> dict:
        """The one level-policy trigger, for a levelled table whose run
        design stays: a fragmented manifest costs one extra seek per run
        per scan. Once the decayed ingest load has drained (reads
        dominate) and the saved seeks amortize the merge, each region's
        runs fold into one. While ingest is hot the check leaves fan-out
        to the background merge cadence instead of fighting it."""
        from repro.engine.cost import estimate

        n_runs = sum(len(region.runs) for region in entry.regions)
        write_load = self._write_load.get(entry.name, 0.0)
        decision["run_count"] = n_runs
        decision["write_load"] = round(write_load, 3)
        model = self.store.cost_model
        pages = entry.total_pages()
        per_scan = sum(
            estimate(model, r.total_pages(), len(r.runs)).ms
            - estimate(model, r.total_pages(), 1).ms
            for r in entry.regions
            if len(r.runs) > 1
        )
        if per_scan <= 0:
            decision["reason"] = "levelled structure already optimal"
            return decision
        if not force and write_load > self.LEVELLED_WRITE_LOAD_FLOOR:
            decision["reason"] = (
                f"ingest-hot (write load {write_load:.1f} rows): run "
                f"merges stay with the background compaction cadence"
            )
            return decision
        decision["merge_benefit_ms_per_scan"] = round(per_scan, 3)
        rewrite_ms = self.reorganizer.estimated_rewrite_ms(entry.name, pages)
        if not self._amortized(decision, per_scan, rewrite_ms, force):
            return decision
        self._apply(entry, None, entry.regions, decision)
        decision["merged_runs"] = n_runs
        decision["reason"] = (
            f"read-mostly: merged {n_runs} runs into one "
            f"(saves {per_scan:.2f} ms/scan in seeks)"
        )
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
        """Current statistics; recollected when the row count drifted
        (:meth:`Table.estimated_row_count`: a check reads no page for it).

        Inserted (pending or flushed) rows are invisible to load-time stats,
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
            drift = abs(table.estimated_row_count() - stats.row_count)
            if drift <= self.STATS_DRIFT_FRACTION * max(1, stats.row_count):
                return stats
        schema = entry.logical_schema
        try:
            batches = [
                batch.columns()
                for batch in table.scan_column_batches(fieldlist=schema.names())
            ]
        except RodentStoreError:
            return stats
        columns = [vector.concat(list(parts)) for parts in zip(*batches)]
        entry.stats = TableStats.from_columns(
            schema, columns or [()] * len(schema.fields)
        )
        return entry.stats

    def _choose_non_lossy(
        self, entry: "CatalogEntry", recommendation
    ) -> tuple[ast.Node, float, int] | None:
        """Best recommended design the table can install.

        A design becomes the design of the table's regions (the table's
        one, a partition's, every run's — under a deferred policy, over
        runs it does not re-render yet), so it must pass the
        region-design rule, :meth:`RodentStore.region_plan`: one layout
        keeping the stored fields. A design that projects fields away
        fails it — the data it drops would be unrecoverable at the *next*
        adaptation. The advisor ranks alternatives; walk them best-first
        until an installable one appears. Returns (expression, predicted
        ms, storage pages).
        """
        from repro.algebra.parser import parse

        candidates = [
            (recommendation.expression, recommendation.predicted_ms),
            *recommendation.alternatives,
        ]
        for expr, predicted_ms in candidates:
            try:
                node = parse(expr) if isinstance(expr, str) else expr
                plan = self.store.region_plan(entry.name, node)
            except RodentStoreError:
                continue
            return node, predicted_ms, self._storage_pages(entry, plan)
        return None

    def _estimator(self, entry: "CatalogEntry"):
        """A plan cost estimator over ``entry``'s statistics (None when it
        has none)."""
        from repro.optimizer.cost_model import PlanCostEstimator

        if entry.stats is None:
            return None
        model = self.store.cost_model
        return PlanCostEstimator(entry.stats, model, model.page_size)

    def _storage_pages(self, entry: "CatalogEntry", plan) -> int:
        estimator = self._estimator(entry)
        try:
            return 1 if estimator is None else estimator.storage_pages(plan)
        except RodentStoreError:
            return 1

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict:
        """The ``adaptivity`` section of :meth:`RodentStore.storage_stats`."""
        obs = self.store.obs
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
            **obs.snapshot("adaptivity."),
            "reorganization_io": obs.snapshot("reorganization_io."),
            "tables": tables,
        }
