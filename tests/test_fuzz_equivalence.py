"""Differential fuzz suite: random schemas × layouts × queries, asserting
that every scan path returns the same rows — before and after automatic
reorganization.

Each iteration builds a seeded random scenario:

* a random schema (3–5 int fields with mixed cardinalities);
* a random physical design across every layout family — rows (plain or
  sorted), columns (pure or grouped), grid, Figure 2's compressed z-ordered
  grid over a sort and a regroup, folded, plus horizontally
  **partitioned** tables (range or hash, wrapping a random inner design) —
  plus inserted data in both reorganization states (a flushed *overflow*
  region and an unflushed *pending* buffer, per partition when
  partitioned);
* a batch of random queries (projection / range / conjunction / disjunction
  / negation predicates, orders, limits), each with an ``order_by`` +
  ``limit`` leg *above* a group-by and above a join (the top-k operator).

For every query it asserts ``Table.scan_batches`` ≡ the naive model of the
logical rows (``tests/oracle.py``: exactly, in order, where the design fixes
one, as a multiset otherwise) and ``Table.scan_batches`` ≡ the compiled
query pipeline (``Q.run()``) exactly, with zone-map + partition pruning on
*and* off and with the parallel partition-scan executor on *and* off — all
four answers identical; then it re-layouts the table mid-stream (a random
different design via ``relayout()``, then the adaptive loop via
``store.adapt()`` — which for partitioned tables rewrites hot partitions
individually) and asserts the whole equivalence again — automatic
re-layouts must never change query answers.

Iteration count / seed are environment-tunable so CI can run a capped,
fixed-seed sweep::

    FUZZ_ITERATIONS=8 FUZZ_SEED=1 pytest tests/test_fuzz_equivalence.py
"""

from __future__ import annotations

import os
import random

import pytest

import oracle
from repro.engine.database import RodentStore
from repro.query.expressions import And, Not, Or, Predicate, Range, Rect
from repro.types.schema import Schema

FUZZ_ITERATIONS = int(os.environ.get("FUZZ_ITERATIONS", "20"))
FUZZ_SEED = int(os.environ.get("FUZZ_SEED", "20260730"))

QUERIES_PER_SCENARIO = 6


# ---------------------------------------------------------------------------
# scenario generation
# ---------------------------------------------------------------------------


def random_schema(rng: random.Random) -> tuple[Schema, list[int]]:
    """A random all-int schema plus each field's value-domain size."""
    n_fields = rng.randint(3, 5)
    names = [f"f{i}" for i in range(n_fields)]
    domains = [rng.choice([8, 40, 200]) for _ in names]
    schema = Schema.of(*[f"{n}:int" for n in names])
    return schema, domains


def random_records(
    rng: random.Random, domains: list[int], n: int
) -> list[tuple]:
    return [
        tuple(rng.randrange(d) for d in domains) for _ in range(n)
    ]


def random_layout(
    rng: random.Random, names: list[str], domains: list[int]
) -> str:
    """A random non-lossy design drawn from every layout family."""
    kind = rng.choice(
        [
            "rows",
            "sorted",
            "columns",
            "grouped",
            "grid",
            "figure2",
            "fold",
            "partition-range",
            "partition-hash",
        ]
    )
    if kind == "partition-range":
        i = rng.randrange(len(names))
        n_points = rng.randint(1, 3)
        points = sorted(
            rng.sample(range(1, max(2, domains[i])), min(n_points, domains[i] - 1))
        )
        inner = random_layout(rng, names, domains)
        while inner.startswith("partition"):
            inner = random_layout(rng, names, domains)
        rendered = ", ".join(str(p) for p in points)
        return f"partition[r.{names[i]}; range, {rendered}]({inner})"
    if kind == "partition-hash":
        i = rng.randrange(len(names))
        buckets = rng.randint(2, 4)
        inner = random_layout(rng, names, domains)
        while inner.startswith("partition"):
            inner = random_layout(rng, names, domains)
        return f"partition[r.{names[i]}; hash, {buckets}]({inner})"
    if kind == "rows":
        return "T"
    if kind == "sorted":
        return f"orderby[{rng.choice(names)}](T)"
    if kind == "columns":
        return "columns(T)"
    if kind == "grouped":
        shuffled = list(names)
        rng.shuffle(shuffled)
        groups: list[list[str]] = [[]]
        for name in shuffled:
            if groups[-1] and rng.random() < 0.5:
                groups.append([])
            groups[-1].append(name)
        inner = ", ".join("[" + ", ".join(g) + "]" for g in groups)
        return f"columns[{inner}](T)"
    if kind == "grid":
        a, b = rng.sample(range(len(names)), 2)
        stride_a = max(1, domains[a] // rng.choice([2, 4, 8]))
        stride_b = max(1, domains[b] // rng.choice([2, 4, 8]))
        expr = f"grid[{names[a]}, {names[b]}],[{stride_a}, {stride_b}](T)"
        order = rng.choice(["", "zorder", "hilbert"])
        return f"{order}({expr})" if order else expr
    if kind == "figure2":
        # Figure 2's N4 without its projection: a sort and a regroup under
        # a compressed, delta-encoded, z-ordered grid.
        a, b = rng.sample(names, 2)
        cells = [max(1, domains[names.index(f)] // rng.choice([2, 4])) for f in (a, b)]
        inner = f"groupby[{rng.choice(names)}](orderby[{rng.choice(names)}](T))"
        grid = f"grid[{a}, {b}],[{cells[0]}, {cells[1]}]({inner})"
        return f"compress[varint; {a}, {b}](delta[{a}, {b}](zorder({grid})))"
    # fold: group by the lowest-cardinality field, nest the rest.
    group_index = min(range(len(names)), key=lambda i: domains[i])
    nest = [n for i, n in enumerate(names) if i != group_index]
    return f"fold[{', '.join(nest)}; {names[group_index]}](T)"


def random_predicate(
    rng: random.Random, names: list[str], domains: list[int]
) -> Predicate | None:
    def one_range() -> Range:
        i = rng.randrange(len(names))
        lo = rng.randrange(domains[i])
        hi = min(domains[i] - 1, lo + rng.randrange(1, max(2, domains[i] // 2)))
        if rng.random() < 0.15:
            return Range(names[i], lo=lo)  # open upper bound
        return Range(names[i], lo, hi)

    shape = rng.random()
    if shape < 0.2:
        return None
    if shape < 0.5:
        return one_range()
    if shape < 0.7:
        fields = rng.sample(range(len(names)), 2)
        return Rect(
            {
                names[i]: (
                    rng.randrange(domains[i] // 2),
                    rng.randrange(domains[i] // 2, domains[i]),
                )
                for i in fields
            }
        )
    if shape < 0.85:
        return And(one_range(), one_range())
    if shape < 0.95:
        return Or(one_range(), one_range())
    return Not(one_range())


def random_query(rng: random.Random, scan_names: list[str]) -> dict:
    fieldlist = None
    if rng.random() < 0.6:
        k = rng.randint(1, len(scan_names))
        fieldlist = rng.sample(scan_names, k)
    order = None
    if rng.random() < 0.4:
        k = rng.randint(1, min(2, len(scan_names)))
        order = [(n, rng.random() < 0.7) for n in rng.sample(scan_names, k)]
    limit = rng.choice([None, None, None, 0, 1, 7, 50])
    # Top-k above a group-by (few distinct sort values: the answer is
    # mostly tie order) and above a join (a total order over the output
    # columns, since a hash join promises no row order of its own).
    key, source, on = (rng.choice(scan_names) for _ in range(3))
    group_order = [
        (n, rng.random() < 0.5)
        for n in rng.sample([key, "n", "s"], rng.randint(1, 2))
    ]
    join_order = [
        (n, rng.random() < 0.5)
        for n in rng.sample(scan_names + list(DIM_NAMES), len(scan_names) + 2)
    ]
    return {
        "fieldlist": fieldlist,
        "order": order,
        "limit": limit,
        "group": (key, source, group_order),
        "join": (on, join_order),
        "top": rng.choice([None, 1, 3, 20]),
    }


DIM_NAMES = ("dk", "w")
#: Joined to a random field of ``T``: every value below 200 (the largest
#: domain) matches once, every fifth value twice.
DIM_ROWS = [(v, v % 3) for v in range(200)] + [(v, 7) for v in range(0, 200, 5)]


def add_dim_table(store: RodentStore) -> None:
    store.create_table("D", Schema.of("dk:int", "w:int"))
    store.load("D", DIM_ROWS)


def check_topk_above_operators(
    store: RodentStore, model: oracle.Model, query: dict, predicate
) -> None:
    """Group-by and join, each under an order + limit, against the model's
    operators over the scan's rows — the scan itself checked against the
    model first (the group order is first-seen, so it follows the scan)."""
    table = store.table("T")
    names = list(model.fields)
    rows = oracle.check_table(table, model, predicate=predicate)
    top = query["top"]

    def base():
        q = store.query("T")
        return q if predicate is None else q.where(predicate)

    key, source, order = query["group"]
    grouped = oracle.group(rows, names, [key], [("count", None), ("sum", source)])
    q = base().group_by(key).agg(n="*", s=f"sum:{source}").order_by(*order)
    got = (q if top is None else q.limit(top)).run()
    want = oracle.stable_sort(grouped, [key, "n", "s"], order)[:top]
    assert got == want, (
        f"top-k above group-by (group={query['group']}, top={top}, "
        f"predicate={predicate!r}, layout={table.plan.expr.to_text()})"
    )

    on, order = query["join"]
    joined = oracle.join(rows, DIM_ROWS, [(names.index(on), 0)])
    q = base().join("D", on=(on, "dk")).order_by(*order)
    got = (q if top is None else q.limit(top)).run()
    want = oracle.stable_sort(joined, names + list(DIM_NAMES), order)[:top]
    assert got == want, (
        f"top-k above join (join={query['join']}, top={top}, "
        f"predicate={predicate!r}, layout={table.plan.expr.to_text()})"
    )


# ---------------------------------------------------------------------------
# the differential check
# ---------------------------------------------------------------------------


def run_query_all_paths(
    store: RodentStore, model: oracle.Model, query: dict, predicate
) -> None:
    """Assert batch ≡ model and batch ≡ compiled pipeline across the
    zone-map pruning and parallel-executor toggles, and every
    toggle's answer identical."""
    table = store.table("T")
    # Parallelism only has a distinct code path on partitioned tables;
    # skip the redundant re-run otherwise.
    worker_settings = (0, 3) if table.is_partitioned else (0,)
    results = {}
    for pruning in (True, False):
        store.zone_pruning = pruning
        for workers in worker_settings:
            store.scan_workers = workers
            batch = [
                row
                for rows in table.scan_batches(
                    fieldlist=query["fieldlist"],
                    predicate=predicate,
                    order=query["order"],
                    limit=query["limit"],
                )
                for row in rows
            ]
            oracle.check_scan(
                batch, model, query["fieldlist"], predicate, query["order"],
                query["limit"], context=f"pruning={pruning} workers={workers}",
            )
            q = store.query("T")
            if query["fieldlist"] is not None:
                q = q.select(*query["fieldlist"])
            if predicate is not None:
                q = q.where(predicate)
            if query["order"] is not None:
                q = q.order_by(*query["order"])
            if query["limit"] is not None:
                q = q.limit(query["limit"])
            planned = q.run()
            assert planned == batch, (
                f"planner != batch (pruning={pruning}, "
                f"workers={workers}, query={query}, "
                f"predicate={predicate!r}, layout="
                f"{table.plan.expr.to_text()})"
            )
            results[(pruning, workers)] = batch
        # Once per pruning setting (with the parallel executor on, where
        # there is one): the operators above the scan don't depend on it.
        check_topk_above_operators(store, model, query, predicate)
    store.zone_pruning = True
    store.scan_workers = 0
    baseline = next(iter(results.values()))
    assert all(
        r == baseline for r in results.values()
    ), "pruning/parallel toggles changed query answers"


def check_ground_truth(store: RodentStore, model: oracle.Model) -> None:
    """The full unprojected scan equals the model — the logical relation."""
    table = store.table("T")
    assert model.fields == tuple(table.scan_schema().names())
    oracle.check_table(table, model, context="full scan")


@pytest.mark.parametrize("iteration", range(FUZZ_ITERATIONS))
def test_fuzz_differential_equivalence(iteration: int):
    rng = random.Random(FUZZ_SEED + iteration)
    schema, domains = random_schema(rng)
    names = list(schema.names())
    expected = random_records(rng, domains, rng.randint(80, 300))

    store = RodentStore(
        page_size=rng.choice([512, 1024, 4096]), pool_capacity=64
    )
    layout = random_layout(rng, names, domains)
    store.create_table("T", schema, layout=layout)
    add_dim_table(store)
    n_loaded = rng.randint(len(expected) // 2, len(expected))
    table = store.load("T", expected[:n_loaded])
    model = oracle.Model(names, expected[:n_loaded], layout)

    # Drive the table into the paper's reorganization states: a flushed
    # overflow region plus an unflushed pending buffer.
    remaining = expected[n_loaded:]
    cut = rng.randint(0, len(remaining))
    if remaining[:cut]:
        table.insert(remaining[:cut])
        table.flush_inserts()
        model.insert(remaining[:cut])
    if remaining[cut:]:
        table.insert(remaining[cut:])
        model.insert(remaining[cut:])

    check_ground_truth(store, model)
    scan_names = list(store.table("T").scan_schema().names())
    queries = [
        (random_query(rng, scan_names), random_predicate(rng, names, domains))
        for _ in range(QUERIES_PER_SCENARIO)
    ]
    for query, predicate in queries:
        run_query_all_paths(store, model, query, predicate)

    # Mid-stream reorganization #1: an explicit relayout to a different
    # random design. Pending + overflow must be folded in, never lost.
    new_layout = random_layout(rng, names, domains)
    store.relayout("T", new_layout)
    model.relayout(new_layout)
    assert store.table("T").unmerged_row_count == 0
    check_ground_truth(store, model)
    scan_names = list(store.table("T").scan_schema().names())
    for query, predicate in queries:
        if _query_valid(query, predicate, scan_names):
            run_query_all_paths(store, model, query, predicate)

    # Mid-stream reorganization #2: the adaptive loop itself (forced check
    # against the workload the queries above were observed into). Whatever
    # it chose, the order its re-render leaves is not the model's to know.
    store.adapt("T")
    model.relayout(store.table("T").plan.expr.to_text())
    model.exact = False
    check_ground_truth(store, model)
    scan_names = list(store.table("T").scan_schema().names())
    for query, predicate in queries:
        if _query_valid(query, predicate, scan_names):
            run_query_all_paths(store, model, query, predicate)

    # Deterministic teardown: joins any parallel-scan workers the
    # iteration spawned so threads never accumulate across fuzz cases.
    store.close()


# ---------------------------------------------------------------------------
# levelled (LSM) layouts: interleaved inserts/deletes/compactions
# ---------------------------------------------------------------------------


def random_run_design(
    rng: random.Random, names: list[str], domains: list[int]
) -> str:
    """A random non-lossy *run* design for ``levels[...]`` to wrap — any
    flat family (a router goes outside the level policy, never inside:
    ``partition[k](levels[f; n](run design))``)."""
    inner = random_layout(rng, names, domains)
    while inner.startswith("partition"):
        inner = random_layout(rng, names, domains)
    return inner


def merged(table) -> bool:
    """Is every region of ``table`` at most one run?"""
    return all(len(region.runs) <= 1 for region in table.partitions)


@pytest.mark.parametrize("iteration", range(max(4, FUZZ_ITERATIONS // 2)))
def test_fuzz_levelled_equivalence(iteration: int):
    """Levelled layouts under an interleaved insert/delete/compact stream.

    Random ``levels[k; ratio](inner)`` designs over random run designs,
    range-partitioned on every third iteration; after every mutation batch
    the full batch ≡ model ≡ planner equivalence must hold — including
    while the manifests hold many runs, straight after partial merges, and
    before/after an explicit full ``compact()``.
    """
    rng = random.Random(FUZZ_SEED + 7_000 + iteration)
    schema, domains = random_schema(rng)
    names = list(schema.names())

    k = rng.randint(2, 4)
    ratio = rng.randint(2, 4)
    inner = random_run_design(rng, names, domains)
    layout = f"levels[{k}; {ratio}]({inner})"
    if iteration % 3 == 1:
        # A router over the levelled regions: each partition cascades alone.
        i = rng.randrange(len(names))
        layout = f"partition[r.{names[i]}; range, {domains[i] // 2}]({layout})"
    store = RodentStore(
        page_size=rng.choice([512, 1024, 4096]),
        pool_capacity=64,
        level_seal_rows=rng.choice([16, 32, 64]),
    )
    store.create_table("T", schema, layout=layout)
    add_dim_table(store)

    expected = random_records(rng, domains, rng.randint(60, 150))
    store.load("T", expected)
    model = oracle.Model(names, expected, layout)

    def check_round() -> None:
        check_ground_truth(store, model)
        scan_names = list(store.table("T").scan_schema().names())
        query = random_query(rng, scan_names)
        predicate = random_predicate(rng, names, domains)
        if _query_valid(query, predicate, scan_names):
            run_query_all_paths(store, model, query, predicate)

    for _ in range(rng.randint(4, 7)):
        op = rng.random()
        if op < 0.55:
            batch = random_records(rng, domains, rng.randint(10, 80))
            store.table("T").insert(batch)
            model.insert(batch)
        elif op < 0.75:
            predicate = random_predicate(rng, names, domains)
            if predicate is None:
                continue
            removed = store.table("T").delete(predicate)
            want = model.delete(predicate)
            assert removed == want, (
                f"delete removed {removed}, model expected {want} "
                f"(layout={layout})"
            )
        elif op < 0.9:
            store.table("T").flush_inserts()  # force a seal mid-stream
        else:
            store.table("T").compact()
            assert merged(store.table("T"))
        check_round()

    # The acceptance gate proper: full equivalence immediately before
    # and after an explicit full compaction.
    queries = [
        (random_query(rng, list(store.table("T").scan_schema().names())),
         random_predicate(rng, names, domains))
        for _ in range(QUERIES_PER_SCENARIO)
    ]
    for query, predicate in queries:
        run_query_all_paths(store, model, query, predicate)
    store.table("T").compact()
    assert merged(store.table("T"))
    check_ground_truth(store, model)
    for query, predicate in queries:
        run_query_all_paths(store, model, query, predicate)
    store.close()


def _query_valid(
    query: dict, predicate, scan_names: list[str]
) -> bool:
    """Field references must exist in the (possibly re-ordered) new scan
    schema; all our layouts are non-lossy so this is always true, but keep
    the guard so a future lossy scenario fails loudly in one place."""
    used = set(query["fieldlist"] or [])
    if query["order"]:
        used |= {n for n, _ in query["order"]}
    used |= {*query["group"][:2], query["join"][0]}
    if predicate is not None:
        used |= predicate.fields_used()
    return used <= set(scan_names)
