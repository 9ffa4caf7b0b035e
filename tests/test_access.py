"""``engine/access.py``: one access decision per run.

``open_run`` is tested kind by kind against what its reader actually does —
the pages ``batches()`` fetches are the ``pages`` it prices, ``pages +
pruned`` is the run, deciding and pricing touch no page — and the structure
that keeps it the *only* such decision is pinned at the end (same style as
``tests/test_numpy_boundary.py``).
"""

import ast
import dataclasses
import inspect
import os
import re

import pytest

import oracle
from repro.compression import codec_names, get_codec
from repro.engine import access
from repro.engine import adaptive
from repro.engine import levels
from repro.engine import table as table_module
from repro.engine.access import open_run
from repro.engine.catalog import Region, Run
from repro.engine.database import RodentStore
from repro.errors import StorageError
from repro.layout.renderer import LayoutRenderer
from repro.optimizer.reorganize import ReorganizationManager
from repro.query import expressions, operators
from repro.query.expressions import And, Range, Rect
from repro.types import Schema

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)

SCHEMA = Schema.of("t:int", "x:int", "y:int", "g:int")
RECORDS = [(i, (i * 7) % 53 - 26, (i * i) % 41, i // 150) for i in range(600)]

LAYOUTS = {
    "rows": "T",
    "rows_sorted": "orderby[t](T)",
    "rows_delta": "delta[t](T)",
    "columns": "columns[[t, g], [x], [y]](T)",
    "grid": "compress[varint; x, y](zorder(grid[x, y],[10, 10](T)))",
    "folded": "fold[t, x, y; g](T)",
    "mirror": "mirror(rows(T), columns(T))",
}
#: kind -> the type of a non-empty verdict (``None`` where nothing prunes).
VERDICTS = {
    "rows": set,
    "rows_sorted": tuple,
    "rows_delta": type(None),
    "columns": list,
    "grid": list,
    "folded": list,
    "mirror": set,
}
PREDICATE = And(Range("t", 100, 160), Range("x", -20, -12))


def build(kind):
    store = RodentStore(page_size=1024, pool_capacity=256)
    store.create_table("T", SCHEMA, layout=LAYOUTS[kind])
    return store, store.load("T", RECORDS)


def opened(store, table, needed, predicate, zones=True):
    intervals = access.zonemaps.predicate_intervals(predicate) if zones else {}
    return open_run(
        store.renderer, table.layout, needed, predicate, intervals,
        table.stats, store.cost_model,
    )


def fetches(store, action):
    """``(result, page ids fetched)`` of ``action`` on a cold pool."""
    store.pool.clear()
    store.table("T").layout.clear_caches()  # decoded column chunks too
    seen = set()
    pool_fetch = store.pool.fetch

    def fetch(page_id, *args, **kwargs):
        seen.add(page_id)
        return pool_fetch(page_id, *args, **kwargs)

    store.pool.fetch = fetch
    try:
        return action(), seen
    finally:
        del store.pool.fetch


def rows_of(run_access):
    return [row for batch in run_access.batches() for row in batch.rows()]


@pytest.mark.parametrize("kind", sorted(LAYOUTS))
def test_cost_prune_and_read_are_one_verdict(kind):
    store, table = build(kind)
    positions = {n: i for i, n in enumerate(SCHEMA.names())}
    whole = opened(store, table, None, None)
    assert whole.pruned == 0

    def decide():
        run = opened(store, table, None, PREDICATE)
        return run, run.pages, run.seeks, run.pruned, run.cost(store.cost_model)

    (run, pages, seeks, pruned, cost), touched = fetches(store, decide)
    assert touched == set()  # deciding and pricing are metadata only
    assert isinstance(run.verdict, VERDICTS[kind])
    assert (cost.pages, cost.seeks) == (pages, seeks)

    rows, touched = fetches(store, lambda: rows_of(run))
    index = [run.fields.index(n) for n in SCHEMA.names()]
    got = sorted(
        r for r in (tuple(row[i] for i in index) for row in rows)
        if PREDICATE.matches(r, positions)
    )
    assert got == sorted(r for r in RECORDS if PREDICATE.matches(r, positions))
    if kind == "rows_sorted":  # priced from statistics: an estimate
        assert pruned == 0 and pages <= whole.pages
        assert len(touched) < whole.pages
    else:
        assert len(touched) == pages
        assert pages + pruned == whole.pages
        assert (pruned > 0) == (kind != "rows_delta")


@pytest.mark.parametrize("kind", ["rows", "columns", "grid", "folded"])
def test_empty_intervals_consult_no_zone_map(kind, monkeypatch):
    """``intervals={}`` is ``zone_pruning = False``'s verdict: cell bounds
    and folded keys still prune, zones never."""
    store, table = build(kind)

    def no_zone_table(*args, **kwargs):
        raise AssertionError("zone map consulted")

    monkeypatch.setattr(access.zonemaps.ZoneTable, "keep_mask", no_zone_table)
    predicate = Rect({"x": (-20, -15), "g": (1, 2)})
    run = opened(store, table, None, predicate, zones=False)
    assert (run.verdict is not None) == (kind in ("grid", "folded"))
    assert (run.pruned > 0) == (kind in ("grid", "folded"))


def test_projection_selects_the_fields_and_groups_read():
    store, table = build("columns")
    run = opened(store, table, ["x"], Range("x", 0, 5))
    assert run.fields == ["x"] and run.seeks == 1
    assert run.pages < opened(store, table, None, Range("x", 0, 5)).pages
    store, table = build("grid")
    assert opened(store, table, ["y", "t"], None).fields == ["t", "y"]


def test_sorted_probe_builds_one_serializer_per_scan(monkeypatch):
    store, table = build("rows_sorted")
    built = []
    serializer = access.RecordSerializer
    monkeypatch.setattr(
        access,
        "RecordSerializer",
        lambda schema: built.append(schema) or serializer(schema),
    )
    run = opened(store, table, None, Range("t", 300, 330))
    assert run.verdict == ("t", 300, 330)
    rows = rows_of(run)  # from the page the range starts on, cut at ``hi``
    assert rows[-1] == RECORDS[330] and RECORDS[300] in rows
    assert rows == RECORDS[rows[0][0] : 331]
    assert len(built) == 1  # not one per binary-search probe


def test_sorted_probe_keeps_a_key_run_spanning_pages():
    """One key over many pages: the probe starts on the last page opening
    *below* ``lo``. Starting on the last page opening *at* ``lo`` returned
    6 of these 400 matches — and so did the tuple-at-a-time reference
    engine of the time, which read through the same probe; the model of
    the loaded rows does not."""
    keys = [3] * 40 + [7] * 400 + [9] * 40
    records = [(k, i) for i, k in enumerate(keys)]
    store = RodentStore(page_size=512, pool_capacity=64)
    store.create_table("T", Schema.of("k:int", "v:int"), layout="orderby[k](T)")
    table = store.load("T", records)
    model = oracle.Model(("k", "v"), records, "orderby[k](T)")
    for lo, hi in ((7, 7), (5, 7), (7, 8), (3, 3), (9, 20)):
        predicate = Range("k", lo, hi)
        got = oracle.check_table(table, model, predicate=predicate)
        assert got == [r for r in records if lo <= r[0] <= hi]


def test_a_scan_does_no_page_arithmetic(monkeypatch):
    """``pages`` / ``seeks`` / ``pruned`` are lazy: the reader never pays
    for ``pages_for_cells`` — only the planner, when it prices."""
    store, table = build("grid")
    calls = []
    original = LayoutRenderer.pages_for_stream_ranges

    def counted(self, layout, ranges):
        calls.append(len(ranges))
        return original(self, layout, ranges)

    monkeypatch.setattr(LayoutRenderer, "pages_for_stream_ranges", counted)
    predicate = Rect({"x": (-5, 5), "y": (0, 10)})
    assert list(table.scan(predicate=predicate))
    assert calls == []
    table.scan_cost(predicate=predicate)
    assert len(calls) == 1  # the kept cells, once; ``pruned`` not asked


def test_mirror_is_the_cheapest_replica():
    store, table = build("mirror")
    model = store.cost_model
    for needed, predicate in ((None, None), (["x"], Range("t", 0, 50))):
        run = opened(store, table, needed, predicate)
        intervals = access.zonemaps.predicate_intervals(predicate)
        replicas = [
            open_run(store.renderer, m, needed, predicate, intervals,
                     table.stats, model)
            for m in table.layout.mirrors
        ]
        assert run.layout in table.layout.mirrors
        assert run.cost(model).ms == min(r.cost(model).ms for r in replicas)
    assert opened(store, table, None, None).layout.plan.kind == "rows"
    assert opened(store, table, ["x"], None).layout.plan.kind == "columns"


def test_unscannable_kind_is_rejected():
    store = RodentStore(page_size=1024)
    store.create_table("T", SCHEMA, layout="partition[t; range, 200](T)")
    table = store.load("T", RECORDS)
    layout = table.partitions[0].main.layout
    shell = type(layout)(plan=table.plan, row_count=0)  # kind: partitioned
    with pytest.raises(StorageError):
        open_run(store.renderer, shell, None, None, {}, None, store.cost_model)


def test_overflow_runs_are_costed_like_they_are_read():
    """An overflow run prunes by its page zone maps when scanned, so it is
    priced by them too (the parent charged it every page: 50, not 2)."""
    schema = Schema.of("t:int", "v:int")
    store = RodentStore(page_size=1024, pool_capacity=256)
    store.create_table("T", schema)
    table = store.load("T", [(i, i % 13) for i in range(2000)])
    table.insert([(10_000 + i, i % 13) for i in range(2000)])
    table.flush_inserts()
    predicate = Range("t", 10_000, 10_050)
    total = sum(region.total_pages() for region in table.partitions)
    pruned = table.pruned_pages(predicate)
    assert 0 < pruned < total
    assert table.scan_cost(predicate=predicate).pages == total - pruned
    _, io = store.run_cold(lambda: list(table.scan(predicate=predicate)))
    assert io.page_reads == total - pruned


# -- structure ---------------------------------------------------------------

_KIND_TEST = re.compile(r"kind\s*[!=]=\s*LAYOUT_")
DELETED = (
    "_batch_stored", "_layout_scan_cost", "_layout_pruned_pages",
    "_full_scan_estimate", "_cheaper_mirror", "_grid_prune_entries",
    "_folded_indices", "_iter_sorted_rows_range", "_sorted_prune_applies",
    "_sorted_range_bounds", "_index_candidate", "_index_cost",
    "_index_positions", "_index_path", "_selective_enough",
)


def _engine_sources():
    folder = os.path.join(SRC, "engine")
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), encoding="utf-8") as f:
                yield name, f.read()


def test_table_walks_and_access_decides():
    sources = dict(_engine_sources())
    # The survivors: the two shape tests, get_element*, _scan_schema and
    # split_design's array test (an array has no stored-record shape).
    assert len(_KIND_TEST.findall(sources["table.py"])) <= 9
    assert not hasattr(LayoutRenderer, "iter_batches")
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A ``zones`` *switch* (the two in ``persistence.py`` are
                # zone tables being serialized, positional and undefaulted).
                args = node.args
                positional = args.posonlyargs + args.args
                optional = positional[len(positional) - len(args.defaults) :]
                switches = [a.arg for a in optional + args.kwonlyargs]
                assert "zones" not in switches, (name, node.name)


def test_the_replaced_ladders_are_gone():
    gone = re.compile(r"\b(" + "|".join(DELETED) + r")\b")
    for folder, _, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as f:
                    assert not gone.search(f.read()), name


def test_only_access_reads_the_prune_synopses():
    """``open_run`` is the one caller of the per-layout prune functions and
    of the scan-path page arithmetic (``get_element_cost`` prices one cell)."""
    prune = re.compile(
        r"\b(rows_page_skip|column_keep_intervals|directory_keep|"
        r"column_pruned_pages|pages_for_stream_ranges)\("
    )
    for name, source in _engine_sources():
        if name not in ("access.py", "synopsis.py"):
            assert not prune.search(source), name


#: The second read engine and its switch, named only here.
ONE_PATH_DELETED = (
    "scan_reference", "_scan_reference_pinned", "_region_reference_rows",
    "_iter_stored", "_iter_columns", "_iter_unnested", "_row_projector",
    "_row_fields_projector", "iter_column_group", "iter_array_leaves",
    "read_cell", "_decode_cell", "vectorized", "iter_folded", "_read_cells",
)


def _sources():
    for folder, _, names in os.walk(SRC):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as f:
                    yield os.path.relpath(path, SRC), f.read()


def _assert_absent_as_names(deleted):
    """None of ``deleted`` is a name, attribute, argument or string key in
    ``src/`` (a word may survive in prose)."""
    for name, source in _sources():
        for node in ast.walk(ast.parse(source)):
            for used in (
                getattr(node, "name", None),  # def / class
                getattr(node, "attr", None),
                getattr(node, "id", None),
                node.arg if isinstance(node, (ast.arg, ast.keyword)) else None,
                node.value if isinstance(node, ast.Constant) else None,
            ):
                assert used not in deleted, (name, used)


def test_one_read_path():
    """No tuple-at-a-time reference engine and no ``vectorized`` switch:
    scans, the planner, updates, deletes and scrub read one way. Grid cells
    and folded records share one stream reader, the only caller of
    ``_read_stream_range``, and folded batches are not sized by rows."""
    _assert_absent_as_names(ONE_PATH_DELETED)
    for reader in ("iter_rows", "iter_column_group", "iter_array_leaves",
                   "read_cell", "_decode_cell", "iter_folded", "_read_cells"):
        assert not hasattr(LayoutRenderer, reader), reader
    assert _callers("_read_stream_range") == {
        (os.path.join("layout", "renderer.py"), "_read_stream")
    }
    assert "batch_size" not in inspect.signature(
        LayoutRenderer.iter_folded_batches
    ).parameters
    with pytest.raises(TypeError):
        RodentStore(vectorized=True)
    assert not hasattr(RodentStore(), "vectorized")


#: The slow twins of the one decode and the one filter chain.
ONE_DECODE_DELETED = (
    "decode_all", "decode_vector", "decode_bulk", "unpack_uints_bulk",
    "varint_decode", "zigzag_decode", "filter_batch", "_mask_junction",
    "_selector",
)


def test_one_decode_per_codec_one_filter_chain():
    """A codec is ``encode`` + ``decode`` (``varint`` adds its one-pass
    ``decode_buffer`` for runs of blobs); a predicate is ``compile`` +
    ``filter_vector``, chained in one ``selector`` that scans, updates,
    deletes and ``FilterOp`` share."""
    _assert_absent_as_names(ONE_DECODE_DELETED)
    for codec_name in codec_names():
        cls = type(get_codec(codec_name))
        if cls.__module__.startswith("repro.compression."):
            public = {a for a in vars(cls) if not a.startswith("_")} - {"name"}
            extra = {"decode_buffer"} if codec_name == "varint" else set()
            assert public == {"encode", "decode"} | extra, codec_name
    assert not any(
        "filter_batch" in vars(cls) for cls in _predicate_classes()
    )
    assert table_module.selector is expressions.selector
    assert operators.selector is expressions.selector
    calls = re.compile(r"filter_vector\(")
    for name, source in _sources():
        if name != os.path.join("query", "expressions.py"):
            assert not calls.search(source), name


def _predicate_classes():
    out, todo = [], [expressions.Predicate]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def test_only_the_selector_filters_rows():
    """Scans, updates, deletes and the Figure 2 experiment select through
    one chain: outside the predicate protocol itself nothing calls
    ``matches``."""
    calls = re.compile(r"\.matches\(")
    for name, source in _sources():
        if name != os.path.join("query", "expressions.py"):
            assert not calls.search(source), name


def test_a_merge_reads_its_sources_through_the_scan_path():
    """``merge`` reads each source run through ``_region_batches`` — the
    scan's own levelled path — and never turns a region into row tuples
    with ``_region_rows``."""
    source = inspect.getsource(levels.merge)
    assert "_region_batches(" in source
    assert "_region_rows" not in source


def test_oracle_shares_nothing_with_the_engine():
    """``tests/oracle.py`` imports no module of the read path it checks."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{a.name}" for a in node.names)
    forbidden = (
        "repro.engine", "repro.layout", "repro.storage", "repro.compression",
        "repro.query.operators", "repro.query.planner",
    )
    for module in imported:
        assert not module.startswith(forbidden), module
    assert imported & {"repro.algebra.transforms.eval_scalar"}


#: The two walkers one design split replaced, and the load's own evaluator.
ONE_SPLIT_DELETED = (
    "record_pipeline", "structural_residual", "_apply_record_pipeline",
    "_evaluate",
)


def test_one_design_split_one_render_path():
    """A design splits one way — ``split_design`` alone names the
    record-level operators — and every write renders a batch of stored
    records through ``render_region``: ``database.py`` holds no evaluator,
    nothing in ``engine/`` calls ``renderer.render(``, and the seams the
    bench's tracer patches still resolve."""
    _assert_absent_as_names(ONE_SPLIT_DELETED)
    split = inspect.getsource(table_module.split_design)
    for name, source in _sources():
        defined = int(name == os.path.join("engine", "table.py"))
        uses = source.count("RECORD_OPS") - defined * split.count("RECORD_OPS")
        assert uses == defined, name
    engine = dict(_engine_sources())
    imported = {
        alias.name
        for node in ast.walk(ast.parse(engine["database.py"]))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & {"Evaluator", "Evaluated"}
    for name, source in engine.items():
        assert "renderer.render(" not in source, name
    assert {"render", "render_region"} <= set(vars(LayoutRenderer))


ONE_WRITE_DELETED = (
    "compact_table", "_rewrite_region", "_render_level_run",
    "_merge_runs_once", "_region_batch", "_rewrite_levelled",
    "_schedule_level_compaction", "read_latency_s", "adapt_hysteresis",
)

#: Where a ``Run`` is built, and how many times: the seal's render and the
#: merge, the load (a partition's and a flat table's run), and the catalog
#: loader, once for every table shape.
RUN_BUILDERS = {
    (os.path.join("engine", "levels.py"), "sealed_run"): 1,
    (os.path.join("engine", "levels.py"), "merge"): 1,
    (os.path.join("engine", "database.py"), "_render_regions"): 2,
    (os.path.join("engine", "persistence.py"), "apply_entry_dict"): 1,
}


def _functions(tree: ast.Module):
    """Module-level functions and methods of ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node


def test_seal_and_merge_are_the_only_region_writes():
    """A region's runs change only by a seal or a merge
    (``engine/levels.py``): the flush and compaction loops, the region
    rewrite, the run render and the two unused store options are gone, a
    run's design is its ``plan`` (no overflow flag on ``Run`` or
    ``Region``), and ``Run(`` is built only by the seal, the merge, the
    load and the catalog loader. (``tests/test_trace_seams.py`` checks that
    the bench tracer's seams, ``seal_level_run`` and ``compact_levels``
    among them, still resolve.)"""
    _assert_absent_as_names(ONE_WRITE_DELETED)
    assert "overflow" not in {f.name for f in dataclasses.fields(Run)}
    assert not hasattr(Region, "overflow")
    builders = {}
    for name, source in _sources():
        tree = ast.parse(source)
        calls = {
            id(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "Run"
        }
        for fn in _functions(tree):
            inside = {id(node) for node in ast.walk(fn)} & calls
            if inside:
                builders[(name, fn.name)] = len(inside)
                calls -= inside
        assert not calls, name  # no Run( outside a function
    assert builders == RUN_BUILDERS


#: The second seal design and the reorganizer's memory of a deferred one.
ONE_SEAL_DESIGN_DELETED = (
    "OVERFLOW", "overflow_plan", "is_overflow", "overflow_row_count",
    "superseded_pending", "spill_plan", "_run_layouts",
)


def test_every_region_seals_under_its_own_design():
    """A flat table or a partition seals under its region's design, as a
    levelled region does: the row-major overflow design, its spill plan
    and its catalog spelling are gone, and so is the reorganizer's private
    copy of a deferred design (``pending_design`` survives only as the
    report key derived from the catalog). ``sealed_run`` renders under
    ``region.plan`` with no branch on the table's shape."""
    _assert_absent_as_names(ONE_SEAL_DESIGN_DELETED)
    for name, source in _sources():
        for node in ast.walk(ast.parse(source)):
            used = getattr(node, "attr", None) or getattr(node, "id", None)
            assert used != "pending_design", name
            if isinstance(node, (ast.FunctionDef, ast.arg)):
                assert "pending_design" not in (
                    getattr(node, "name", None), getattr(node, "arg", None)
                ), name
    sealed = ast.parse(inspect.getsource(levels.sealed_run)).body[0]
    (run,) = [
        node for node in ast.walk(sealed)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "Run"
    ]
    assert ast.unparse(run.args[0]) == "region.plan"
    assert not any(
        isinstance(node, ast.Name) and node.id == "design"
        for node in ast.walk(sealed)
    )


def test_stats_are_collected_a_column_at_a_time():
    """``engine/stats.py`` holds no per-record loop: no ``for`` or
    comprehension walks ``records``, nothing there sizes a record or builds
    a histogram value by value, and the one loop of collection is over the
    schema's fields and their columns — the value work is
    :func:`repro.vector.column_stats`'s."""
    source = dict(_engine_sources())["stats.py"]
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)):
            walked = {n.id for n in ast.walk(node.iter) if isinstance(n, ast.Name)}
            assert not walked & {"records", "record", "values"}, ast.unparse(node.iter)
    assert "estimated_record_size" not in source
    _assert_absent_as_names(("_build_histogram",))
    table_stats = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "TableStats"
    )
    collecting = [
        node for method in table_stats.body
        if isinstance(method, ast.FunctionDef)
        and method.name in ("collect", "from_columns")
        for node in ast.walk(method)
        if isinstance(node, (ast.For, ast.comprehension))
    ]
    assert [ast.unparse(loop.iter) for loop in collecting] == [
        "zip(schema.fields, columns)"
    ]
    assert "vector.column_stats(" in source


ONE_DECISION_DELETED = (
    "_check_partitioned", "_check_levelled", "step_background",
    "estimated_region_rewrite_ms", "rewrite_partition", "_relevel_plan",
    "_require_stored_fields", "_worst_region_cost", "_hottest_region_expr",
)

#: The region-design rule's callers: the controller's candidate filter, the
#: partition re-layout, and the one helper the levelled re-layout and the
#: deferred design change share.
REGION_RULE_CALLERS = {
    (os.path.join("engine", "adaptive.py"), "_choose_non_lossy"),
    (os.path.join("engine", "database.py"), "relayout_partition"),
    (os.path.join("engine", "levels.py"), "redesigned"),
}


def _callers(attr: str) -> set[tuple[str, str]]:
    """``(module, function)`` pairs in ``src/`` that call ``.attr(...)``."""
    found = set()
    for name, source in _sources():
        for fn in _functions(ast.parse(source)):
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == attr
                ):
                    found.add((name, fn.name))
    return found


def _scaling(tree: ast.Module, attr: str) -> set[str]:
    """Functions of ``tree`` that multiply by ``self.<attr>``."""
    return {
        fn.name
        for fn in _functions(tree)
        for node in ast.walk(fn)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        and any(
            isinstance(side, ast.Attribute) and side.attr == attr
            for side in (node.left, node.right)
        )
    }


def test_one_adaptation_path_for_every_table_shape():
    """``AdaptiveController.check`` is one decision for flat, partitioned
    and levelled tables: the per-shape checks, the second rewrite estimate
    and the unused background step are gone; the hysteresis margin and the
    amortization charge are each computed in one function; the controller
    moves data only through the reorganizer's ``reorganize``, from one
    function; the region-design rule is one function its three callers
    share; and the loop's tuning is not a constructor option."""
    _assert_absent_as_names(ONE_DECISION_DELETED)
    tree = ast.parse(inspect.getsource(adaptive))
    assert _scaling(tree, "hysteresis") == {"_gain"}
    assert _scaling(tree, "amortization_queries") == {"_amortized"}
    adaptive_py = os.path.join("engine", "adaptive.py")
    assert _callers("reorganize") == {(adaptive_py, "_apply")}
    for action in ("relayout", "relayout_partition", "compact_levels", "apply_design"):
        assert not {c for c in _callers(action) if c[0] == adaptive_py}, action
    assert _callers("region_plan") == REGION_RULE_CALLERS
    assert list(inspect.signature(adaptive.AdaptiveController).parameters) == [
        "store", "enabled", "check_interval",
    ]
    assert not {"lazy_overflow_fraction", "lazy_access_threshold"} & set(
        inspect.signature(ReorganizationManager).parameters
    )
