"""The columnar write path renders what the reference interpreter renders.

A load, a seal and a merge run a design's record pipeline
(``DesignSplit.apply``), its router (``PartitionRouter.split``) and its
structural residual (``LayoutRenderer.render_region``) over columns. Here
generated rows go through every record design those paths render, and
through array designs, once that way and once the way the algebra defines
it: the pipeline as the tuple functions of ``tests/reference.py``, routing
row by row, and the residual (an array's whole expression) through its
``Evaluator``. Page images, zone tables, cell and folded directories, array
shapes and row counts must be equal — or both sides must raise the same
error — on both numpy legs.

Inputs include ``None``, NaN, ``-0.0``, the int64 bounds and ints beyond
them, values on cell boundaries, negative coordinates, and empty and
one-row input. Int and float columns are typed vectors where a load or
a merge would hand over one (every value of the column's own type, inside
int64, and for floats no NaN), lists otherwise.
"""

from itertools import chain

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reference import (
    Evaluator,
    append_records,
    from_evaluated,
    groupby_records,
    orderby_records,
    project_records,
    select_records,
)
from repro import vector
from repro.algebra import ast
from repro.algebra.interpreter import AlgebraInterpreter
from repro.algebra.parser import parse
from repro.engine.table import split_design
from repro.layout.partitioning import PartitionRouter
from repro.layout.renderer import ColumnBatch, LayoutRenderer
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.types import Schema

SCHEMA = Schema.of("a:int", "b:int", "f:float", "s:string", "g:int")
NAMES = tuple(SCHEMA.names())
I64_MIN, I64_MAX = -(2**63), 2**63 - 1

DESIGNS = [
    "T",
    "orderby[a asc, f desc](T)",
    "orderby[s desc, a](T)",
    "orderby[a](groupby[g](T))",
    "orderby[b desc](groupby[g, s](T))",
    "project[f, a](T)",
    "project[a, b](orderby[g](T))",
    "partition[r.g](T)",
    "partition[r.g](orderby[a](T))",
    "delta[a](T)",
    "delta[f](T)",
    "delta[a, f](orderby[g](T))",
    "delta[b](groupby[g](T))",
    "grid[a, b],[10, 10](T)",
    "grid[f, a],[2.5, 7](T)",
    "grid[a],[0.75](T)",
    "zorder(grid[a, b],[10, 10](T))",
    "hilbert(grid[a, b],[4, 6](T))",
    "compress[varint; a, b](delta[a, b](zorder(grid[a, b],[10, 10]"
    "(project[a, b](groupby[g](orderby[f](T)))))))",
    "fold[a, f; g](T)",
    "fold[s; g, b](T)",
    "compress[varint; a](fold[a; g](T))",
    "unfold(fold[a, f; g](T))",
    "columns(T)",
    "columns[[a, g], [f, s], [b]](T)",
    "mirror(rows(T), columns(T))",
    "mirror(orderby[a](T), columns[[a, b], [f], [s], [g]](T))",
] + [
    f"compress[{codec}; {fields}](columns(T))"
    for codec, fields in [
        ("none", "a, f, s"), ("varint", "a, b"), ("delta", "a"),
        ("bitpack", "g"), ("for", "a"), ("xor", "f"), ("rle", "g, s"),
        ("dict", "s, g"), ("lz", "s, a"),
    ]
] + [
    "compress[varint; a, b](grid[a, b],[10, 10](T))",
    "compress[xor; f](delta[f](grid[a],[10](T)))",
    "compress[rle; g](orderby[g](T))",
    # arrays: the whole expression renders one nesting
    "transpose(project[a, f](T))",
    "transpose(orderby[b desc](project[b, g](T)))",
    "chunk[3](project[a, g](T))",
    "chunk[2, 2](transpose(project[a, b](T)))",
    "[[1, 2, 3], [4, 5, 6]]",
    "delta([3, 5, 6, 2])",
    "zorder(groupby[g](project[g, a](T)))",
    "zorder(chunk[2](transpose(project[a, b](T))))",
]

INTS = st.one_of(
    st.integers(-40, 40),
    st.sampled_from([0, 10, -10, 20, I64_MIN, I64_MAX]),
)
EXOTIC_INTS = st.one_of(INTS, st.sampled_from([2**64, -(2**65)]), st.none())
FLOATS = st.one_of(
    st.floats(-30, 30, allow_nan=False),
    st.sampled_from([0.0, -0.0, 2.5, -2.5, 7.5]),
)
EXOTIC_FLOATS = st.one_of(FLOATS, st.sampled_from([float("nan"), 1e300]), st.none())


def rows_of(ints, floats):
    return st.lists(
        st.tuples(ints, ints, floats, st.sampled_from(["", "x", "yy", "Zz"]),
                  st.integers(0, 3)),
        max_size=40,
    )


@pytest.fixture(params=[True, False], ids=["numpy", "no-numpy"])
def leg(request):
    previous = vector.set_numpy_enabled(request.param)
    yield request.param
    vector.set_numpy_enabled(previous)


def _plan(design):
    return AlgebraInterpreter({"T": SCHEMA}).compile(parse(design))


def _renderer():
    return LayoutRenderer(BufferPool(DiskManager(page_size=512), capacity=64))


def _loaded_column(values, code):
    """A column as a load or a merge hands it over: typed where every value
    is of the field's own type (and a float column holds no NaN)."""
    kind = {"q": int, "d": float}.get(code)
    if kind is None or any(type(v) is not kind for v in values):
        return list(values)
    if kind is int and any(not I64_MIN <= v <= I64_MAX for v in values):
        return list(values)
    return vector.typed_column(list(values), code)


def render_columnar(plan, rows):
    """The engine's path: apply, route, render each region's batch."""
    columns = [
        _loaded_column([r[i] for r in rows], vector.typecode_for(f.dtype))
        for i, f in enumerate(SCHEMA.fields)
    ]
    split = split_design(plan)
    stored = split.apply(ColumnBatch.from_columns(NAMES, columns))
    router = PartitionRouter(plan.partition, stored.fields)
    out = []
    for locator, part in router.split(stored):
        region_plan = plan.region_template
        region = split_design(region_plan)
        if region.fields != split.fields:
            index = [stored.fields.index(f) for f in region.fields]
            part = part.project_columns(index, region.fields)
        renderer = _renderer()
        out.append((locator.key, renderer,
                    renderer.render_region(region_plan, region.residual, part)))
    return out


def _tuple_pipeline(split, rows):
    """A design's record pipeline the way the algebra defines it: the tuple
    functions over row lists (groups after a ``groupby`` kept apart until a
    flattening operator); an array's logical rows as they are."""
    if split.pipeline is None:
        return rows
    fields = list(NAMES)
    groups, grouped = [rows], False
    for op in split.pipeline:
        positions = {n: i for i, n in enumerate(fields)}
        if isinstance(op, ast.OrderBy):
            groups = [orderby_records(g, positions, op.keys) for g in groups]
        elif isinstance(op, ast.Limit):
            groups = groups[: op.count] if grouped else [groups[0][: op.count]]
        else:
            flat = list(chain.from_iterable(groups))
            grouped = isinstance(op, ast.GroupBy)
            if grouped:
                groups = groupby_records(flat, positions, op.fields)[0]
            elif isinstance(op, ast.Project):
                groups = [project_records(flat, positions, op.fields)]
                fields = list(op.fields)
            elif isinstance(op, ast.Select):
                groups = [select_records(flat, positions, op.condition)]
            else:
                groups = [append_records(flat, positions, op.elements)]
                fields += [name for name, _ in op.elements]
    flat = list(chain.from_iterable(groups))
    positions = {n: i for i, n in enumerate(fields)}
    return project_records(flat, positions, split.fields)


def render_tuples(plan, rows):
    """The reference: tuple pipeline, row-by-row routing, the tuple
    ``Evaluator`` over each region's rows."""
    split = split_design(plan)
    stored = _tuple_pipeline(split, rows)
    router = PartitionRouter(plan.partition, split.fields or NAMES)
    parts: dict = {}
    if plan.partition is None:
        parts[None] = stored
    else:
        for row in stored:
            parts.setdefault(router.locate(row).key, []).append(row)
    out = []
    for key, part in parts.items():
        region_plan = plan.region_template
        region = split_design(region_plan)
        if region.fields != split.fields:
            index = [split.fields.index(f) for f in region.fields]
            part = [tuple(r[i] for i in index) for r in part]
        evaluated = Evaluator(
            {"__stored__": (part, region.fields or NAMES)}
        ).evaluate(region.residual)
        renderer = _renderer()
        out.append((key, renderer,
                    renderer.render(region_plan, from_evaluated(evaluated))))
    return out


def _table(zones):
    if zones is None:
        return None
    return repr((
        vector.to_list(zones.row_counts),
        [(name, vector.to_list(c.mins), vector.to_list(c.maxs),
          vector.to_list(c.null_counts)) for name, c in zones.fields.items()],
    ))


def describe(renderer, layout):
    """Everything a render leaves: page images and every directory."""
    synopsis = layout.synopsis
    zones = None
    if synopsis is not None:
        zones = [_table(t) for t in (
            synopsis.page_zones, synopsis.cell_zones, synopsis.folded_zones,
            *synopsis.group_zones,
        )]
    return {
        "rows": layout.row_count,
        "pages": [bytes(renderer.disk.read_page(p)) for p in layout.page_ids()],
        "page_rows": layout.page_row_counts,
        "cells": repr([(e.coord, e.bounds, e.offset, e.length, e.row_count)
                       for e in layout.cell_directory]),
        "origin": repr(layout.grid_origin),
        "folded": layout.folded_directory,
        "keys": repr(layout.folded_keys),
        "chunks": [g.chunks for g in layout.column_groups],
        "array": repr((layout.array_shape, layout.array_values_per_page,
                       layout.array_dtype)),
        "zones": zones,
        "mirrors": [describe(renderer, m) for m in layout.mirrors],
    }


def outcome(render, plan, rows):
    try:
        return [(repr(key), describe(renderer, layout))
                for key, renderer, layout in render(plan, rows)]
    except Exception as exc:  # the reference's error is the contract
        return type(exc).__name__


def assert_same_render(design, rows):
    plan = _plan(design)
    want = outcome(render_tuples, plan, rows)
    got = outcome(render_columnar, plan, rows)
    assert got == want, design


EDGE_ROWS = [
    [],
    [(0, 0, 0.0, "", 0)],
    [(I64_MIN, I64_MAX, -0.0, "x", 1), (I64_MAX, I64_MIN, 0.0, "x", 1),
     (0, -1, 0.0, "yy", 2)],
    [(10, -10, 7.5, "x", 0), (20, 20, -2.5, "", 0), (-10, 10, 2.5, "Zz", 3),
     (10, 0, -0.0, "x", 3)],
    [(4, 1, 0.0, "x", 2), (5, 2, -0.0, "yy", 2)],  # numpy's min keeps -0.0
    [(-1, 3, -0.0, "", 0), (6, 3, 0.0, "", 0)],  # ...and here 0.0
    [(1, 2, float("nan"), "x", 0), (3, 4, 1.0, "x", 0), (5, 6, float("nan"), "", 1)],
    [(2**64, 1, None, "x", 0), (None, 2, 1.5, "yy", 1)],
]


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("rows", EDGE_ROWS, ids=range(len(EDGE_ROWS)))
def test_edge_rows_render_alike(leg, design, rows):
    assert_same_render(design, rows)


_SETTINGS = settings(
    max_examples=6, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize("design", DESIGNS)
@_SETTINGS
@given(rows=rows_of(INTS, FLOATS))
def test_generated_rows_render_alike(leg, design, rows):
    assert_same_render(design, rows)


@pytest.mark.parametrize("design", [
    "orderby[a asc, f desc](T)", "orderby[a](groupby[g](T))", "partition[r.g](T)",
    "delta[a, f](T)", "grid[f, a],[2.5, 7](T)", "fold[a, f; g](T)",
    "columns[[a, g], [f, s], [b]](T)",
])
@_SETTINGS
@given(rows=rows_of(EXOTIC_INTS, EXOTIC_FLOATS))
@example(rows=[(None, None, None, "", 0), (None, None, None, "", 0)])
def test_exotic_values_render_alike(leg, design, rows):
    assert_same_render(design, rows)
