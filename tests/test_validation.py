"""Tests for repro.algebra.validation (static type checking)."""

import pytest

import oracle
from repro.algebra import ast
from repro.algebra.parser import parse
from repro.algebra.validation import check, infer_scalar_type
from repro.engine.database import RodentStore
from repro.errors import TypeCheckError
from repro.query.expressions import Range
from repro.types import BOOL, FLOAT, INT, STRING, ListType, Schema

SCHEMA = Schema.of("t:int", "lat:float", "lon:float", "id:int", "name:string")
CATALOG = {"T": SCHEMA}


class TestScalarInference:
    def test_constants(self):
        assert infer_scalar_type(ast.Const(1), SCHEMA) is INT
        assert infer_scalar_type(ast.Const(1.5), SCHEMA) is FLOAT
        assert infer_scalar_type(ast.Const("x"), SCHEMA) is STRING
        assert infer_scalar_type(ast.Const(True), SCHEMA) is BOOL

    def test_field_ref(self):
        assert infer_scalar_type(ast.FieldRef("lat"), SCHEMA) is FLOAT
        with pytest.raises(TypeCheckError):
            infer_scalar_type(ast.FieldRef("nope"), SCHEMA)

    def test_comparison_compatible(self):
        c = ast.Comparison("<", ast.FieldRef("t"), ast.FieldRef("lat"))
        assert infer_scalar_type(c, SCHEMA) is BOOL

    def test_comparison_incompatible(self):
        c = ast.Comparison("=", ast.FieldRef("t"), ast.FieldRef("name"))
        with pytest.raises(TypeCheckError):
            infer_scalar_type(c, SCHEMA)

    def test_arith_promotes_to_float(self):
        expr = ast.Arith("+", ast.FieldRef("t"), ast.FieldRef("lat"))
        assert infer_scalar_type(expr, SCHEMA) is FLOAT

    def test_int_arith_stays_int(self):
        expr = ast.Arith("*", ast.FieldRef("t"), ast.Const(2))
        assert infer_scalar_type(expr, SCHEMA) is INT

    def test_division_always_float(self):
        expr = ast.Arith("/", ast.FieldRef("t"), ast.Const(2))
        assert infer_scalar_type(expr, SCHEMA) is FLOAT

    def test_arith_rejects_strings(self):
        expr = ast.Arith("+", ast.FieldRef("name"), ast.Const(1))
        with pytest.raises(TypeCheckError):
            infer_scalar_type(expr, SCHEMA)

    def test_logical_requires_bools(self):
        good = ast.Logical(
            "and",
            (
                ast.Comparison(">", ast.FieldRef("t"), ast.Const(0)),
                ast.Comparison("<", ast.FieldRef("t"), ast.Const(9)),
            ),
        )
        assert infer_scalar_type(good, SCHEMA) is BOOL
        bad = ast.Logical("and", (ast.FieldRef("t"), ast.Const(True)))
        with pytest.raises(TypeCheckError):
            infer_scalar_type(bad, SCHEMA)


class TestCheck:
    def test_table_ref(self):
        out = check(parse("T"), CATALOG)
        assert out.kind == "records"
        assert out.schema == SCHEMA

    def test_unknown_table(self):
        with pytest.raises(TypeCheckError):
            check(parse("U"), CATALOG)

    def test_project_narrows_schema(self):
        out = check(parse("project[lat, lon](T)"), CATALOG)
        assert out.schema.names() == ["lat", "lon"]

    def test_project_unknown_field(self):
        with pytest.raises(Exception):
            check(parse("project[bogus](T)"), CATALOG)

    def test_select_requires_boolean(self):
        check(parse("select[r.t > 5](T)"), CATALOG)
        with pytest.raises(TypeCheckError):
            check(parse("select[r.t + 5](T)"), CATALOG)

    def test_append_extends_schema(self):
        out = check(parse("append[t2=r.t * 2](T)"), CATALOG)
        assert out.schema.names()[-1] == "t2"
        assert out.schema.field("t2").dtype is INT

    def test_append_collision(self):
        with pytest.raises(TypeCheckError):
            check(parse("append[t=r.t](T)"), CATALOG)

    def test_fold_schema(self):
        out = check(parse("fold[lat, lon; id](T)"), CATALOG)
        assert out.kind == "folded"
        assert out.schema.names() == ["id", "__folded__"]
        assert isinstance(out.schema.field("__folded__").dtype, ListType)

    def test_unfold_restores(self):
        out = check(parse("unfold(fold[lat, lon; id](T))"), CATALOG)
        assert out.kind == "records"
        assert out.schema.names() == ["id", "lat", "lon"]

    def test_unfold_requires_folded(self):
        with pytest.raises(TypeCheckError):
            check(parse("unfold(T)"), CATALOG)

    def test_grid_requires_numeric_dims(self):
        out = check(parse("grid[lat, lon],[1, 1](T)"), CATALOG)
        assert out.kind == "grid"
        assert out.meta["grid"]["dims"] == ("lat", "lon")
        with pytest.raises(TypeCheckError):
            check(parse("grid[name],[1](T)"), CATALOG)
        with pytest.raises(TypeCheckError):
            check(parse("grid[bogus],[1](T)"), CATALOG)

    def test_zorder_sets_cell_order(self):
        out = check(parse("zorder(grid[lat, lon],[1, 1](T))"), CATALOG)
        assert out.meta["cell_order"] == "zorder"

    def test_zorder_on_records_rejected(self):
        with pytest.raises(TypeCheckError):
            check(parse("zorder(T)"), CATALOG)

    def test_hilbert_requires_2d_grid(self):
        check(parse("hilbert(grid[lat, lon],[1, 1](T))"), CATALOG)
        with pytest.raises(TypeCheckError):
            check(parse("hilbert(grid[lat],[1](T))"), CATALOG)
        with pytest.raises(TypeCheckError):
            check(parse("hilbert(T)"), CATALOG)

    def test_delta_requires_numeric_fields(self):
        out = check(parse("delta[lat](T)"), CATALOG)
        assert out.meta["delta_fields"] == ("lat",)
        with pytest.raises(TypeCheckError):
            check(parse("delta[name](T)"), CATALOG)
        with pytest.raises(TypeCheckError):
            check(parse("delta[bogus](T)"), CATALOG)

    def test_delta_no_fields_needs_nesting(self):
        check(parse("delta([1, 2, 3])"), {})
        with pytest.raises(TypeCheckError):
            check(parse("delta(T)"), CATALOG)

    def test_orderby_unknown_field(self):
        with pytest.raises(TypeCheckError):
            check(parse("orderby[bogus](T)"), CATALOG)

    def test_orderby_records_sort_keys(self):
        out = check(parse("orderby[t DESC](T)"), CATALOG)
        assert out.meta["sort_keys"] == (("t", False),)

    def test_prejoin_schema(self):
        catalog = {
            "A": Schema.of("k:int", "x:int"),
            "B": Schema.of("k:int", "y:float"),
        }
        out = check(parse("prejoin[k](A, B)"), catalog)
        assert out.schema.names() == ["k", "x", "k_2", "y"]

    def test_prejoin_missing_attr(self):
        catalog = {
            "A": Schema.of("k:int"),
            "B": Schema.of("j:int"),
        }
        with pytest.raises(TypeCheckError):
            check(parse("prejoin[k](A, B)"), catalog)

    def test_columns_groups_validated(self):
        out = check(parse("columns[[t, id], [lat]](T)"), CATALOG)
        assert out.kind == "columns"
        with pytest.raises(TypeCheckError):
            check(parse("columns[[t], [t]](T)"), CATALOG)
        with pytest.raises(TypeCheckError):
            check(parse("columns[[bogus]](T)"), CATALOG)

    def test_compress_unknown_codec(self):
        with pytest.raises(TypeCheckError):
            check(parse("compress[nope](T)"), CATALOG)

    def test_compress_accumulates_codecs(self):
        out = check(
            parse("compress[rle; id](compress[varint; t](T))"), CATALOG
        )
        assert out.meta["codecs"] == {("t",): "varint", ("id",): "rle"}

    def test_compress_field_checked(self):
        with pytest.raises(TypeCheckError):
            check(parse("compress[rle; bogus](T)"), CATALOG)

    def test_mirror(self):
        out = check(parse("mirror(rows(T), columns(T))"), CATALOG)
        assert out.kind == "mirror"
        assert out.meta["left"].kind == "records"

    def test_groupby_grouped_kind(self):
        out = check(parse("groupby[id](T)"), CATALOG)
        assert out.kind == "grouped"

    def test_project_preserves_grid_dims(self):
        with pytest.raises(TypeCheckError):
            check(parse("project[t](grid[lat, lon],[1, 1](T))"), CATALOG)

    def test_literal_is_nesting(self):
        out = check(parse("[[1, 2]]"), {})
        assert out.kind == "nesting"
        assert out.schema is None

    def test_transpose_gives_nesting(self):
        out = check(parse("transpose(T)"), CATALOG)
        assert out.kind == "nesting"

    def test_chunk(self):
        out = check(parse("chunk[2, 2]([[1, 2], [3, 4]])"), {})
        assert out.meta["chunk_shape"] == (2, 2)


DELTA_SCHEMA = Schema.of("t:int", "x:int", "y:int", "g:int")
DELTA_ROWS = [((i * 37) % 100, (i * 53) % 100, (i * 71) % 100, i % 4) for i in range(300)]


@pytest.mark.parametrize(
    "design, refused",
    [
        ("grid[x, y],[25, 25](delta[t](orderby[t](T)))", True),
        ("zorder(grid[x, y],[25, 25](delta[t](orderby[t](T))))", True),
        ("hilbert(grid[x, y],[25, 25](delta[t](orderby[t](T))))", True),
        ("orderby[x](delta[t](orderby[t](T)))", True),
        ("fold[t, x; g](delta[t](orderby[t](T)))", True),
        ("fold[t, x; g](delta[x](T))", True),
        ("transpose(project[t](delta[t](orderby[t](T))))", True),
        ("groupby[g](compress[varint; t](delta[t](T)))", True),
        ("select[x < 50](delta[t](T))", True),
        ("project[t, x](delta[t](T))", True),
        ("delta[x](delta[t](T))", True),
        # Equivalent to delta[x, y](zorder(...)), the spelling accepted.
        ("zorder(delta[x, y](grid[x, y],[25, 25](T)))", True),
        ("hilbert(delta[x, y](grid[x, y],[25, 25](T)))", True),
        # Outermost, under layout markers, and inside a region, replica or
        # run: restored in stored order.
        ("delta[t](orderby[t](T))", False),
        ("compress[varint; t](columns(delta[t](orderby[t](T))))", False),
        ("delta[x, y](zorder(grid[x, y],[25, 25](T)))", False),
        ("delta[x, y](hilbert(grid[x, y],[25, 25](T)))", False),
        ("partition[g; hash, 2](delta[t](orderby[t](T)))", False),
        ("mirror(delta[t](T), columns(T))", False),
        ("levels[4; 4](compress[varint; t](delta[t](T)))", False),
    ],
)
def test_delta_beneath_a_reordering_operator_is_refused(design, refused):
    """A scan restores deltas in stored order. Were it not refused, each
    refused design but the two curve spellings (which have an accepted
    equivalent) would load and scan without error, returning stored deltas
    or sums taken in the wrong order. Each accepted design scans like the
    model."""
    store = RodentStore(page_size=512, pool_capacity=64)
    if refused:
        with pytest.raises(TypeCheckError, match="delta must sit above"):
            check(parse(design), {"T": DELTA_SCHEMA})
        with pytest.raises(TypeCheckError):
            store.create_table("T", DELTA_SCHEMA, layout=design)
        return
    store.create_table("T", DELTA_SCHEMA, layout=design)
    table = store.load("T", DELTA_ROWS)
    model = oracle.Model(DELTA_SCHEMA.names(), DELTA_ROWS, design)
    oracle.check_table(table, model)
    oracle.check_table(table, model, None, Range("t", 10, 15))
