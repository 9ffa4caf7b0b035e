"""Tests for repro.algebra.rewriter (normalization rules)."""

import pytest

from reference import evaluate
from repro.algebra import ast
from repro.algebra.parser import parse
from repro.algebra.rewriter import normalize, structurally_equal

T = [
    (2139, 617, 3),
    (2142, 617, 1),
    (10001, 212, 2),
    (2139, 617, 4),
]
TABLES = {"T": (T, ("zip", "area", "n"))}


def same_semantics(before: ast.Node, after: ast.Node) -> bool:
    """Both expressions evaluate to the same records (multiset)."""
    a = evaluate(before, TABLES)
    b = evaluate(after, TABLES)
    return sorted(map(tuple, a.records())) == sorted(map(tuple, b.records()))


class TestRules:
    def test_double_transpose_cancels(self):
        expr = parse("transpose(transpose(T))")
        assert normalize(expr) == parse("T")

    def test_double_zorder_collapses(self):
        expr = parse("zorder(zorder(grid[zip, area],[10, 10](T)))")
        assert normalize(expr) == normalize(
            parse("zorder(grid[zip, area],[10, 10](T))")
        )

    def test_double_rows_collapses(self):
        assert normalize(parse("rows(rows(T))")) == parse("rows(T)")

    def test_selects_merge(self):
        expr = parse("select[r.zip > 2000](select[r.area = 617](T))")
        normalized = normalize(expr)
        assert isinstance(normalized, ast.Select)
        assert isinstance(normalized.child, ast.TableRef)
        assert same_semantics(expr, normalized)

    def test_projects_collapse_when_subset(self):
        expr = parse("project[zip](project[zip, area](T))")
        assert normalize(expr) == parse("project[zip](T)")

    def test_projects_keep_when_not_subset(self):
        expr = parse("project[zip, area](project[zip](T))")
        normalized = normalize(expr)
        # Not a subset: inner project already dropped 'area'.
        assert isinstance(normalized, ast.Project)
        assert isinstance(normalized.child, ast.Project)

    def test_limits_take_min(self):
        expr = parse("limit[5](limit[2](T))")
        assert normalize(expr) == parse("limit[2](T)")
        expr = parse("limit[1](limit[9](T))")
        assert normalize(expr) == parse("limit[1](T)")

    def test_outer_orderby_wins(self):
        expr = parse("orderby[zip](orderby[area](T))")
        assert normalize(expr) == parse("orderby[zip](T)")

    def test_unfold_fold_becomes_project(self):
        expr = parse("unfold(fold[zip, n; area](T))")
        normalized = normalize(expr)
        assert normalized == parse("project[area, zip, n](T)")

    def test_select_pushed_below_orderby(self):
        expr = parse("select[r.area = 617](orderby[zip](T))")
        normalized = normalize(expr)
        assert isinstance(normalized, ast.OrderBy)
        assert isinstance(normalized.child, ast.Select)
        assert same_semantics(expr, normalized)

    def test_select_pushed_below_project_when_fields_available(self):
        expr = parse("select[r.zip > 2000](project[zip, area](T))")
        normalized = normalize(expr)
        assert isinstance(normalized, ast.Project)
        assert isinstance(normalized.child, ast.Select)
        assert same_semantics(expr, normalized)

    def test_select_not_pushed_when_field_dropped(self):
        expr = parse("select[r.zip > 2000](project[zip](T))")
        normalized = normalize(expr)
        # Condition reads zip which survives; this one CAN push.
        assert isinstance(normalized, ast.Project)

    def test_select_blocked_by_missing_field(self):
        # Artificial: condition uses a field the projection dropped. The
        # original expression is ill-typed anyway; rewrite must not "fix" it.
        expr = ast.Select(
            ast.Project(ast.table("T"), ("zip",)),
            ast.Comparison(">", ast.FieldRef("area"), ast.Const(0)),
        )
        normalized = normalize(expr)
        assert isinstance(normalized, ast.Select)


class TestNormalizeFixpoint:
    @pytest.mark.parametrize(
        "text",
        [
            "T",
            "zorder(grid[zip, area],[10, 10](T))",
            "project[zip](select[r.area = 617](T))",
            "columns[[zip], [area, n]](T)",
            "fold[zip; area](T)",
            "mirror(rows(T), columns(T))",
        ],
    )
    def test_idempotent(self, text):
        once = normalize(parse(text))
        assert normalize(once) == once

    def test_deep_chain(self):
        expr = parse(
            "transpose(transpose(select[r.zip > 0](select[r.area > 0]"
            "(limit[9](limit[3](T))))))"
        )
        normalized = normalize(expr)
        assert isinstance(normalized, ast.Select)
        assert isinstance(normalized.child, ast.Limit)
        assert normalized.child.count == 3

    def test_semantics_preserved_on_chain(self):
        expr = parse(
            "select[r.zip > 2000](select[r.area = 617](orderby[zip](T)))"
        )
        assert same_semantics(expr, normalize(expr))


class TestStructurallyEqual:
    def test_equal_after_rewrites(self):
        a = parse("transpose(transpose(T))")
        b = parse("T")
        assert structurally_equal(a, b)

    def test_different_expressions(self):
        assert not structurally_equal(parse("rows(T)"), parse("columns(T)"))
