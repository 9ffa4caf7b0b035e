"""Tests for the algebra's transforms: the reference interpreter's
(``tests/reference.py``) and the nesting operations of
``repro.algebra.transforms``.

Each transform is checked against the definitional comprehension the paper
gives for it (§3.5), plus inverse/idempotence properties via hypothesis.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import (
    Evaluator,
    columns_records,
    delta_records,
    evaluate,
    fold_records,
    fold_records_nested_loops,
    grid_records,
    hilbert_grid,
    prejoin_records,
    project_records,
    select_records,
    undelta_records,
    unfold_records,
    zorder_grid,
)
from repro.algebra import ast
from repro.algebra.comprehension import OrderByClause, comprehend
from repro.algebra.parser import parse, parse_condition
from repro.algebra.transforms import (
    chunk_nesting,
    delta_list,
    eval_scalar,
    transpose_matrix,
    undelta_list,
)
from repro.algebra.validation import prejoined_fields
from repro.errors import AlgebraError
from repro.workloads import SALES_SCHEMA, generate_sales

T = [
    (2139, 617, "32 Vassar St"),
    (2142, 617, "1 Broadway"),
    (10001, 212, "350 5th Ave"),
    (2139, 617, "77 Mass Ave"),
]
POS = {"zip": 0, "area": 1, "addr": 2}
SALES = generate_sales(4_000)
SALES_POS = {name: i for i, name in enumerate(SALES_SCHEMA.names())}

records_strategy = st.lists(
    st.tuples(
        st.integers(0, 50), st.integers(0, 5), st.integers(-100, 100)
    ),
    max_size=40,
)


class TestEvalScalar:
    def test_field_and_const(self):
        assert eval_scalar(ast.FieldRef("area"), T[0], POS) == 617
        assert eval_scalar(ast.Const(5), T[0], POS) == 5

    def test_unknown_field(self):
        with pytest.raises(AlgebraError):
            eval_scalar(ast.FieldRef("nope"), T[0], POS)

    def test_comparisons(self):
        cond = parse_condition("r.area = 617")
        assert eval_scalar(cond, T[0], POS) is True
        assert eval_scalar(cond, T[2], POS) is False

    def test_arith(self):
        expr = parse_condition("r.zip + 1")
        assert eval_scalar(expr, T[0], POS) == 2140
        assert eval_scalar(parse_condition("r.zip / 2"), T[0], POS) == 1069.5
        assert eval_scalar(parse_condition("r.zip % 10"), T[0], POS) == 9

    def test_logical_shortcuts(self):
        cond = parse_condition("r.area = 617 and r.zip = 2139")
        assert eval_scalar(cond, T[0], POS) is True
        cond = parse_condition("r.area = 212 or r.zip = 2139")
        assert eval_scalar(cond, T[0], POS) is True
        cond = parse_condition("not r.area = 617")
        assert eval_scalar(cond, T[0], POS) is False


class TestProjectSelect:
    def test_project_matches_comprehension(self):
        """project[A](N) ≡ [[r.Ai...] | \\r <- N]."""
        direct = project_records(T, POS, ["zip", "addr"])
        by_comp = comprehend(
            head=lambda e: (e["r"][0], e["r"][2]), generators=[("r", T)]
        )
        assert direct == by_comp

    def test_project_unknown_field(self):
        with pytest.raises(AlgebraError):
            project_records(T, POS, ["nope"])

    def test_select_matches_comprehension(self):
        cond = parse_condition("r.area = 617")
        direct = select_records(T, POS, cond)
        by_comp = comprehend(
            head=lambda e: e["r"],
            generators=[("r", T)],
            conditions=[lambda e: e["r"][1] == 617],
        )
        assert direct == by_comp


class TestFold:
    def test_fold_matches_paper_definition(self):
        """fold_{B,A}(N) ≡ [r.A, [r'.B | r.A = r'.A] | \\r <- N] (dedup A)."""
        direct = fold_records(T, POS, ["zip", "addr"], ["area"])
        assert direct == [
            (617, [(2139, "32 Vassar St"), (2142, "1 Broadway"),
                   (2139, "77 Mass Ave")]),
            (212, [(10001, "350 5th Ave")]),
        ]

    def test_fold_single_nest_field_gives_scalars(self):
        direct = fold_records(T, POS, ["zip"], ["area"])
        assert direct == [(617, [2139, 2142, 2139]), (212, [10001])]

    def test_nested_loops_equals_hash(self):
        """Algorithm 1 (nested loops) == the hash strategy (§4.2)."""
        a = fold_records(T, POS, ["zip", "addr"], ["area"])
        b = fold_records_nested_loops(T, POS, ["zip", "addr"], ["area"])
        assert a == b

    @given(records_strategy)
    def test_nested_loops_equals_hash_property(self, records):
        positions = {"a": 0, "b": 1, "c": 2}
        fast = fold_records(records, positions, ["c"], ["b"])
        slow = fold_records_nested_loops(records, positions, ["c"], ["b"])
        assert fast == slow

    def test_fold_keeps_every_sale(self):
        folded = fold_records(SALES, SALES_POS, ["quantity", "price"], ["zipcode"])
        assert sum(len(row[-1]) for row in folded) == len(SALES)

    def test_nested_loops_equals_hash_on_sales(self):
        records = SALES[:800]
        fields = ["quantity", "price"]
        assert fold_records_nested_loops(
            records, SALES_POS, fields, ["zipcode"]
        ) == fold_records(records, SALES_POS, fields, ["zipcode"])

    def test_hash_makes_one_pass_nested_loops_one_per_group(self):
        """"Rather than using nested for loops, a hash-join like algorithm
        could be used" (§4.2): on 800 sales grouped by zipcode, the hash
        strategy reads its input once, Algorithm 1 once more per group. The
        test above checks the two give the same folds."""

        class PassCounter(list):
            passes = 0

            def __iter__(self):
                self.passes += 1
                return super().__iter__()

        records = PassCounter(SALES[:800])
        fast = fold_records(records, SALES_POS, ["quantity", "price"], ["zipcode"])
        assert records.passes == 1
        records.passes = 0
        fold_records_nested_loops(
            records, SALES_POS, ["quantity", "price"], ["zipcode"]
        )
        assert records.passes == 1 + len(fast)

    @given(records_strategy)
    def test_unfold_inverts_fold_up_to_grouping(self, records):
        positions = {"a": 0, "b": 1, "c": 2}
        folded = fold_records(records, positions, ["a", "c"], ["b"])
        unfolded = unfold_records(folded, 1, 2)
        # unfold(fold(N)) reorders records by group but preserves multiset
        # of the projected fields (b, a, c).
        expected = sorted((r[1], r[0], r[2]) for r in records)
        assert sorted(unfolded) == expected


class TestDelta:
    def test_paper_delta_definition(self):
        """∆([3,5,6]) = [3, 2, 1]: differences between subsequent elements."""
        assert delta_list([3, 5, 6]) == [3, 2, 1]

    def test_delta_empty_and_single(self):
        assert delta_list([]) == []
        assert delta_list([7]) == [7]

    @given(st.lists(st.integers(-(10**9), 10**9), max_size=100))
    def test_undelta_inverts_delta(self, values):
        assert undelta_list(delta_list(values)) == values

    @given(records_strategy)
    def test_undelta_records_inverts(self, records):
        positions = {"a": 0, "b": 1, "c": 2}
        encoded = delta_records(records, positions, ["a", "c"])
        assert undelta_records(encoded, positions, ["a", "c"]) == [
            tuple(r) for r in records
        ]

    def test_delta_records_first_absolute(self):
        records = [(10, 1), (13, 1), (11, 1)]
        out = delta_records(records, {"x": 0, "y": 1}, ["x"])
        assert out == [(10, 1), (3, 1), (-2, 1)]


class TestPrejoin:
    def test_matches_comprehension(self):
        """prejoin ≡ [[r1, r2] | \\r1 <- N1, \\r2 <- N2, join match]."""
        left = [(1, "a"), (2, "b")]
        right = [(1, 10.0), (1, 20.0), (3, 30.0)]
        direct = prejoin_records(
            left, {"k": 0, "s": 1}, right, {"k": 0, "v": 1}, "k"
        )
        by_comp = comprehend(
            head=lambda e: tuple(e["r1"]) + tuple(e["r2"]),
            generators=[("r1", left), ("r2", right)],
            conditions=[lambda e: e["r1"][0] == e["r2"][0]],
        )
        assert sorted(direct) == sorted(by_comp)

    def test_missing_join_attr(self):
        with pytest.raises(AlgebraError):
            prejoin_records([(1,)], {"a": 0}, [(1,)], {"b": 0}, "a")

    def test_prejoined_fields_rename_duplicates(self):
        fields = prejoined_fields(["k", "x"], ["k", "x", "y"])
        assert fields == ("k", "x", "k_2", "x_2", "y")


class TestTranspose:
    def test_paper_example(self):
        """transpose([[1,2,3],[4,5,6]]) = [[1,4],[2,5],[3,6]]."""
        assert transpose_matrix([[1, 2, 3], [4, 5, 6]]) == [
            [1, 4], [2, 5], [3, 6]
        ]

    def test_ragged_rejected(self):
        with pytest.raises(AlgebraError):
            transpose_matrix([[1], [2, 3]])

    def test_empty(self):
        assert transpose_matrix([]) == []

    @given(
        st.integers(1, 6).flatmap(
            lambda width: st.lists(
                st.lists(st.integers(), min_size=width, max_size=width),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_involution(self, matrix):
        assert transpose_matrix(transpose_matrix(matrix)) == [
            list(row) for row in matrix
        ]


class TestGrid:
    RECS = [(0, 0), (5, 5), (12, 3), (25, 25), (13, 14)]
    POS2 = {"x": 0, "y": 1}

    def test_cells_partition_records(self):
        grid = grid_records(self.RECS, self.POS2, ["x", "y"], [10, 10])
        flat = [r for cell in grid.cells for r in cell]
        assert sorted(flat) == sorted(self.RECS)

    def test_row_major_cell_order(self):
        grid = grid_records(self.RECS, self.POS2, ["x", "y"], [10, 10])
        assert grid.coords == sorted(grid.coords)

    def test_cell_bounds(self):
        grid = grid_records(self.RECS, self.POS2, ["x", "y"], [10, 10])
        bounds = grid.cell_bounds((1, 0))
        assert bounds == [(10.0, 20.0), (0.0, 10.0)]

    def test_records_fall_in_own_bounds(self):
        grid = grid_records(self.RECS, self.POS2, ["x", "y"], [10, 10])
        for coord, cell in zip(grid.coords, grid.cells):
            bounds = grid.cell_bounds(coord)
            for record in cell:
                for (lo, hi), value in zip(bounds, record):
                    assert lo <= value < hi

    def test_matches_partitionby_comprehension(self):
        """grid ≡ [r | \\r <- N, partitionby r.A1 s1, r.A2 s2] (§3.6)."""
        from repro.algebra.comprehension import PartitionByClause

        grid = grid_records(self.RECS, self.POS2, ["x"], [10])
        by_comp = comprehend(
            head=lambda e: e["r"],
            generators=[("r", self.RECS)],
            clauses=[PartitionByClause(lambda e: e["r"][0], stride=10)],
        )
        assert sorted(map(tuple, (map(tuple, c) for c in grid.cells))) == sorted(
            map(tuple, (map(tuple, c) for c in by_comp))
        )

    def test_unknown_dim(self):
        with pytest.raises(AlgebraError):
            grid_records(self.RECS, self.POS2, ["z"], [10])

    def test_explicit_origin(self):
        grid = grid_records(self.RECS, self.POS2, ["x", "y"], [10, 10],
                            origin=(0, 0))
        assert grid.origin == (0.0, 0.0)

    def test_zorder_reorders_cells_by_morton(self):
        from repro.curves.zorder import zorder_sort_key

        grid = grid_records(self.RECS, self.POS2, ["x", "y"], [5, 5])
        z = zorder_grid(grid)
        keys = [zorder_sort_key(c) for c in z.coords]
        assert keys == sorted(keys)
        assert sorted(map(tuple, z.coords)) == sorted(map(tuple, grid.coords))

    def test_hilbert_preserves_cells(self):
        grid = grid_records(self.RECS, self.POS2, ["x", "y"], [5, 5])
        h = hilbert_grid(grid)
        assert sorted(map(tuple, h.coords)) == sorted(map(tuple, grid.coords))

    def test_hilbert_requires_2d(self):
        grid = grid_records(self.RECS, self.POS2, ["x"], [5])
        with pytest.raises(AlgebraError):
            hilbert_grid(grid)

    @given(
        st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                 min_size=1, max_size=60)
    )
    def test_grid_partition_property(self, records):
        grid = grid_records(records, self.POS2, ["x", "y"], [7, 13])
        flat = [r for cell in grid.cells for r in cell]
        assert sorted(flat) == sorted(records)
        # Every record's coordinate matches its cell's coordinate.
        for coord, cell in zip(grid.coords, grid.cells):
            for record in cell:
                assert grid.coord_of(record, self.POS2) == coord


class TestChunk:
    def test_1d(self):
        assert chunk_nesting([1, 2, 3, 4, 5], [2]) == [[1, 2], [3, 4], [5]]

    def test_2d(self):
        matrix = [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]
        chunks = chunk_nesting(matrix, [2, 2])
        assert chunks == [
            [[1, 2], [5, 6]],
            [[3, 4], [7, 8]],
            [[9, 10]],
            [[11, 12]],
        ]

    def test_chunk_preserves_leaves(self):
        from repro.types.values import flatten

        matrix = [[i * 4 + j for j in range(4)] for i in range(4)]
        chunks = chunk_nesting(matrix, [2, 2])
        assert sorted(flatten(chunks)) == sorted(flatten(matrix))


class TestColumns:
    def test_single_field_groups_flat(self):
        """N_c gives flat value lists per column (paper §3.3)."""
        cols = columns_records(T, POS, [("zip",), ("area",)])
        assert cols == [
            [2139, 2142, 10001, 2139],
            [617, 617, 212, 617],
        ]

    def test_multi_field_group_tuples(self):
        cols = columns_records(T, POS, [("zip", "area")])
        assert cols == [[(r[0], r[1]) for r in T]]


class TestEvaluator:
    TABLES = {"T": (T, ("zip", "area", "addr"))}

    def test_tableref(self):
        out = evaluate(parse("T"), self.TABLES)
        assert out.value == T
        assert out.fields == ("zip", "area", "addr")

    def test_unknown_table(self):
        with pytest.raises(AlgebraError):
            evaluate(parse("Nope"), self.TABLES)

    def test_project_pipeline(self):
        out = evaluate(parse("project[zip](select[r.area = 617](T))"),
                       self.TABLES)
        assert out.value == [(2139,), (2142,), (2139,)]

    def test_append(self):
        out = evaluate(parse("append[zip2=r.zip * 2](T)"), self.TABLES)
        assert out.fields[-1] == "zip2"
        assert out.value[0][-1] == 4278

    def test_orderby_then_groupby(self):
        out = evaluate(parse("groupby[area](orderby[zip](T))"), self.TABLES)
        assert out.kind == "grouped"
        # zip order: 2139, 2139, 2142, 10001 -> area groups 617 then 212.
        assert [len(g) for g in out.value] == [3, 1]

    def test_limit_on_grouped(self):
        out = evaluate(parse("limit[1](groupby[area](T))"), self.TABLES)
        assert len(out.value) == 1

    def test_fold_unfold_roundtrip(self):
        out = evaluate(parse("unfold(fold[zip, addr; area](T))"), self.TABLES)
        assert sorted(out.value) == sorted(
            (r[1], r[0], r[2]) for r in T
        )

    def test_delta_without_fields_requires_nesting(self):
        with pytest.raises(AlgebraError):
            evaluate(parse("delta(T)"), self.TABLES)

    def test_delta_on_literal(self):
        out = evaluate(parse("delta([3, 5, 6])"), {})
        assert out.value == [3, 2, 1]

    def test_zorder_requires_grid_or_matrix(self):
        with pytest.raises(AlgebraError):
            evaluate(parse("zorder(T)"), self.TABLES)

    def test_zorder_on_literal_matrix(self):
        out = evaluate(parse("zorder([[1, 2], [3, 4]])"), {})
        assert out.value == [1, 2, 3, 4]  # z-order of a 2x2 block

    def test_grid_pipeline_with_delta_and_compress(self):
        expr = parse(
            "compress[varint; zip](delta[zip](zorder("
            "grid[zip, area],[100, 100](project[zip, area](T)))))"
        )
        out = evaluate(expr, self.TABLES)
        assert out.kind == "grid"
        assert out.meta["cell_order"] == "zorder"
        assert out.meta["delta_fields"] == ("zip",)
        assert out.meta["codecs"][("zip",)] == "varint"

    def test_transpose_of_records(self):
        out = evaluate(parse("transpose(project[zip, area](T))"), self.TABLES)
        assert out.value == [
            [2139, 2142, 10001, 2139],
            [617, 617, 212, 617],
        ]

    def test_columns_defaults_to_dsm(self):
        out = evaluate(parse("columns(T)"), self.TABLES)
        assert len(out.value) == 3
        assert out.meta["column_groups"] == (("zip",), ("area",), ("addr",))

    def test_mirror_evaluates_both(self):
        out = evaluate(parse("mirror(rows(T), columns(T))"), self.TABLES)
        assert out.kind == "mirror"
        assert out.meta["left"].kind == "records"
        assert out.meta["right"].kind == "columns"

    def test_rows_flattens_grouped(self):
        out = evaluate(parse("rows(groupby[area](T))"), self.TABLES)
        assert out.kind == "records"
        assert sorted(out.value) == sorted(T)

    def test_partition_by_expression(self):
        out = evaluate(parse("partition[r.zip % 2](T)"), self.TABLES)
        assert out.kind == "grouped"
        assert len(out.value) == 2

    def test_unfold_requires_folded(self):
        with pytest.raises(AlgebraError):
            evaluate(parse("unfold(T)"), self.TABLES)

    def test_intro_example_sales(self):
        """zorder(grid[y, z](N)) from the paper's introduction."""
        sales = [(2001, 2139), (2001, 2142), (2002, 2139), (2003, 10001)]
        out = evaluate(
            parse("zorder(grid[y, z],[1, 1](N))"),
            {"N": (sales, ("y", "z"))},
        )
        assert out.kind == "grid"
        flat = [r for cell in out.value for r in cell]
        assert sorted(flat) == sorted(sales)
