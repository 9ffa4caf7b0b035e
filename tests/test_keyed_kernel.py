"""Kernel equivalence for the keyed operators: group-by and hash join.

The oracles are the code the kernel replaced, kept here: a first-seen
``dict`` for :class:`repro.vector.KeyTable`, the row-at-a-time accumulator
loop for :class:`~repro.query.operators.GroupByOp`, a nested loop for
:class:`~repro.query.operators.HashJoinOp`. The properties: ids, group rows
and join rows are the oracle's — values, their Python types (``repr``
compared, so ``0.0`` is not ``-0.0`` and ``1`` is not ``1.0``) *and* order
— for every key and value shape, however the input is cut into calls,
batches and chunks, identically with numpy on and off.

NaN keys follow ``dict``: a NaN equals only itself *as an object*, and a
typed vector hands out a fresh object per row, so every test NaN is a
fresh object too (``fresh``) — each is its own key on both sides.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import vector
from repro.layout.renderer import ColumnBatch
from repro.query import operators
from repro.query.executor import Aggregate
from repro.query.operators import GroupByOp, HashJoinOp

I64_MIN, I64_MAX = -(2**63), 2**63 - 1
INF = float("inf")
NAN = float("nan")


def both_shapes(check):
    """Run ``check`` with numpy on and off; return both results."""
    results = []
    for enabled in (True, False):
        previous = vector.set_numpy_enabled(enabled)
        try:
            results.append(check())
        finally:
            vector.set_numpy_enabled(previous)
    return results


@contextmanager
def chunk_rows(n):
    """Fold / probe ``n`` rows at a time instead of 65 536."""
    previous, operators.WINDOW_ROWS = operators.WINDOW_ROWS, n
    try:
        yield
    finally:
        operators.WINDOW_ROWS = previous


def fresh(values):
    """The values with every NaN a new object (see the module docstring)."""
    return [float("nan") if v != v else v for v in values]


# ---------------------------------------------------------------------------
# strategies: one column = (kind, python values); few distinct values, so
# repeated keys (and therefore groups and join partners) are the common case
# ---------------------------------------------------------------------------

small_ints = st.integers(-2, 2)
int64s = st.one_of(small_ints, st.sampled_from([I64_MIN, I64_MAX, 2**53 + 1]))
floats = st.one_of(
    st.integers(-2, 2).map(lambda v: v / 2),
    st.sampled_from([-0.0, 0.0, INF, -INF, float(2**53)]),
)
mixed = st.one_of(small_ints, floats, st.booleans(), st.sampled_from([2**53 + 1, 2**64]))

COLUMN_KINDS = {
    "typed_int": int64s,
    "typed_float": floats,
    "typed_nan": st.one_of(floats, st.just(NAN)),
    "strings": st.text(alphabet="ab", max_size=1),
    "nullable": st.one_of(st.none(), small_ints),
    "bools": st.booleans(),
    "mixed": mixed,
    "big_ints": st.one_of(small_ints, st.sampled_from([2**64, -(2**64)])),
    "tuple_floats": floats,
}
KINDS = sorted(COLUMN_KINDS)


def shaped(kind, values):
    """The vector shape a column of this kind travels in (built under the
    *current* numpy setting, like a fresh store's batches)."""
    if kind == "typed_int":
        return vector.from_values(values, "q")
    if kind in ("typed_float", "typed_nan"):
        return vector.from_values(values, "d")
    if kind == "tuple_floats":
        return tuple(values)
    return list(values)


@st.composite
def tables(draw, kinds=None, max_rows=30, max_columns=3):
    """``(kinds, columns)``: parallel columns of python values."""
    n = draw(st.integers(0, max_rows))
    if kinds is None:
        kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=max_columns))
    columns = [
        fresh(draw(st.lists(COLUMN_KINDS[kind], min_size=n, max_size=n)))
        for kind in kinds
    ]
    return list(kinds), columns


@st.composite
def cuts(draw, n):
    """Cut points splitting ``n`` rows into consecutive (maybe empty) runs."""
    points = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    return list(zip([0] + points, points + [n]))


def plain(ids):
    return [int(i) for i in vector.to_list(ids)]


def natives_only(rows):
    allowed = (int, float, str, bool, type(None))
    return all(type(v) in allowed for row in rows for v in row)


# ---------------------------------------------------------------------------
# KeyTable ≡ a first-seen dict
# ---------------------------------------------------------------------------


def key_of(row):
    return row[0] if len(row) == 1 else row


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_key_table_ids_match_a_first_seen_dict(data):
    kinds, columns = data.draw(tables())
    n = len(columns[0])
    calls = data.draw(cuts(n))
    rows = list(zip(*columns))
    oracle: dict = {}
    want = [oracle.setdefault(key_of(row), len(oracle)) for row in rows]
    want_keys = repr([key if type(key) is tuple else (key,) for key in oracle])

    def check():
        table = vector.KeyTable()
        got = []
        for lo, hi in calls:
            ids = table.ids([shaped(k, c[lo:hi]) for k, c in zip(kinds, columns)])
            assert len(ids) == hi - lo
            got += plain(ids)
        assert len(table) == len(oracle)
        assert natives_only(table.keys())
        return got, repr(table.keys())

    assert both_shapes(check) == [(want, want_keys)] * 2, (kinds, calls)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_key_table_lookup_finds_seen_keys_and_never_a_null(data):
    kinds, columns = data.draw(tables())
    _, others = data.draw(tables(kinds=kinds))
    oracle: dict = {}
    for row in zip(*columns):
        oracle.setdefault(key_of(row), len(oracle))
    want = [
        -1 if None in row else oracle.get(key_of(row), -1) for row in zip(*others)
    ]

    def check():
        table = vector.KeyTable()
        table.ids([shaped(k, c) for k, c in zip(kinds, columns)])
        found = table.lookup([shaped(k, c) for k, c in zip(kinds, others)])
        assert len(table) == len(oracle)  # a lookup assigns nothing
        return plain(found)

    assert both_shapes(check) == [want, want], kinds


def test_keys_that_python_calls_equal_are_one_key():
    def check():
        table = vector.KeyTable()
        first = plain(table.ids([[1, 1.0, True, 0, -0.0, 0.0, False]]))
        typed = plain(table.ids([vector.from_values([0.0, 1.0, 2.0], "d")]))
        ints = plain(table.ids([vector.from_values([2, 1, 0], "q")]))
        return first, typed, ints, repr(table.keys())

    want = ([0, 0, 0, 1, 1, 1, 1], [1, 0, 2], [2, 0, 1], "[(1,), (0,), (2.0,)]")
    assert both_shapes(check) == [want, want]


def test_an_int_beyond_float_precision_equals_no_float():
    def check():
        table = vector.KeyTable()
        table.ids([vector.from_values([2**53 + 1, 2**53], "q")])
        return plain(table.lookup([vector.from_values([2.0**53, 3.0], "d")]))

    assert both_shapes(check) == [[1, -1], [1, -1]]


# ---------------------------------------------------------------------------
# group-by ≡ the row-at-a-time accumulator loop
# ---------------------------------------------------------------------------


def oracle_group(rows, n_keys, aggregates):
    """The row loop ``GroupByOp`` ran before the kernel: per group a count
    and, per source column, non-null count / sum / min / max, updated row
    by row with Python's own ``+`` / ``<`` / ``>``; groups in first-seen
    order. ``aggregates`` are ``(func, column position or None)``."""
    states: dict = {}
    if not n_keys:
        states[()] = {"rows": 0}
    for row in rows:
        state = states.setdefault(row[:n_keys], {"rows": 0})
        state["rows"] += 1
        for i, value in enumerate(row):
            if i < n_keys or value is None:
                continue
            valid, total, low, high = state.get(i, (0, 0, None, None))
            if low is None or value < low:
                low = value
            if high is None or value > high:
                high = value
            state[i] = (valid + 1, total + value, low, high)
    out = []
    for key, state in states.items():
        result = list(key)
        for func, i in aggregates:
            valid, total, low, high = state.get(i, (0, 0, None, None))
            if i is None:
                result.append(state["rows"])
            elif func == "count":
                result.append(valid)
            elif func == "sum":
                result.append(total if valid else None)
            elif func == "avg":
                result.append(total / valid if valid else None)
            else:
                result.append(low if func == "min" else high)
        out.append(tuple(result))
    return out


class StubOp:
    """A leaf operator replaying fixed batches."""

    est_rows = 0.0

    def __init__(self, fields, make_batches):
        self.fields = tuple(fields)
        self._make = make_batches

    def batches(self):
        return iter(self._make())


BATCH_SHAPES = ("columnar", "rows", "selection", "empty-then-columnar")


def make_batch(shape, fields, kinds, columns, lo, hi):
    """Rows ``lo:hi`` of the table as batches of the given shape."""
    part = [c[lo:hi] for c in columns]
    columnar = ColumnBatch.from_columns(
        fields, [shaped(k, c) for k, c in zip(kinds, part)]
    )
    if shape == "rows":
        return [ColumnBatch.from_rows(fields, list(zip(*part)))]
    if shape == "selection":
        # Every row twice; the bitmap keeps each row's first copy.
        doubled = [[v for v in c for _ in (0, 1)] for c in part]
        wide = ColumnBatch.from_columns(
            fields, [shaped(k, c) for k, c in zip(kinds, doubled)]
        )
        mask = [True, False] * (hi - lo)
        if vector.numpy_enabled():
            mask = vector.numpy_module().asarray(mask, dtype=bool)
        return [wide.select(mask)]
    if shape == "empty-then-columnar":
        return [ColumnBatch.from_rows(fields, []), columnar]
    return [columnar]


VALUE_KINDS = {
    "typed_int": st.one_of(small_ints, st.sampled_from([2**61, -(2**61), I64_MAX])),
    "typed_float": st.one_of(floats, st.sampled_from([0.1, 0.7, 1e16, -1e16])),
    "typed_nan": st.one_of(floats, st.just(NAN)),
    "nullable": st.one_of(st.none(), small_ints, st.sampled_from([0.5, -0.0])),
    "all_null": st.none(),
    "mixed": st.one_of(small_ints, st.sampled_from([0.1, 0.7, -0.0, 0.0, 2**64])),
}
FUNCS = ("count", "sum", "avg", "min", "max")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_group_by_matches_the_row_loop(data):
    n_keys = data.draw(st.integers(0, 2))
    key_kinds = [data.draw(st.sampled_from(KINDS)) for _ in range(n_keys)]
    value_kinds = data.draw(
        st.lists(st.sampled_from(sorted(VALUE_KINDS)), min_size=1, max_size=2)
    )
    n = data.draw(st.integers(0, 30))
    columns = [
        fresh(data.draw(st.lists(COLUMN_KINDS[k], min_size=n, max_size=n)))
        for k in key_kinds
    ] + [
        fresh(data.draw(st.lists(VALUE_KINDS[k], min_size=n, max_size=n)))
        for k in value_kinds
    ]
    kinds = key_kinds + ["nullable" if k == "all_null" else k for k in value_kinds]
    fields = tuple(f"c{i}" for i in range(len(kinds)))
    picked = data.draw(
        st.lists(
            st.tuples(st.sampled_from(FUNCS), st.integers(n_keys, len(kinds) - 1)),
            min_size=1,
            max_size=4,
        )
    )
    picked.append(("count", None))
    aggregates = [
        Aggregate(func, None if i is None else fields[i], alias=f"a{j}")
        for j, (func, i) in enumerate(picked)
    ]
    batches = data.draw(cuts(n))
    shapes = [data.draw(st.sampled_from(BATCH_SHAPES)) for _ in batches]
    # Below, at and above the rows on hand: one chunk, exact, many chunks.
    chunk = data.draw(st.sampled_from([1, 3, max(1, n), n + 5]))
    want = repr(oracle_group(list(zip(*columns)), n_keys, picked))

    def check():
        def make():
            return [
                batch
                for (lo, hi), shape in zip(batches, shapes)
                for batch in make_batch(shape, fields, kinds, columns, lo, hi)
            ]

        op = GroupByOp(StubOp(fields, make), fields[:n_keys], aggregates)
        with chunk_rows(chunk):
            rows = op.rows()
        assert natives_only(rows)
        return repr(rows)

    assert both_shapes(check) == [want, want], (kinds, picked, batches, shapes, chunk)


def group(batches, keys, aggregates, fields=("g", "v"), chunk=None):
    op = GroupByOp(StubOp(fields, lambda: batches), keys, aggregates)
    with chunk_rows(chunk or operators.WINDOW_ROWS):
        return op.rows()


MIN_MAX = (Aggregate("min", "v"), Aggregate("max", "v"))


@pytest.mark.parametrize("zeros", [[0.0, -0.0], [-0.0, 0.0]])
@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("typed", [True, False])
def test_min_max_keep_the_first_of_equal_values(zeros, split, typed):
    """``0.0`` and ``-0.0`` compare equal, so neither beats the other: the
    first one in row order is both the min and the max — in one kernel
    call or across a chunk boundary, typed or not, numpy on or off."""

    def check():
        def column(values):
            return vector.from_values(values, "d") if typed else list(values)

        parts = [zeros[:1], zeros[1:]] if split else [zeros]
        batches = [
            ColumnBatch.from_columns(("g", "v"), [[7] * len(p), column(p)])
            for p in parts
        ]
        return repr(group(batches, ("g",), MIN_MAX, chunk=1 if split else None))

    want = repr([(7, zeros[0], zeros[0])])
    assert both_shapes(check) == [want, want]


def test_float_sums_are_left_to_right_across_chunk_boundaries():
    # ((0.1 + 0.2) + 0.3) + 1e16 ... differs from any regrouping.
    values = [0.1, 0.2, 0.3, 1e16, -1e16, 0.7] * 5
    total = 0
    for v in values:
        total += v
    for chunk in (1, 4, 7, len(values)):

        def check():
            batches = [
                ColumnBatch.from_columns(
                    ("g", "v"),
                    [
                        vector.from_values([1] * 3, "q"),
                        vector.from_values(values[lo : lo + 3], "d"),
                    ],
                )
                for lo in range(0, len(values), 3)
            ]
            return group(batches, ("g",), (Aggregate("sum", "v"),), chunk=chunk)

        assert both_shapes(check) == [[(1, total)]] * 2


def test_int_sums_are_exact_past_int64():
    values = [I64_MAX, I64_MAX, 5, I64_MIN, 2**62]

    def check():
        batch = ColumnBatch.from_columns(
            ("g", "v"),
            [vector.from_values([0] * 5, "q"), vector.from_values(values, "q")],
        )
        return group([batch], ("g",), (Aggregate("sum", "v"), Aggregate("avg", "v")))

    want = [(0, sum(values), sum(values) / 5)]
    assert both_shapes(check) == [want, want]


def test_keyless_aggregate_over_no_rows_is_one_row():
    aggregates = (Aggregate("count"), Aggregate("count", "v"), Aggregate("sum", "v"),
                  Aggregate("avg", "v"), Aggregate("min", "v"), Aggregate("max", "v"))
    want = [(0, 0, None, None, None, None)]
    for batches in ([], [ColumnBatch.from_rows(("g", "v"), [])]):
        assert both_shapes(lambda: group(batches, (), aggregates)) == [want, want]
    # ... and with keys, no rows means no groups.
    assert both_shapes(lambda: group([], ("g",), aggregates)) == [[], []]


def test_a_group_of_only_nulls_aggregates_to_null():
    rows = [(1, None), (2, 3), (1, None), (None, None)]
    aggregates = (Aggregate("count"), Aggregate("count", "v"), Aggregate("sum", "v"),
                  Aggregate("avg", "v"), Aggregate("min", "v"), Aggregate("max", "v"))
    want = [(1, 2, 0, None, None, None, None), (2, 1, 1, 3, 3.0, 3, 3),
            (None, 1, 0, None, None, None, None)]

    def check():
        return group([ColumnBatch.from_rows(("g", "v"), rows)], ("g",), aggregates)

    assert both_shapes(check) == [want, want]


def test_keyed_operators_buffer_at_most_a_chunk_and_a_batch(monkeypatch):
    """The fold and the probe hold ``WINDOW_ROWS`` rows plus at most the
    batch that crossed the line — whatever the length of the stream."""
    batch_rows, n_batches = 1000, 200
    g = vector.from_values([i % 5 for i in range(batch_rows)], "q")
    v = vector.from_values([1.0] * batch_rows, "d")
    stream = StubOp(
        ("g", "v"),
        lambda: (ColumnBatch.from_columns(("g", "v"), [g, v]) for _ in range(n_batches)),
    )
    held_rows = []
    merge = operators.merge_batches

    def watched(fields, held):
        held_rows.append(sum(batch.n_rows for batch in held))
        return merge(fields, held)

    monkeypatch.setattr(operators, "merge_batches", watched)
    rows = GroupByOp(stream, ("g",), (Aggregate("count"), Aggregate("sum", "v"))).rows()
    assert rows == [(k, 40_000, 40_000.0) for k in range(5)]
    assert len(held_rows) == 4  # 200 000 rows in chunks of ~65 536
    assert max(held_rows) < operators.WINDOW_ROWS + batch_rows

    held_rows.clear()
    build = StubOp(("k",), lambda: [ColumnBatch.from_columns(("k",), [[0, 1, 2]])])
    join = HashJoinOp(build, stream, ("k",), ("g",), build_left=True)
    assert sum(batch.n_rows for batch in join.batches()) == 3 * 200 * batch_rows // 5
    assert max(held_rows) < operators.WINDOW_ROWS + batch_rows


# ---------------------------------------------------------------------------
# hash join ≡ a nested loop, order included
# ---------------------------------------------------------------------------


def oracle_join(left, right, left_idx, right_idx, build_left):
    """Probe-major nested loop: probe rows in order, the partners of one
    probe row in build order; ``left_row + right_row`` either way; a key
    with a ``None`` in it joins nothing."""
    build, probe = (left, right) if build_left else (right, left)
    build_idx, probe_idx = (left_idx, right_idx) if build_left else (right_idx, left_idx)
    out = []
    for p in probe:
        wanted = tuple(p[i] for i in probe_idx)
        if None in wanted:
            continue
        for b in build:
            # Tuple equality is dict equality: identity, then ``==``.
            if tuple(b[i] for i in build_idx) == wanted:
                out.append(b + p if build_left else p + b)
    return out


def side(fields, kinds, columns, batches, shapes):
    def make():
        return [
            batch
            for (lo, hi), shape in zip(batches, shapes)
            for batch in make_batch(shape, fields, kinds, columns, lo, hi)
        ]

    return StubOp(fields, make)


@st.composite
def join_side(draw, prefix, key_kinds):
    """One join input: the key columns, then a serial payload column (so
    every row is distinguishable and order shows)."""
    kinds, columns = draw(tables(kinds=key_kinds, max_rows=12))
    n = len(columns[0])
    kinds.append("typed_int")
    columns.append(list(range(n)))
    fields = tuple(f"{prefix}{i}" for i in range(len(kinds)))
    batches = draw(cuts(n))
    shapes = [draw(st.sampled_from(BATCH_SHAPES)) for _ in batches]
    return fields, kinds, columns, batches, shapes


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_hash_join_matches_a_nested_loop_in_order(data):
    # The two sides' key columns need not have one kind: an int column
    # joins a float, a bool or a nullable one by Python equality.
    n_keys = data.draw(st.integers(1, 2))
    left = data.draw(
        join_side("l", [data.draw(st.sampled_from(KINDS)) for _ in range(n_keys)])
    )
    right = data.draw(
        join_side("r", [data.draw(st.sampled_from(KINDS)) for _ in range(n_keys)])
    )
    build_left = data.draw(st.booleans())
    chunk = data.draw(st.sampled_from([1, 4, 100]))
    key_idx = list(range(n_keys))
    want = oracle_join(
        list(zip(*left[2])), list(zip(*right[2])), key_idx, key_idx, build_left
    )

    def check():
        op = HashJoinOp(
            side(*left), side(*right), left[0][:n_keys], right[0][:n_keys], build_left
        )
        with chunk_rows(chunk):
            batches = list(op.batches())
        assert all(batch.is_columnar and batch.n_rows for batch in batches)
        rows = [row for batch in batches for row in batch.rows()]
        assert natives_only(rows)
        return repr(rows)

    assert both_shapes(check) == [repr(want)] * 2, (left, right, build_left, chunk)


def rows_op(fields, rows):
    return StubOp(fields, lambda: [ColumnBatch.from_rows(fields, rows)] if rows else [])


JOIN_CASES = {
    "one_to_one": ([(1, "a"), (2, "b")], [(2, "x"), (1, "y")]),
    "one_to_many": ([(1, "a")], [(1, "x"), (1, "y"), (1, "z")]),
    "many_to_many": ([(1, "a"), (2, "b"), (1, "c")], [(1, "x"), (2, "y"), (1, "z")]),
    "no_match": ([(1, "a")], [(2, "x")]),
    "empty_left": ([], [(1, "x")]),
    "empty_right": ([(1, "a")], []),
    "null_keys": ([(None, "a"), (1, "b")], [(None, "x"), (1, "y")]),
    "equal_across_types": ([(1, "a"), (0, "b")], [(1.0, "x"), (True, "y"), (-0.0, "z")]),
    "precision": ([(2**53 + 1, "a"), (2**53, "b")], [(2.0**53, "x")]),
}


@pytest.mark.parametrize("case", sorted(JOIN_CASES))
@pytest.mark.parametrize("build_left", [True, False])
def test_hash_join_cases(case, build_left):
    left, right = JOIN_CASES[case]
    want = oracle_join(left, right, [0], [0], build_left)

    def check():
        op = HashJoinOp(
            rows_op(("k", "l"), left), rows_op(("j", "r"), right),
            ("k",), ("j",), build_left,
        )
        return repr(op.rows())

    assert both_shapes(check) == [repr(want)] * 2


def test_typed_int_key_never_joins_the_float_beside_it():
    """No int64 → float64 cast of keys: ``2**53 + 1`` is not ``2.0**53``."""

    def check():
        left = StubOp(("k",), lambda: [ColumnBatch.from_columns(
            ("k",), [vector.from_values([2**53 + 1, 2**53, 3], "q")])])
        right = StubOp(("j",), lambda: [ColumnBatch.from_columns(
            ("j",), [vector.from_values([2.0**53, 3.0], "d")])])
        return HashJoinOp(left, right, ("k",), ("j",)).rows()

    want = [(2**53, 2.0**53), (3, 3.0)]
    assert both_shapes(check) == [want, want]


@pytest.mark.parametrize("build_left", [True, False])
def test_composite_and_three_way_joins(build_left):
    a = [(1, 1, "a0"), (1, 2, "a1"), (2, 1, "a2"), (1, None, "a3")]
    b = [(1, 2, "b0"), (1, 1, "b1"), (1, 2, "b2"), (None, 1, "b3")]
    c = [("b2", 10), ("b1", 11), ("zz", 12), ("b2", 13)]
    ab = oracle_join(a, b, [0, 1], [0, 1], build_left)
    want = oracle_join(ab, c, [5], [0], build_left)

    def check():
        first = HashJoinOp(
            rows_op(("a1", "a2", "a3"), a), rows_op(("b1", "b2", "b3"), b),
            ("a1", "a2"), ("b1", "b2"), build_left,
        )
        second = HashJoinOp(first, rows_op(("c1", "c2"), c), ("b3",), ("c1",), build_left)
        with chunk_rows(2):
            return repr(second.rows())

    assert want and both_shapes(check) == [repr(want)] * 2


def test_group_by_above_a_join_sees_typed_vectors():
    """The join gathers columns, it does not build row tuples: a typed
    probe column is still a typed vector in the batch group-by folds."""
    sales = StubOp(("cust", "price"), lambda: [ColumnBatch.from_columns(
        ("cust", "price"),
        [vector.from_values([1, 2, 1, 3], "q"), vector.from_values([1.5, 2.5, 4.0, 8.0], "d")],
    )])
    customers = rows_op(("id", "region"), [(1, "north"), (2, "south"), (3, "north")])
    join = HashJoinOp(sales, customers, ("cust",), ("id",), build_left=True)
    (batch,) = join.batches()
    assert batch.is_columnar
    assert vector.is_typed(batch.columns()[1]) == vector.numpy_enabled()
    grouped = GroupByOp(join, ("region",), (Aggregate("sum", "price"), Aggregate("count")))
    assert grouped.rows() == [("north", 13.5, 3), ("south", 2.5, 1)]
