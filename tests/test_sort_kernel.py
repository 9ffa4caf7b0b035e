"""Kernel equivalence for order-by and top-k.

The oracle is ``multisort`` — one stable ``list.sort`` per key over row
tuples, which is what the scan path ran before the ordering became a
vector kernel. The properties: :func:`repro.vector.sort_indexes` produces the oracle's
permutation (values *and* tie order) for every column shape, direction mix
and limit; :func:`repro.layout.renderer.sort_batches` over any split of the
rows into batches produces the head of the oracle's full sort; and both
hold identically with numpy on and off.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import multisort
from repro import vector
from repro.layout.renderer import ColumnBatch, sort_batches

I64_MIN, I64_MAX = -(2**63), 2**63 - 1
INF = float("inf")


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


# ---------------------------------------------------------------------------
# strategies: one column = (kind, python values); few distinct values, so
# ties (and therefore stability) are the common case
# ---------------------------------------------------------------------------

small_ints = st.integers(-3, 3)
int64s = st.one_of(
    small_ints, st.sampled_from([I64_MIN, I64_MIN + 1, -1, 0, I64_MAX - 1, I64_MAX])
)
floats = st.one_of(
    st.integers(-3, 3).map(lambda v: v / 2),
    st.sampled_from([-0.0, 0.0, INF, -INF, 1e308, 5e-324, float(2**53)]),
)
mixed = st.one_of(small_ints, floats, st.sampled_from([2**53, 2**53 + 1, 2**64]))

COLUMN_KINDS = {
    "typed_int": int64s,
    "typed_float": floats,
    "int_list": int64s,
    "float_tuple": floats,
    "big_int_list": st.one_of(small_ints, st.sampled_from([2**64, -(2**64)])),
    "strings": st.text(alphabet="abB é", max_size=2),
    "bools": st.booleans(),
    "mixed": mixed,
}


@st.composite
def tables(draw, max_rows=40):
    """``(kinds, columns)``: 1-4 parallel columns of python values."""
    n = draw(st.integers(0, max_rows))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=4))
    columns = [
        draw(st.lists(COLUMN_KINDS[kind], min_size=n, max_size=n)) for kind in kinds
    ]
    return kinds, columns


def shaped(kind, values):
    """The vector shape a column of this kind travels in (built under the
    *current* numpy setting, like a fresh store's batches)."""
    if kind == "typed_int":
        return vector.from_values(values, "q")
    if kind == "typed_float":
        return vector.from_values(values, "d")
    if kind == "float_tuple":
        return tuple(values)
    return list(values)


def oracle_order(columns, descending, limit=None):
    """Row positions in ``multisort`` order (a serial column rides along,
    so tie order is part of the answer)."""
    n = len(columns[0])
    rows = list(zip(*columns, range(n)))
    ordered = multisort(rows, list(range(len(columns))), descending)
    return [row[-1] for row in ordered][:limit]


def limits_for(n):
    return [None, 0, 1, max(1, n // 3), n, n + 3]


# ---------------------------------------------------------------------------
# sort_indexes ≡ multisort
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(tables(), st.data())
def test_sort_indexes_matches_multisort(table, data):
    kinds, columns = table
    descending = [data.draw(st.booleans()) for _ in kinds]
    n = len(columns[0])
    for limit in limits_for(n):
        want = oracle_order(columns, descending, limit)

        def check():
            keys = [shaped(k, c) for k, c in zip(kinds, columns)]
            return [int(i) for i in vector.sort_indexes(keys, descending, limit)]

        with_numpy, without = both_shapes(check)
        assert with_numpy == want, (kinds, descending, limit)
        assert without == want, (kinds, descending, limit)


@pytest.mark.parametrize("descending", [False, True])
def test_int64_extremes(descending):
    values = [0, I64_MIN, I64_MAX, -1, I64_MIN, I64_MAX, 1]
    want = oracle_order([values], [descending])

    def check():
        key = vector.from_values(values, "q")
        return [int(i) for i in vector.sort_indexes([key], [descending])]

    assert both_shapes(check) == [want, want]


def test_signed_zeros_and_equal_ints_floats_are_ties():
    # -0.0 == 0.0 and 1 == 1.0 == True: input order decides, both ways.
    for values in ([0.0, -0.0, 0.0, -1.0], [1, 1.0, True, 0, 1.0]):
        for descending in (False, True):
            want = oracle_order([values], [descending])

            def check():
                return [
                    int(i)
                    for i in vector.sort_indexes([list(values)], [descending])
                ]

            assert both_shapes(check) == [want, want]


def test_empty_input_and_zero_limit():
    def check():
        empty = vector.sort_indexes([vector.from_values([], "q")], [False])
        none = vector.sort_indexes([[3, 1, 2]], [True], 0)
        return [len(empty), len(none)]

    assert both_shapes(check) == [[0, 0], [0, 0]]


def test_take_gathers_every_shape():
    def check():
        indexes = vector.sort_indexes([[2, 0, 1]], [False])
        return [
            vector.to_list(vector.take(vec, indexes))
            for vec in (
                vector.from_values([10, 20, 30], "q"),
                vector.from_values([1.5, 2.5, 3.5], "d"),
                ["a", "b", "c"],
                (True, False, None),
            )
        ]

    want = [[20, 30, 10], [2.5, 3.5, 1.5], ["b", "c", "a"], [False, None, True]]
    assert both_shapes(check) == [want, want]


def test_unorderable_keys_raise_like_the_oracle():
    for check in (
        lambda: vector.sort_indexes([[1, None, 2]], [False]),
        lambda: multisort([(1,), (None,), (2,)], [0]),
    ):
        with pytest.raises(TypeError):
            check()


# ---------------------------------------------------------------------------
# sort_batches over any batch split ≡ head of the full sort
# ---------------------------------------------------------------------------


def make_batch(rng, fields, kinds, rows):
    """``rows`` as one ColumnBatch in a random physical shape: row-backed,
    columnar, or columnar under a selection bitmap (decoy rows masked out)."""
    shape = rng.choice(["rows", "columns", "selected"]) if rows else "rows"
    if shape == "rows":
        return ColumnBatch.from_rows(fields, list(rows))
    if shape == "selected":
        mask = [True] * len(rows)
        rows = list(rows)
        for _ in range(rng.randint(1, 4)):
            at = rng.randrange(len(rows) + 1)
            rows.insert(at, rows[rng.randrange(len(rows))])
            mask.insert(at, False)
    columns = [shaped(k, list(c)) for k, c in zip(kinds, zip(*rows))]
    batch = ColumnBatch.from_columns(fields, columns)
    if shape == "selected":
        if vector.numpy_enabled() and rng.random() < 0.5:
            mask = vector.numpy_module().asarray(mask)
        batch = batch.select(mask)
    return batch


@settings(max_examples=100, deadline=None)
@given(tables(max_rows=60), st.data())
def test_streaming_topk_matches_head_of_full_sort(table, data):
    kinds, columns = table
    n = len(columns[0])
    # A serial payload column: never a key, it makes tie order observable.
    kinds = kinds + ["int_list"]
    columns = columns + [list(range(n))]
    fields = tuple(f"c{i}" for i in range(len(kinds)))
    n_keys = data.draw(st.integers(1, len(kinds) - 1))
    key_idx = data.draw(st.permutations(range(len(kinds) - 1)))[:n_keys]
    descending = [data.draw(st.booleans()) for _ in key_idx]
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)))
    seed = data.draw(st.integers(0, 2**16))
    rows = list(zip(*columns))
    full = multisort(rows, key_idx, descending)
    for limit in limits_for(n):

        def check():
            rng = random.Random(seed)
            edges = [0, *cuts, n]
            stream = (
                make_batch(rng, fields, kinds, rows[a:b])
                for a, b in zip(edges, edges[1:])
            )
            out = sort_batches(stream, fields, key_idx, descending, limit)
            assert out.fields == fields
            return out.rows()

        want = full[:limit]
        assert both_shapes(check) == [want, want], (kinds, key_idx, descending, limit)


@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("kind", ["typed_int", "typed_float", "int_list", "strings"])
def test_bound_keeps_rows_tied_on_the_leading_key(kind, descending):
    """A late row that only ties the worst kept row on the leading key can
    still win on the next key: the bound drops strictly-worse rows only."""
    lead = {"strings": ["m", "m", "m", "z" if not descending else "a"]}.get(
        kind, [5, 5, 5, 9 if not descending else 1]
    )
    if kind == "typed_float":
        lead = [float(v) for v in lead]
    second = [9, 8, 1, 0]
    rows = list(zip(lead, second))
    fields = ("a", "b")

    def check():
        stream = (
            ColumnBatch.from_columns(
                fields,
                [shaped(kind, lead[a:b]), shaped("typed_int", second[a:b])],
            )
            for a, b in ((0, 2), (2, 4))
        )
        return sort_batches(stream, fields, [0, 1], [descending, False], 1).rows()

    want = multisort(rows, [0, 1], [descending, False])[:1]
    assert want == [(lead[2], 1)]
    assert both_shapes(check) == [want, want]


def test_streaming_topk_holds_a_bounded_number_of_rows(monkeypatch):
    """O(limit + batch) memory: what reaches each re-selection is at most
    the rows kept so far plus one batch, however long the stream."""
    seen = []
    real = vector.sort_indexes

    def spy(keys, descending, limit=None):
        seen.append(len(keys[0]))
        return real(keys, descending, limit)

    rng = random.Random(5)
    fields = ("k", "serial")
    batches = [
        ColumnBatch.from_columns(
            fields,
            [
                vector.from_values([rng.randrange(1000) for _ in range(100)], "q"),
                vector.from_values(list(range(b * 100, b * 100 + 100)), "q"),
            ],
        )
        for b in range(50)
    ]
    rows = [row for batch in batches for row in batch.rows()]
    monkeypatch.setattr(vector, "sort_indexes", spy)
    out = sort_batches(iter(batches), fields, [0], [True], limit=7)
    assert out.rows() == multisort(rows, [0], [True])[:7]
    assert max(seen) <= 2 * 7 + 100
