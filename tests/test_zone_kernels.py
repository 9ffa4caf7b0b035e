"""Kernel equivalence for the columnar synopsis.

``zone_may_match`` and ``field_zone`` below are the per-zone pruning rule
and the per-value build loop the engine used before zone maps became
struct-of-arrays tables — kept here, verbatim in behaviour, as the oracle.
The properties: :meth:`ZoneTable.keep_mask` decides every zone exactly as
the oracle does, the build reduction finds the oracle's min / max / null
count, and both hold bit-exactly with numpy on and off.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import vector
from repro.engine.synopsis import ZoneColumn, ZoneTable

INF = float("inf")


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def field_zone(values):
    """(min, max, null count) by the old one-value-at-a-time loop."""
    low = high = None
    nulls = 0
    for value in values:
        if value is None:
            nulls += 1
        elif low is None:
            low = high = value
        elif value < low:
            low = value
        elif value > high:
            high = value
    return low, high, nulls


def _comparable(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def zone_may_match(row_count, fields, intervals):
    """False only when *no* row of the zone can satisfy the intervals.

    ``fields`` maps a summarized field to ``(min, max, null_count)``.
    """
    if row_count == 0:
        return False
    for name, (lo, hi) in intervals.items():
        if name not in fields:
            continue  # field not summarized here (e.g. delta-encoded)
        mn, mx, nulls = fields[name]
        if mn is None or mx is None:
            if nulls >= row_count:
                return False  # a range predicate cannot match nulls
            continue
        if not (_comparable(mn) and _comparable(mx)):
            continue  # non-numeric zone vs numeric bounds: keep
        if mx < lo or mn > hi:
            return False
    return True


def oracle_mask(row_counts, fields, intervals):
    return [
        zone_may_match(
            rows, {name: parts[i] for name, parts in fields.items()}, intervals
        )
        for i, rows in enumerate(row_counts)
    ]


def table_of(row_counts, fields):
    """A packed ZoneTable from ``{name: [(min, max, nulls) per zone]}``."""
    return ZoneTable(
        list(row_counts),
        {
            name: ZoneColumn(*(list(part) for part in zip(*zones)))
            for name, zones in fields.items()
        },
    ).pack()


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
# strategies
# ---------------------------------------------------------------------------

# Values within a step or two of where float64 stops holding every int
# (2**53) and of the int64 limits: a data bound and a query bound drawn
# from here collide often enough to catch a rounding comparison.
edges = st.builds(
    lambda base, off: max(-(2**63), min(2**63 - 1, base + off)),
    st.sampled_from([2**53, -(2**53), 2**60, 2**63 - 1, -(2**63)]),
    st.integers(-2, 2),
)
ints = st.one_of(st.integers(-50, 50), edges, st.integers(-(2**63), 2**63 - 1))
floats = st.one_of(
    st.floats(-50, 50),
    edges.map(float),
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, INF, -INF]),
)
bounds = st.one_of(
    ints, floats, st.sampled_from([2**64, -(2**64), 10**400, -(10**400)])
)


def ordered_pair(values):
    return st.tuples(values, values).map(sorted).map(tuple)


def zone_bounds(values):
    """One zone's (min, max, nulls) for a field of the given value kind:
    some-null, all-null or null-free."""
    return st.one_of(
        st.tuples(ordered_pair(values), st.integers(0, 3)).map(
            lambda t: (*t[0], t[1])
        ),
        st.integers(0, 6).map(lambda nulls: (None, None, nulls)),
    )


FIELD_KINDS = {
    "i": ints,
    "f": floats,
    "b": st.booleans(),
    "s": st.text("abc", max_size=2),
    "mixed": st.one_of(ints, floats),
}


@st.composite
def zone_tables(draw):
    n = draw(st.integers(0, 8))
    row_counts = draw(
        st.lists(st.integers(0, 6), min_size=n, max_size=n)
    )
    present = draw(
        st.lists(st.sampled_from(sorted(FIELD_KINDS)), unique=True)
    )
    fields = {
        name: draw(
            st.lists(zone_bounds(FIELD_KINDS[name]), min_size=n, max_size=n)
        )
        for name in present
    }
    return row_counts, fields


intervals_strategy = st.dictionaries(
    st.sampled_from(sorted(FIELD_KINDS) + ["absent"]),
    st.one_of(
        ordered_pair(bounds),
        bounds.map(lambda lo: (lo, INF)),
        bounds.map(lambda hi: (-INF, hi)),
    ),
    max_size=3,
)


# ---------------------------------------------------------------------------
# prune: keep_mask == oracle, numpy on == off
# ---------------------------------------------------------------------------


@given(table=zone_tables(), intervals=intervals_strategy)
@settings(max_examples=150, deadline=None)
def test_keep_mask_equals_per_zone_oracle(table, intervals):
    row_counts, fields = table
    expected = oracle_mask(row_counts, fields, intervals)

    def check():
        zones = table_of(row_counts, fields)
        mask = vector.to_list(zones.keep_mask(intervals))
        assert zones.pruned_indexes(intervals) == [
            i for i, kept in enumerate(mask) if not kept
        ]
        assert zones.may_match(intervals) == any(mask)
        return [bool(kept) for kept in mask]

    with_numpy, without = both_shapes(check)
    assert with_numpy == without == expected


near_2_53 = st.builds(
    lambda sign, off: sign * (2**53 + off),
    st.sampled_from([1, -1]),
    st.integers(-4, 4),
)


@given(
    entries=st.lists(ordered_pair(near_2_53), min_size=1, max_size=6),
    as_float=st.booleans(),
    query=ordered_pair(st.one_of(near_2_53, near_2_53.map(float))),
    half_open=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_disjoint_mask_is_exact_where_float64_runs_out_of_ints(
    entries, as_float, query, half_open
):
    """int64 bounds against float queries and float64 bounds against int
    queries, all within a few steps of 2**53: the vector pass must agree
    with python's exact mixed comparison, not with numpy's rounding one."""
    convert = float if as_float else int
    lows = [convert(low) for low, _ in entries]
    highs = [convert(high) for _, high in entries]
    expected = vector.disjoint_mask(lows, highs, *query, half_open=half_open)
    packed = vector.disjoint_mask(
        vector.pack(lows), vector.pack(highs), *query, half_open=half_open
    )
    assert vector.to_list(packed) == expected


def test_typed_vectors_take_the_vector_pass():
    """The property above is only worth its name if homogeneous int and
    float bounds really are packed (and Nones / bools / strings are not)."""
    if not vector.numpy_enabled():
        pytest.skip("numpy disabled")
    zones = table_of(
        [3, 3],
        {
            "i": [(1, 5, 0), (7, 9, 0)],
            "f": [(0.5, 1.5, 0), (2.0, 2.5, 1)],
            "n": [(1, 2, 0), (None, None, 3)],
            "b": [(False, True, 0), (True, True, 0)],
            "big": [(0, 2**64, 0), (1, 2, 0)],
        },
    )
    assert vector.is_typed(zones.row_counts)
    assert vector.is_typed(zones.fields["i"].mins)
    assert vector.is_typed(zones.fields["f"].maxs)
    for name in ("n", "b"):
        assert not vector.is_typed(zones.fields[name].mins)
    assert not vector.is_typed(zones.fields["big"].maxs)


def test_keep_mask_semantics():
    """The documented rules, one by one (ported from the per-zone test)."""

    def keeps(rows, field_bounds, intervals):
        return bool(
            table_of([rows], {"t": [field_bounds]}).keep_mask(intervals)[0]
        )

    assert keeps(10, (5, 20, 0), {"t": (0, 5)})  # touches min boundary
    assert keeps(10, (5, 20, 0), {"t": (20, 30)})  # touches max boundary
    assert not keeps(10, (5, 20, 0), {"t": (21, 30)})
    assert not keeps(10, (5, 20, 0), {"t": (0, 4)})
    # Unknown field: conservative keep.
    assert keeps(10, (5, 20, 0), {"other": (0, 1)})
    # Empty zone never matches.
    assert not table_of([0], {}).may_match({"t": (0, 1)})
    # All-null zone cannot satisfy a range; partially-null zones keep.
    assert not keeps(3, (None, None, 3), {"t": (0, 1)})
    assert keeps(3, (None, None, 2), {"t": (0, 1)})
    # Non-numeric / bool min/max against numeric bounds: conservative keep.
    assert keeps(3, ("a", "z", 0), {"t": (0, 1)})
    assert keeps(3, (False, True, 0), {"t": (5, 9)})
    # Exact where numpy would round: 2**53 + 1 is not a float.
    assert not keeps(1, (0, 2**53, 0), {"t": (2**53 + 1, INF)})
    assert not keeps(1, (0, 2**53 + 1, 0), {"t": (float(2**53 + 2), INF)})
    assert not keeps(1, (0.0, float(2**53), 0), {"t": (2**53 + 1, 2**60)})


# ---------------------------------------------------------------------------
# build: one reduction == the per-value loop
# ---------------------------------------------------------------------------

value_vectors = st.one_of(
    st.lists(st.one_of(st.none(), ints)),
    st.lists(st.one_of(st.none(), st.floats(allow_nan=False))),
    st.lists(st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.5, -1.5]))),
    st.lists(st.one_of(st.none(), st.booleans())),
    st.lists(st.one_of(st.none(), st.text("abc", max_size=2))),
    st.lists(st.none(), max_size=4),
)


@given(values=value_vectors)
@settings(max_examples=150, deadline=None)
def test_build_reduction_equals_per_value_loop(values):
    expected = field_zone(values)
    typed = [v for v in values if v is not None]
    code = (
        "q"
        if typed and all(type(v) is int for v in typed)
        else "d" if typed and all(type(v) is float for v in typed) else None
    )

    def check():
        out = [vector.min_max_nulls(values), vector.min_max_nulls(tuple(values))]
        packed = vector.from_values(typed, code) if code else None
        if packed is not None:  # a typed column vector, as decode yields it
            low, high, nulls = vector.min_max_nulls(packed)
            out.append((low, high, nulls + len(values) - len(typed)))
        return out

    for results in both_shapes(check):
        for low, high, nulls in results:
            # ``==`` on purpose: -0.0 and 0.0 are one bound.
            assert (low, high, nulls) == expected
            assert type(low) is type(expected[0])


@given(
    batches=st.lists(
        st.lists(st.tuples(st.one_of(st.none(), ints), floats), max_size=5),
        max_size=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_merge_rows_equals_one_zone_over_all_rows(batches):
    """The pending zone: merging batch bounds == summarizing every row."""
    running = ZoneTable()
    for batch in batches:
        if batch:
            running.merge(len(batch), ("a", "b"), list(zip(*batch)))
    rows = [row for batch in batches for row in batch]
    if not rows:
        assert len(running) == 0
        return
    assert running.row_counts == [len(rows)]
    for position, name in enumerate(("a", "b")):
        column = running.fields[name]
        got = (column.mins[0], column.maxs[0], column.null_counts[0])
        assert got == field_zone([row[position] for row in rows])


def test_exact_bounds_at_the_int64_and_float_edges():
    """Directed rounding of a query bound onto the vector's dtype."""
    if not vector.numpy_enabled():
        pytest.skip("numpy disabled")
    ints64 = vector.pack([-(2**63), 0, 2**63 - 1])
    floats64 = vector.pack([-INF, -1.0, float(2**53), INF])
    for vec in (ints64, floats64):
        values = vector.to_list(vec)
        for bound in (
            2**53 + 1, -(2**53) - 1, 2**63, -(2**63) - 1, 10**400,
            -(10**400), 0.5, -0.5, INF, -INF, float(2**63), math.nan,
        ):
            up = vector._exact_bound(vec, bound, up=True)
            down = vector._exact_bound(vec, bound, up=False)
            assert (vec < up).tolist() == [v < bound for v in values]
            assert (vec > down).tolist() == [v > bound for v in values]
            assert (vec <= down).tolist() == [v <= bound for v in values]
