"""Tests for repro.types.values (φ flattening, shapes) and the reference
interpreter's ``multisort``."""

from hypothesis import given
from hypothesis import strategies as st

from reference import multisort
from repro.types.values import (
    count_leaves,
    depth,
    flatten,
    iter_leaves,
    normalize,
    records_equal,
    shape,
)

nested_ints = st.recursive(
    st.integers(-100, 100),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=20,
)


class TestFlatten:
    def test_paper_physical_representation(self):
        # φ recursively enumerates entries starting from the leftmost entry.
        assert flatten([[1, 2, 3], [12, 13, 14]]) == [1, 2, 3, 12, 13, 14]

    def test_deep_nesting(self):
        assert flatten([1, [2, [3, [4]]], 5]) == [1, 2, 3, 4, 5]

    def test_scalar(self):
        assert flatten(7) == [7]

    def test_empty(self):
        assert flatten([]) == []
        assert flatten([[], []]) == []

    def test_tuples_treated_as_nestings(self):
        assert flatten([(1, 2), (3, 4)]) == [1, 2, 3, 4]

    @given(nested_ints)
    def test_iter_leaves_agrees_with_flatten(self, nesting):
        assert list(iter_leaves(nesting)) == flatten(nesting)

    @given(nested_ints)
    def test_count_leaves_matches(self, nesting):
        assert count_leaves(nesting) == len(flatten(nesting))


class TestDepthAndShape:
    def test_depth(self):
        assert depth(1) == 0
        assert depth([1, 2]) == 1
        assert depth([[1], [2]]) == 2
        assert depth([]) == 1
        assert depth([1, [2]]) == 2

    def test_shape_rectangular(self):
        assert shape([[1, 2, 3], [4, 5, 6]]) == (2, 3)
        assert shape([1, 2]) == (2,)
        assert shape(5) == ()

    def test_shape_ragged_is_none(self):
        assert shape([[1], [2, 3]]) is None
        assert shape([[1, 2], 3]) is None

    def test_shape_3d(self):
        cube = [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]
        assert shape(cube) == (2, 2, 2)


class TestMultisort:
    def test_mixed_directions(self):
        rows = [(1, "b"), (1, "a"), (2, "a")]
        out = multisort(rows, [0, 1], [False, True])
        assert out == [(1, "b"), (1, "a"), (2, "a")]

    def test_string_descending(self):
        rows = [("a",), ("c",), ("b",)]
        assert multisort(rows, [0], [True]) == [("c",), ("b",), ("a",)]

    def test_stability(self):
        rows = [(1, "x"), (1, "y"), (0, "z")]
        out = multisort(rows, [0])
        assert out == [(0, "z"), (1, "x"), (1, "y")]

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    max_size=30))
    def test_matches_python_sorted(self, rows):
        assert multisort(rows, [0, 1]) == sorted(rows, key=lambda r: (r[0], r[1]))

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    max_size=30))
    def test_single_pass_keeps_ties_in_input_order(self, pairs):
        rows = [pair + (serial,) for serial, pair in enumerate(pairs)]
        expected = sorted(rows, key=lambda r: r[1])
        expected.sort(key=lambda r: r[0])
        assert multisort(rows, [0, 1]) == expected
        assert multisort(rows, [0, 1], [False, False]) == expected

    @given(st.lists(st.tuples(st.integers(0, 5), st.text(max_size=3)),
                    max_size=30))
    def test_descending_text_matches_double_sort(self, rows):
        out = multisort(rows, [0, 1], [False, True])
        expected = sorted(rows, key=lambda r: r[1], reverse=True)
        expected.sort(key=lambda r: r[0])
        assert out == expected


class TestEqualityHelpers:
    def test_records_equal_across_list_tuple(self):
        assert records_equal([1, [2, 3]], (1, (2, 3)))
        assert not records_equal([1, 2], [1, 2, 3])
        assert not records_equal([1, [2]], [1, [3]])

    def test_normalize(self):
        assert normalize((1, (2, 3))) == [1, [2, 3]]
        assert normalize(5) == 5

    @given(nested_ints)
    def test_normalize_preserves_leaves(self, nesting):
        assert flatten(normalize(nesting)) == flatten(nesting)
