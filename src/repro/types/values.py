"""Value helpers shared across the library.

Records are plain tuples; nestings are (possibly recursive) lists/tuples of
records or scalars. This module provides flattening (the paper's physical
representation φ) and depth/shape inspection for nestings.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

Record = tuple
Nesting = list


def flatten(nesting: Any) -> list:
    """The paper's physical representation φ(N).

    Recursively enumerate all entries of a nesting starting from the leftmost
    entry, producing the flat list of leaf values in storage order.
    """
    out: list = []
    _flatten_into(nesting, out)
    return out


def _flatten_into(value: Any, out: list) -> None:
    if isinstance(value, (list, tuple)):
        for item in value:
            _flatten_into(item, out)
    else:
        out.append(value)


def iter_leaves(nesting: Any) -> Iterator[Any]:
    """Lazy variant of :func:`flatten`."""
    if isinstance(nesting, (list, tuple)):
        for item in nesting:
            yield from iter_leaves(item)
    else:
        yield nesting


def depth(nesting: Any) -> int:
    """Maximum nesting depth: scalars are depth 0, ``[1,2]`` is depth 1."""
    if not isinstance(nesting, (list, tuple)):
        return 0
    if len(nesting) == 0:
        return 1
    return 1 + max(depth(item) for item in nesting)


def shape(nesting: Any) -> tuple | None:
    """Rectangular shape of a nesting, or ``None`` when ragged.

    ``shape([[1,2,3],[4,5,6]]) == (2, 3)``; a ragged nesting such as
    ``[[1],[2,3]]`` has no rectangular shape.
    """
    if not isinstance(nesting, (list, tuple)):
        return ()
    sub_shapes = {shape(item) for item in nesting}
    if len(sub_shapes) > 1 or None in sub_shapes:
        return None
    inner = sub_shapes.pop() if sub_shapes else ()
    if inner is None:
        return None
    return (len(nesting),) + inner


def count_leaves(nesting: Any) -> int:
    """Number of scalar leaves in a nesting."""
    if not isinstance(nesting, (list, tuple)):
        return 1
    return sum(count_leaves(item) for item in nesting)


def records_equal(a: Sequence[Any], b: Sequence[Any]) -> bool:
    """Structural equality tolerant of list/tuple representation mixes."""
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return False
        return all(records_equal(x, y) for x, y in zip(a, b))
    return a == b


def normalize(nesting: Any) -> Any:
    """Canonicalize a nesting: inner sequences become lists, leaves unchanged.

    Useful in tests to compare results irrespective of list/tuple mixing.
    """
    if isinstance(nesting, (list, tuple)):
        return [normalize(item) for item in nesting]
    return nesting
