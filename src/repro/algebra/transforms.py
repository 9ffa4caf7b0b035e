"""Scalar evaluation and the nesting operations of the storage algebra.

:func:`eval_scalar` evaluates a condition or computed element against one
record; the scan predicates, the partition router and the level policy's
key share it. The rest are the operators an array design (paper §3.5.3)
applies to a nesting — ``delta`` of a flat list, ``transpose``, ``chunk`` —
and a grid's geometry (:class:`CellGrid`), which
:mod:`repro.layout.columnar` uses when it renders a design from columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.algebra import ast
from repro.errors import AlgebraError

Positions = dict


# ---------------------------------------------------------------------------
# Scalar evaluation
# ---------------------------------------------------------------------------


def eval_scalar(expr: ast.Scalar, record: Sequence[Any], positions: Positions) -> Any:
    """Evaluate a scalar expression against one record.

    Args:
        expr: the scalar AST.
        record: the record tuple.
        positions: field name -> tuple position mapping.
    """
    if isinstance(expr, ast.Const):
        return expr.value
    if isinstance(expr, ast.FieldRef):
        try:
            return record[positions[expr.name]]
        except KeyError:
            raise AlgebraError(
                f"unknown field {expr.name!r}; available: {sorted(positions)}"
            ) from None
    if isinstance(expr, ast.Comparison):
        left = eval_scalar(expr.left, record, positions)
        right = eval_scalar(expr.right, record, positions)
        return _COMPARATORS[expr.op](left, right)
    if isinstance(expr, ast.Arith):
        left = eval_scalar(expr.left, record, positions)
        right = eval_scalar(expr.right, record, positions)
        return _ARITHMETIC[expr.op](left, right)
    if isinstance(expr, ast.Logical):
        if expr.op == "not":
            return not eval_scalar(expr.operands[0], record, positions)
        if expr.op == "and":
            return all(
                eval_scalar(op, record, positions) for op in expr.operands
            )
        return any(eval_scalar(op, record, positions) for op in expr.operands)
    raise AlgebraError(f"cannot evaluate scalar expression {expr!r}")


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


# ---------------------------------------------------------------------------
# Nestings
# ---------------------------------------------------------------------------


def delta_list(values: Sequence[float]) -> list[float]:
    """``∆(N)`` over a flat list: first value absolute, then differences.

    ``∆([3, 5, 6]) == [3, 2, 1]``.
    """
    out: list[float] = []
    prev = 0
    for i, v in enumerate(values):
        out.append(v if i == 0 else v - prev)
        prev = v
    return out


def undelta_list(deltas: Sequence[float]) -> list[float]:
    """Inverse of :func:`delta_list` (prefix sums)."""
    out: list[float] = []
    acc = 0
    for i, d in enumerate(deltas):
        acc = d if i == 0 else acc + d
        out.append(acc)
    return out


def transpose_matrix(matrix: Sequence[Sequence[Any]]) -> list[list[Any]]:
    """``transpose(N)`` — [[1,2,3],[4,5,6]] becomes [[1,4],[2,5],[3,6]]."""
    if not matrix:
        return []
    widths = {len(row) for row in matrix}
    if len(widths) != 1:
        raise AlgebraError("transpose requires a rectangular nesting")
    return [list(col) for col in zip(*matrix)]


@dataclass
class CellGrid:
    """A grid's geometry.

    Attributes:
        coords: integer cell coordinates along each dimension, one entry
            per cell.
        dims: the gridded field names.
        strides: cell extent along each dimension.
        origin: minimum attribute value along each dimension.
    """

    coords: list[tuple[int, ...]]
    dims: tuple[str, ...]
    strides: tuple[float, ...]
    origin: tuple[float, ...]

    def cell_bounds(self, coord: Sequence[int]) -> list[tuple[float, float]]:
        """[lo, hi) attribute bounds of the cell at ``coord``."""
        return [
            (o + c * s, o + (c + 1) * s)
            for o, c, s in zip(self.origin, coord, self.strides)
        ]


def _normalized_coords(
    coords: Sequence[tuple[int, ...]],
) -> list[tuple[int, ...]]:
    """Shift coordinates to be non-negative for curve encoding."""
    if not coords:
        return []
    ndims = len(coords[0])
    mins = [min(c[d] for c in coords) for d in range(ndims)]
    return [tuple(c[d] - mins[d] for d in range(ndims)) for c in coords]


def chunk_nesting(nesting: Sequence[Any], shape: Sequence[int]) -> list:
    """``chunk[c1..ck](N)`` — split an array into fixed-shape chunks.

    For a 1-D shape, splits a flat list into runs; for higher dimensions,
    tiles the array and emits chunks in row-major chunk order, each chunk a
    nested list of the given shape (edge chunks may be smaller).
    """
    if len(shape) == 1:
        size = shape[0]
        return [
            list(nesting[i : i + size]) for i in range(0, len(nesting), size)
        ]
    outer, inner_shape = shape[0], shape[1:]
    row_groups = [
        list(nesting[i : i + outer]) for i in range(0, len(nesting), outer)
    ]
    chunks: list = []
    for group in row_groups:
        # Chunk each row of the group, then zip the rows of corresponding
        # inner chunks together so every output chunk is contiguous.
        per_row = [chunk_nesting(row, inner_shape) for row in group]
        n_inner = max(len(p) for p in per_row) if per_row else 0
        for j in range(n_inner):
            chunks.append([p[j] for p in per_row if j < len(p)])
    return chunks


def default_column_groups(fields: Sequence[str]) -> tuple[tuple[str, ...], ...]:
    """Pure DSM: one group per field."""
    return tuple((f,) for f in fields)
