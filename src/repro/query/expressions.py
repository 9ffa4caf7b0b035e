"""Query predicates for the access-method API.

``scan(table, [fieldlist, predicate, order])`` (paper §4.1) takes an optional
*range predicate*. Predicates here are deliberately simple — conjunctions of
per-field ranges plus arbitrary residual conditions — because that is what
the storage layer can exploit: per-field ranges prune grid cells via the cell
directory and drive index range scans; the residual is applied per record.

A predicate can be built three ways:

* :class:`Range` / :class:`Rect` constructors (used by the geospatial
  case study: "queries retrieving square regions");
* :func:`from_scalar` — converting a parsed algebra condition such as
  ``r.lat >= 42.1 and r.lat < 42.3``;
* any object implementing the small :class:`Predicate` protocol.

Batch execution contract (the scan pipeline's hot path):

* :meth:`Predicate.compile` turns the predicate into a single Python
  closure ``record -> truthy`` built **once per scan**: ranges become
  chained comparisons (``lo <= r[i] <= hi``), conjunctions/disjunctions
  are compiled into one generated expression, and scalar residuals are
  translated from the algebra AST into Python source. The closure must
  agree with :meth:`Predicate.matches` on every record.
* :meth:`Predicate.filter_vector` is the vectorized mode: whole-column
  comparisons over typed buffers produce a boolean selection bitmap in a
  handful of C-level calls, with And/Or/Not as bitwise ops. It returns
  ``None`` whenever the predicate — or a column it touches — can't
  vectorize *exactly* (non-numeric fields, division/modulo whose per-row
  errors must surface, int/float casts that would round).

:func:`selector` is the one filter chain — scans, updates, deletes and
residual ``FilterOp`` predicates all select through it: the bitmap, else
the compiled closure. The closure only ever sees native Python scalars
(a columnar batch hands it just the :meth:`Predicate.fields_used`
columns, through ``vector.to_list``), so a row raises or passes exactly
as :meth:`Predicate.matches` would. :meth:`Predicate.matches` is the
protocol a user predicate implements; the engine reaches it only through
the default ``compile``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro import vector
from repro.algebra import ast
from repro.algebra.transforms import eval_scalar
from repro.errors import QueryError

NEG_INF = -math.inf
POS_INF = math.inf


class Predicate:
    """Protocol: record filter + prunable per-field ranges."""

    #: Can its verdict be taken on any row of comparable values without
    #: raising? Comparisons and their Boolean combinations can, so a scan
    #: may apply them to rows a tombstone then suppresses.
    total = False

    def matches(self, record: Sequence[Any], positions: Mapping[str, int]) -> bool:
        raise NotImplementedError

    def ranges(self) -> dict[str, tuple[float, float]]:
        """Per-field inclusive [lo, hi] bounds implied by this predicate.

        Only bounds that are *necessary conditions* may be returned (pruning
        with them must never drop a matching record). Fields without usable
        bounds are simply absent.
        """
        return {}

    def fields_used(self) -> set[str]:
        return set(self.ranges())

    def compile(
        self, positions: Mapping[str, int]
    ) -> Callable[[Sequence[Any]], Any]:
        """A one-argument closure equivalent to ``matches`` (built once).

        ``positions`` maps field names to tuple positions of the records
        the closure will see. The default binds :meth:`matches`; subclasses
        override with specialized closures (chained comparisons, generated
        conjunction source) that avoid per-record dict lookups and method
        dispatch.
        """
        matches = self.matches
        frozen = dict(positions)
        return lambda record: matches(record, frozen)

    def filter_vector(
        self, columns: Mapping[str, Sequence[Any]], n_rows: int
    ):
        """Boolean ndarray selection bitmap, or ``None`` to fall back.

        Must agree exactly with the compiled closure on every batch it
        accepts; the default declines so arbitrary user predicates keep
        their per-row semantics (including evaluation-order side effects).
        """
        return None


@dataclass(frozen=True)
class Range(Predicate):
    """``lo <= field <= hi`` (either bound may be infinite)."""

    field: str
    lo: float = NEG_INF
    hi: float = POS_INF
    total = True

    def __post_init__(self):
        if self.lo > self.hi:
            raise QueryError(
                f"empty range for {self.field}: [{self.lo}, {self.hi}]"
            )

    def matches(self, record: Sequence[Any], positions: Mapping[str, int]) -> bool:
        try:
            value = record[positions[self.field]]
        except KeyError:
            raise QueryError(f"unknown predicate field {self.field!r}") from None
        return self.lo <= value <= self.hi

    def ranges(self) -> dict[str, tuple[float, float]]:
        return {self.field: (self.lo, self.hi)}

    def fields_used(self) -> set[str]:
        return {self.field}

    def compile(
        self, positions: Mapping[str, int]
    ) -> Callable[[Sequence[Any]], Any]:
        try:
            i = positions[self.field]
        except KeyError:
            raise QueryError(f"unknown predicate field {self.field!r}") from None
        lo, hi = self.lo, self.hi
        if lo == NEG_INF:
            return lambda record: record[i] <= hi
        if hi == POS_INF:
            return lambda record: lo <= record[i]
        return lambda record: lo <= record[i] <= hi

    def filter_vector(
        self, columns: Mapping[str, Sequence[Any]], n_rows: int
    ):
        arr = vector.as_ndarray(columns.get(self.field))
        if arr is None:
            return None
        lo, hi = self.lo, self.hi
        if arr.dtype.kind == "i":
            # Exact integer bounds: int64 vs float64 comparisons round
            # above 2**53, so float bounds on int columns become the
            # equivalent integer comparison instead of a cast.
            if lo != NEG_INF and not isinstance(lo, int):
                lo = math.ceil(lo)
            if hi != POS_INF and not isinstance(hi, int):
                hi = math.floor(hi)
            if lo != NEG_INF and hi != POS_INF and lo > hi:
                np = vector.numpy_module()
                return np.zeros(arr.shape, dtype=bool)
        try:
            if lo == NEG_INF:
                return arr <= hi
            if hi == POS_INF:
                return arr >= lo
            return (arr >= lo) & (arr <= hi)
        except (TypeError, OverflowError):
            return None


class Rect(Predicate):
    """A conjunction of ranges — the case study's spatial rectangle."""

    total = True

    def __init__(self, bounds: Mapping[str, tuple[float, float]]):
        if not bounds:
            raise QueryError("a rectangle needs at least one bounded field")
        self._ranges = {
            name: Range(name, lo, hi) for name, (lo, hi) in bounds.items()
        }

    def matches(self, record: Sequence[Any], positions: Mapping[str, int]) -> bool:
        return all(r.matches(record, positions) for r in self._ranges.values())

    def ranges(self) -> dict[str, tuple[float, float]]:
        return {name: (r.lo, r.hi) for name, r in self._ranges.items()}

    def fields_used(self) -> set[str]:
        return set(self._ranges)

    def compile(
        self, positions: Mapping[str, int]
    ) -> Callable[[Sequence[Any]], Any]:
        return _compile_junction(
            list(self._ranges.values()), positions, " and "
        )

    def filter_vector(
        self, columns: Mapping[str, Sequence[Any]], n_rows: int
    ):
        return _vector_junction(
            list(self._ranges.values()), columns, n_rows, all_of=True
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}∈[{r.lo:g},{r.hi:g}]" for name, r in self._ranges.items()
        )
        return f"Rect({inner})"


class And(Predicate):
    """Conjunction of arbitrary predicates; ranges intersect."""

    def __init__(self, *parts: Predicate):
        if not parts:
            raise QueryError("And requires at least one predicate")
        self.parts = parts
        self.total = all(part.total for part in parts)

    def matches(self, record: Sequence[Any], positions: Mapping[str, int]) -> bool:
        return all(p.matches(record, positions) for p in self.parts)

    def ranges(self) -> dict[str, tuple[float, float]]:
        merged: dict[str, tuple[float, float]] = {}
        for part in self.parts:
            for name, (lo, hi) in part.ranges().items():
                if name in merged:
                    old_lo, old_hi = merged[name]
                    merged[name] = (max(old_lo, lo), min(old_hi, hi))
                else:
                    merged[name] = (lo, hi)
        return merged

    def fields_used(self) -> set[str]:
        used: set[str] = set()
        for part in self.parts:
            used |= part.fields_used()
        return used

    def compile(
        self, positions: Mapping[str, int]
    ) -> Callable[[Sequence[Any]], Any]:
        return _compile_junction(list(self.parts), positions, " and ")

    def filter_vector(
        self, columns: Mapping[str, Sequence[Any]], n_rows: int
    ):
        return _vector_junction(list(self.parts), columns, n_rows, all_of=True)


class Or(Predicate):
    """Disjunction; per-field ranges are the union's bounding interval."""

    def __init__(self, *parts: Predicate):
        if len(parts) < 2:
            raise QueryError("Or requires at least two predicates")
        self.parts = parts
        self.total = all(part.total for part in parts)

    def matches(self, record: Sequence[Any], positions: Mapping[str, int]) -> bool:
        return any(p.matches(record, positions) for p in self.parts)

    def ranges(self) -> dict[str, tuple[float, float]]:
        # Only fields bounded in *every* branch yield a usable range.
        all_ranges = [p.ranges() for p in self.parts]
        common = set(all_ranges[0])
        for r in all_ranges[1:]:
            common &= set(r)
        out: dict[str, tuple[float, float]] = {}
        for name in common:
            out[name] = (
                min(r[name][0] for r in all_ranges),
                max(r[name][1] for r in all_ranges),
            )
        return out

    def fields_used(self) -> set[str]:
        used: set[str] = set()
        for part in self.parts:
            used |= part.fields_used()
        return used

    def compile(
        self, positions: Mapping[str, int]
    ) -> Callable[[Sequence[Any]], Any]:
        return _compile_junction(list(self.parts), positions, " or ")

    def filter_vector(
        self, columns: Mapping[str, Sequence[Any]], n_rows: int
    ):
        return _vector_junction(
            list(self.parts), columns, n_rows, all_of=False
        )


class Not(Predicate):
    """Negation; contributes no prunable ranges."""

    def __init__(self, part: Predicate):
        self.part = part
        self.total = part.total

    def matches(self, record: Sequence[Any], positions: Mapping[str, int]) -> bool:
        return not self.part.matches(record, positions)

    def fields_used(self) -> set[str]:
        return self.part.fields_used()

    def compile(
        self, positions: Mapping[str, int]
    ) -> Callable[[Sequence[Any]], Any]:
        inner = self.part.compile(positions)
        return lambda record: not inner(record)

    def filter_vector(
        self, columns: Mapping[str, Sequence[Any]], n_rows: int
    ):
        inner = self.part.filter_vector(columns, n_rows)
        return None if inner is None else ~inner


class ScalarPredicate(Predicate):
    """Wrap an algebra scalar condition as a predicate.

    Prunable ranges are extracted from top-level conjunctions of comparisons
    between a field and a constant; everything else is evaluated per record.
    """

    def __init__(self, condition: ast.Scalar):
        self.condition = condition
        self._ranges = _extract_ranges(condition)

    def matches(self, record: Sequence[Any], positions: Mapping[str, int]) -> bool:
        return bool(eval_scalar(self.condition, record, dict(positions)))

    def ranges(self) -> dict[str, tuple[float, float]]:
        return dict(self._ranges)

    def fields_used(self) -> set[str]:
        return self.condition.fields_used()

    def compile(
        self, positions: Mapping[str, int]
    ) -> Callable[[Sequence[Any]], Any]:
        """Translate the condition AST into one Python closure.

        Comparisons, arithmetic, and logical connectives compile to native
        Python source (constants bound by name); anything the translator
        does not recognize falls back to an ``eval_scalar`` closure. The
        closure returns a bool: :func:`selector` counts a mask's rows.
        """
        bindings: dict[str, Any] = {}
        source = _scalar_source(self.condition, positions, bindings)
        if source is None:
            condition = self.condition
            frozen = dict(positions)
            return lambda record: bool(eval_scalar(condition, record, frozen))
        if not isinstance(self.condition, ast.Comparison):
            # A bare field, arithmetic or an and/or chain yields a value.
            bindings["_bool"] = bool
            source = f"_bool({source})"
        namespace = {"__builtins__": {}}
        namespace.update(bindings)
        return eval(  # noqa: S307 - source built from our own AST
            f"lambda record: {source}", namespace
        )

    def filter_vector(
        self, columns: Mapping[str, Sequence[Any]], n_rows: int
    ):
        np = vector.numpy_module()
        if np is None or not vector.numpy_enabled():
            return None
        try:
            out = _eval_vector(self.condition, columns, np)
        except (TypeError, OverflowError):
            return None
        if (
            isinstance(out, np.ndarray)
            and out.dtype == bool
            and len(out) == n_rows
        ):
            return out
        return None

    def __repr__(self) -> str:
        return f"ScalarPredicate({self.condition.to_text()})"


def from_scalar(condition: ast.Scalar) -> ScalarPredicate:
    """Convert a parsed algebra condition into a predicate."""
    return ScalarPredicate(condition)


def selector(predicate: Predicate, positions: Mapping[str, int]):
    """``batch -> selection mask`` of ``predicate`` over batches whose
    records are shaped by ``positions``: the one filter chain.

    A columnar batch takes the whole-column bitmap
    (:meth:`Predicate.filter_vector`) when the predicate vectorizes.
    Otherwise the compiled closure runs per row on native scalars: over
    the :meth:`Predicate.fields_used` columns of a columnar batch, zipped
    from ``vector.to_list`` (no whole-row transposition), or over a
    row-backed batch's tuples (and whenever ``fields_used`` is empty or
    names a field ``positions`` lacks, so ``compile`` reports it). Each
    closure is built on first use.
    """
    used = sorted(predicate.fields_used())
    narrow = bool(used) and set(used) <= set(positions)
    column_filter = row_filter = None

    def keep(batch):
        nonlocal column_filter, row_filter
        if batch.is_columnar:
            columns = batch.column_map()
            bitmap = predicate.filter_vector(columns, batch.n_rows)
            if bitmap is not None:
                return bitmap
            if narrow:
                if column_filter is None:
                    column_filter = predicate.compile(
                        {name: i for i, name in enumerate(used)}
                    )
                values = [vector.to_list(columns[name]) for name in used]
                return list(map(column_filter, zip(*values)))
        if row_filter is None:
            row_filter = predicate.compile(positions)
        return list(map(row_filter, batch.rows()))

    return keep


# ---------------------------------------------------------------------------
# predicate compilation helpers
# ---------------------------------------------------------------------------

_COMPARISON_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ARITH_OPS = {"+": "+", "-": "-", "*": "*", "/": "/", "%": "%"}


def _scalar_source(
    expr: ast.Scalar, positions: Mapping[str, int], bindings: dict[str, Any]
) -> str | None:
    """Python source for a scalar AST over ``record``, or None if some node
    has no translation (the caller then falls back to ``eval_scalar``).

    Constants are bound by generated name in ``bindings`` rather than
    embedded as literals, so arbitrary values (strings, infinities) work.
    """
    if isinstance(expr, ast.Const):
        name = f"_c{len(bindings)}"
        bindings[name] = expr.value
        return name
    if isinstance(expr, ast.FieldRef):
        if expr.name not in positions:
            return None
        return f"record[{positions[expr.name]}]"
    if isinstance(expr, ast.Comparison):
        op = _COMPARISON_OPS.get(expr.op)
        left = _scalar_source(expr.left, positions, bindings)
        right = _scalar_source(expr.right, positions, bindings)
        if op is None or left is None or right is None:
            return None
        return f"({left} {op} {right})"
    if isinstance(expr, ast.Arith):
        op = _ARITH_OPS.get(expr.op)
        left = _scalar_source(expr.left, positions, bindings)
        right = _scalar_source(expr.right, positions, bindings)
        if op is None or left is None or right is None:
            return None
        return f"({left} {op} {right})"
    if isinstance(expr, ast.Logical):
        parts = [
            _scalar_source(operand, positions, bindings)
            for operand in expr.operands
        ]
        if any(part is None for part in parts):
            return None
        if expr.op == "not":
            return f"(not {parts[0]})"
        if expr.op in ("and", "or"):
            return "(" + f" {expr.op} ".join(parts) + ")"
        return None
    return None


def _compile_junction(
    parts: Sequence[Predicate], positions: Mapping[str, int], joiner: str
) -> Callable[[Sequence[Any]], Any]:
    """One closure combining ``parts`` with ``and``/``or`` short-circuiting.

    Each part compiles once; the combination is generated source calling
    the bound sub-closures, so an N-way conjunction is a single frame with
    native short-circuit evaluation rather than an ``all()`` of dispatches.
    """
    if len(parts) == 1:
        return parts[0].compile(positions)
    namespace: dict[str, Any] = {"__builtins__": {}}
    terms = []
    for i, part in enumerate(parts):
        if isinstance(part, Range) and part.field in positions:
            # Inline ranges as chained comparisons instead of calls.
            name_lo, name_hi = f"_lo{i}", f"_hi{i}"
            position = positions[part.field]
            if part.lo == NEG_INF:
                namespace[name_hi] = part.hi
                terms.append(f"(record[{position}] <= {name_hi})")
            elif part.hi == POS_INF:
                namespace[name_lo] = part.lo
                terms.append(f"({name_lo} <= record[{position}])")
            else:
                namespace[name_lo] = part.lo
                namespace[name_hi] = part.hi
                terms.append(
                    f"({name_lo} <= record[{position}] <= {name_hi})"
                )
        else:
            namespace[f"_p{i}"] = part.compile(positions)
            terms.append(f"_p{i}(record)")
    return eval(  # noqa: S307 - source assembled from fixed templates
        f"lambda record: {joiner.join(terms)}", namespace
    )


def _vector_junction(
    parts: Sequence[Predicate],
    columns: Mapping[str, Sequence[Any]],
    n_rows: int,
    all_of: bool,
):
    """Combine per-part selection bitmaps bitwise (And/Rect/Or).

    All-or-nothing: one non-vectorizable part sends the whole junction to
    the closure fallback, keeping short-circuit evaluation-order semantics
    intact for mixed predicates.
    """
    mask = None
    for part in parts:
        other = part.filter_vector(columns, n_rows)
        if other is None:
            return None
        if mask is None:
            mask = other
        elif all_of:
            mask = mask & other
        else:
            mask = mask | other
    return mask


# Vectorized scalar-AST evaluation. Division and modulo are deliberately
# absent: their per-row errors (ZeroDivisionError) must surface exactly
# where the row-at-a-time closure would raise them.
_VECTOR_COMPARISON_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_VECTOR_ARITH_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}

#: Largest magnitude allowed through vectorized int arithmetic/casts.
#: Int sums/products beyond this could wrap in int64 (or round through
#: float64) where python ints would not — those expressions fall back.
_INT_SAFE_BOUND = 2**62
_FLOAT_EXACT_INT = 2**53


def _int_bound(value, np) -> int | None:
    """Conservative |max| of an int operand, or None when not int-like."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind != "i":
            return None
        if value.size == 0:
            return 0
        return max(abs(int(value.min())), abs(int(value.max())))
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value)
    return None


def _eval_vector(expr: ast.Scalar, columns: Mapping[str, Sequence[Any]], np):
    """Evaluate a scalar AST column-wise; ndarray/scalar result, or None
    when any node would change semantics under vectorization."""
    if isinstance(expr, ast.Const):
        value = expr.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        return value
    if isinstance(expr, ast.FieldRef):
        return vector.as_ndarray(columns.get(expr.name))
    if isinstance(expr, ast.Comparison):
        op = _VECTOR_COMPARISON_OPS.get(expr.op)
        left = _eval_vector(expr.left, columns, np)
        right = _eval_vector(expr.right, columns, np)
        if op is None or left is None or right is None:
            return None
        return _compare_vector(expr.op, op, left, right, np)
    if isinstance(expr, ast.Arith):
        op = _VECTOR_ARITH_OPS.get(expr.op)
        left = _eval_vector(expr.left, columns, np)
        right = _eval_vector(expr.right, columns, np)
        if op is None or left is None or right is None:
            return None
        left_bound = _int_bound(left, np)
        right_bound = _int_bound(right, np)
        if left_bound is not None and right_bound is not None:
            # All-int arithmetic: guard int64 wraparound. (Anything
            # involving a float converts through float64 exactly as the
            # row-at-a-time closure does, so no guard is needed there.)
            if expr.op == "*":
                if left_bound * right_bound >= _INT_SAFE_BOUND:
                    return None
            elif left_bound + right_bound >= _INT_SAFE_BOUND:
                return None
        elif (left_bound or right_bound or 0) > _FLOAT_EXACT_INT:
            # Int operand wider than float64's exact range meeting a
            # float operand: python would compute exactly, float64 won't.
            return None
        if not isinstance(left, np.ndarray) and not isinstance(right, np.ndarray):
            return None
        return op(left, right)
    if isinstance(expr, ast.Logical):
        operands = [
            _eval_vector(operand, columns, np) for operand in expr.operands
        ]
        if any(
            not isinstance(o, np.ndarray) or o.dtype != bool for o in operands
        ):
            return None
        if expr.op == "not":
            return ~operands[0]
        if expr.op == "and":
            out = operands[0]
            for o in operands[1:]:
                out = out & o
            return out
        if expr.op == "or":
            out = operands[0]
            for o in operands[1:]:
                out = out | o
            return out
        return None
    return None


def _compare_vector(op_name: str, op, left, right, np):
    """Whole-column comparison with int/float exactness guards."""
    left_arr = isinstance(left, np.ndarray)
    right_arr = isinstance(right, np.ndarray)
    if not left_arr and not right_arr:
        return None
    if left_arr and right_arr:
        if left.dtype.kind != right.dtype.kind:
            ints = left if left.dtype.kind == "i" else right
            if _int_bound(ints, np) > _FLOAT_EXACT_INT:
                return None
        return op(left, right)
    # Normalize to array-op-scalar.
    if not left_arr:
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
        return _compare_vector(
            flipped[op_name],
            _VECTOR_COMPARISON_OPS[flipped[op_name]],
            right,
            left,
            np,
        )
    arr, value = left, right
    if arr.dtype.kind == "i" and isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            # Orderings against ±inf/nan survive the int→float cast.
            return op(arr, value)
        if value != int(value):
            # Exact integer rewrite of a fractional bound.
            floor = math.floor(value)
            if op_name == "=":
                return np.zeros(arr.shape, dtype=bool)
            if op_name == "!=":
                return np.ones(arr.shape, dtype=bool)
            if op_name in ("<", "<="):
                return arr <= floor
            return arr >= floor + 1
        value = int(value)
    if arr.dtype.kind == "f" and isinstance(value, int):
        if abs(value) > _FLOAT_EXACT_INT:
            return None
        value = float(value)
    return op(arr, value)


def _extract_ranges(condition: ast.Scalar) -> dict[str, tuple[float, float]]:
    out: dict[str, tuple[float, float]] = {}
    for comparison in _conjuncts(condition):
        bound = _bound_of(comparison)
        if bound is None:
            continue
        name, lo, hi = bound
        if name in out:
            old_lo, old_hi = out[name]
            out[name] = (max(old_lo, lo), min(old_hi, hi))
        else:
            out[name] = (lo, hi)
    return out


def _conjuncts(condition: ast.Scalar) -> list[ast.Scalar]:
    if isinstance(condition, ast.Logical) and condition.op == "and":
        parts: list[ast.Scalar] = []
        for operand in condition.operands:
            parts.extend(_conjuncts(operand))
        return parts
    return [condition]


def _bound_of(
    comparison: ast.Scalar,
) -> tuple[str, float, float] | None:
    if not isinstance(comparison, ast.Comparison):
        return None
    left, right, op = comparison.left, comparison.right, comparison.op
    if isinstance(left, ast.Const) and isinstance(right, ast.FieldRef):
        # Normalize "c op field" to "field op' c".
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
        left, right, op = right, left, flipped[op]
    if not (isinstance(left, ast.FieldRef) and isinstance(right, ast.Const)):
        return None
    if not isinstance(right.value, (int, float)) or isinstance(right.value, bool):
        return None
    value = float(right.value)
    if op == "=":
        return left.name, value, value
    if op == "<":
        return left.name, NEG_INF, value
    if op == "<=":
        return left.name, NEG_INF, value
    if op == ">":
        return left.name, value, POS_INF
    if op == ">=":
        return left.name, value, POS_INF
    return None  # "!=" prunes nothing
