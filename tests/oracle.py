"""A naive model of a table — its logical rows — and the checks suites make
against it.

The engine is checked against this module, not against a second engine. It
shares nothing with the read path: no renderer, codec, page, catalog,
access decision, operator or planner (``tests/test_access.py`` pins its
imports), so an answer that agrees with it was not produced by the code it
checks. Rows are plain tuples. Predicates are evaluated by their structure —
``Range``, ``Rect``, ``And``, ``Or``, ``Not`` — and a ``ScalarPredicate``
through :func:`repro.algebra.transforms.eval_scalar`; any other predicate
through its own ``matches``, the protocol a user predicate implements.

A :class:`Model` also knows, from the layout expression, the order a scan
returns its rows in where the design fixes one: load order with flushed and
pending inserts trailing for ``T`` / ``rows(...)`` / ``columns(...)``, and a
stable sort for ``orderby[...]``; a ``groupby``, grid or curve permutes
the rows in an order the model does not fix. :func:`check_scan` compares
exactly there
(and, under a requested order, with a stable sort of that order), as a
multiset everywhere else, and under a limit as a right-sized sub-multiset
whose order keys, when the query orders, equal the model's first ``limit``.

:func:`collect_stats` is the record-at-a-time definition of a table's
statistics, which the store collects a column at a time.
"""

from __future__ import annotations

import math
from collections import Counter
from types import SimpleNamespace
from typing import Any, Sequence

from repro.algebra import ast
from repro.algebra.parser import parse
from repro.algebra.transforms import eval_scalar
from repro.query.expressions import And, Not, Or, Range, Rect, ScalarPredicate

Row = tuple
Order = Sequence[Any]  # field names or (field, ascending) pairs


def matches(predicate, row: Row, positions: dict[str, int]) -> bool:
    """Does ``row`` (shaped by ``positions``) satisfy ``predicate``?"""
    if predicate is None:
        return True
    if isinstance(predicate, Range):
        return predicate.lo <= row[positions[predicate.field]] <= predicate.hi
    if isinstance(predicate, Rect):
        return all(
            lo <= row[positions[name]] <= hi
            for name, (lo, hi) in predicate.ranges().items()
        )
    if isinstance(predicate, And):
        return all(matches(p, row, positions) for p in predicate.parts)
    if isinstance(predicate, Or):
        return any(matches(p, row, positions) for p in predicate.parts)
    if isinstance(predicate, Not):
        return not matches(predicate.part, row, positions)
    if isinstance(predicate, ScalarPredicate):
        return bool(eval_scalar(predicate.condition, row, positions))
    return bool(predicate.matches(row, positions))


def normalize_order(order: Order | None) -> list[tuple[str, bool]]:
    return [(k, True) if isinstance(k, str) else (k[0], bool(k[1]))
            for k in order or ()]


def stable_sort(rows, fields: Sequence[str], order: Order | None) -> list[Row]:
    """``rows`` ordered by ``order`` the textbook way: one stable sort per
    key, least significant first."""
    rows = list(rows)
    for name, ascending in reversed(normalize_order(order)):
        i = list(fields).index(name)
        rows.sort(key=lambda r: r[i], reverse=not ascending)
    return rows


def project(rows, fields: Sequence[str], names: Sequence[str]) -> list[Row]:
    idx = [list(fields).index(name) for name in names]
    return [tuple(r[i] for i in idx) for r in rows]


def join(left, right, pairs: Sequence[tuple[int, int]]) -> list[Row]:
    """Equi-join on ``(left position, right position)`` pairs in the order
    of a nested loop — left-major, each left row's matches in right order;
    a ``None`` key never matches."""
    by_key: dict[tuple, list] = {}
    for r in right:
        by_key.setdefault(tuple(r[j] for _, j in pairs), []).append(tuple(r))
    out = []
    for l in left:
        key = tuple(l[i] for i, _ in pairs)
        if None not in key:
            out.extend(tuple(l) + r for r in by_key.get(key, ()))
    return out


def aggregate(func: str, values: list):
    """SQL aggregates: ``None`` values are skipped, an empty input is
    ``None`` except for ``count``."""
    values = [v for v in values if v is not None]
    if func == "count":
        return len(values)
    if not values:
        return None
    if func == "avg":
        return sum(values) / len(values)
    return {"sum": sum, "min": min, "max": max}[func](values)


def group(rows, fields: Sequence[str], keys: Sequence[str], aggregates) -> list[Row]:
    """Group-by in first-seen key order. ``aggregates`` are ``(func,
    source)`` pairs, ``source`` ``None`` for ``count(*)``; without keys,
    no input rows still make one row."""
    positions = {name: i for i, name in enumerate(fields)}
    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault(tuple(row[positions[k]] for k in keys), []).append(row)
    if not keys and not groups:
        groups[()] = []
    out = []
    for key, members in groups.items():
        cells = list(key)
        for func, source in aggregates:
            if source is None:
                cells.append(len(members))
            else:
                i = positions[source]
                cells.append(aggregate(func, [m[i] for m in members]))
        out.append(tuple(cells))
    return out


# ---------------------------------------------------------------------------
# the model of one table
# ---------------------------------------------------------------------------


def _design(node: ast.Node, fields: tuple[str, ...]):
    """``(scan fields, shape, order)`` of a layout over a table whose logical
    fields are ``fields``: ``shape`` maps logical rows to the rows a scan
    returns, ``order`` is ``()`` for load order, sort keys for a stable sort
    of it, ``None`` where the design fixes no order."""
    if isinstance(node, ast.TableRef):
        return fields, (lambda rows: rows), ()
    if isinstance(node, ast.Mirror):
        left, right = _design(node.left, fields), _design(node.right, fields)
        return left[0], left[1], left[2] if left[2] == right[2] else None
    (child,) = node.children()
    names, shape, order = _design(child, fields)
    if isinstance(node, (ast.Rows, ast.Columns, ast.Compress, ast.Delta)):
        return names, shape, order
    if isinstance(node, ast.OrderBy):
        keys = tuple((k.name, k.ascending) for k in node.keys)
        return names, shape, None if order is None else keys + order
    if isinstance(node, ast.Select):
        positions = {name: i for i, name in enumerate(names)}
        keep = node.condition
        return names, (
            lambda rows: [r for r in shape(rows) if eval_scalar(keep, r, positions)]
        ), order
    if isinstance(node, (ast.Project, ast.Fold)):
        out = (
            node.fields if isinstance(node, ast.Project)
            else node.group_fields + node.nest_fields
        )
        order = order if isinstance(node, ast.Project) else None
        return tuple(out), (lambda rows: project(shape(rows), names, out)), order
    if isinstance(node, ast.Transpose):
        return ("value",), (
            lambda rows: [(v,) for column in zip(*shape(rows)) for v in column]
        ), order
    if isinstance(node, (
        ast.Grid, ast.ZOrder, ast.HilbertOrder, ast.GroupBy, ast.Partition,
        ast.Levels,
    )):  # a permutation of the rows: no order the model fixes
        return names, shape, None
    raise NotImplementedError(f"no model for {node.op_name}")


class Model:
    """A table as its logical rows, kept in scan order while the design
    fixes one (:attr:`exact`).

    ``fields`` are the scan's output fields (``fold`` reorders, ``project``
    narrows, ``transpose`` yields one ``value`` column); inserts, updates
    and deletes take logical rows and predicates over those fields, like
    the store. A keyed ``levels`` design keeps the last row per key.
    """

    def __init__(self, fields: Sequence[str], rows=(), layout: str = "T"):
        self.logical = tuple(fields)
        self.rows: list[Row] = []
        self.relayout(layout, rows)

    def relayout(self, layout: str, rows=None) -> None:
        """Re-organize under ``layout`` — from ``rows`` when given (a load),
        else from the current rows in their current order."""
        expr = parse(layout)
        self.layout = layout
        self.fields, self._shape, self._order = _design(expr, self.logical)
        levels = next((n for n in expr.walk() if isinstance(n, ast.Levels)), None)
        self._key = None if levels is None else levels.key
        if rows is not None:
            self.exact = True
            self.rows = []
            self._add(rows)
        self.exact = self.exact and self._order is not None
        if self.exact:
            self.rows = stable_sort(self.rows, self.logical, self._order)

    def load(self, rows) -> None:
        self.relayout(self.layout, rows)

    def compact(self) -> None:
        """Fold overflow and pending rows back into the main design."""
        self.relayout(self.layout)

    def insert(self, rows) -> None:
        """Inserted rows trail the stored ones (overflow, then pending), each
        batch sorted by the design's ``orderby`` keys on its own."""
        if self._order:
            rows = stable_sort(rows, self.logical, self._order)
        self._add(rows)

    def _add(self, rows) -> None:
        rows = [tuple(r) for r in rows]
        if self._key is not None:
            positions = {name: i for i, name in enumerate(self.logical)}

            def key(row):  # a NaN key is one key
                value = eval_scalar(self._key, row, positions)
                return _NAN if value != value else value

            newest = {key(r): r for r in rows}
            self.rows = [r for r in self.rows if key(r) not in newest]
            rows = list(newest.values())
        self.rows.extend(rows)

    def delete(self, predicate=None) -> int:
        """Matching rows leave; the others keep their places."""
        positions = {name: i for i, name in enumerate(self.logical)}
        kept = [r for r in self.rows if not matches(predicate, r, positions)]
        removed = len(self.rows) - len(kept)
        self.rows = kept
        return removed

    def update(self, assignments: dict, predicate=None) -> int:
        """``assignments`` map a field to a value, or to a callable of the
        row as a dict (the store's convention). Matching rows leave and
        their new versions trail the others, in the order they matched: an
        update is a delete plus an insert that no ``orderby`` sorts."""
        positions = {name: i for i, name in enumerate(self.logical)}
        kept, changed = [], []
        for row in self.rows:
            if not matches(predicate, row, positions):
                kept.append(row)
                continue
            values = list(row)
            for name, value in assignments.items():
                if callable(value):
                    value = value(dict(zip(self.logical, row)))
                values[positions[name]] = value
            changed.append(tuple(values))
        self.rows = kept
        self._add(changed)
        return len(changed)

    def scan(self, fieldlist=None, predicate=None, order=None) -> list[Row]:
        """The model's answer to ``table.scan(...)``: exact in order when
        :attr:`exact`, else one valid order among many."""
        positions = {name: i for i, name in enumerate(self.fields)}
        rows = [r for r in self._shape(self.rows) if matches(predicate, r, positions)]
        rows = stable_sort(rows, self.fields, order)
        return project(rows, self.fields, fieldlist or self.fields)


#: What every NaN compares as in :func:`comparable` rows: one object,
#: which tuples compare (and ``Counter`` hashes) by identity.
_NAN = float("nan")


def comparable(rows) -> list[Row]:
    """``rows`` with every NaN value made one and the same NaN, so rows
    compare with ``==`` as values: a NaN equals a NaN in the same field,
    and nothing else. (Two NaN objects are never equal, so a correct row
    holding one would otherwise equal no copy of itself.)"""
    return [
        row if all(v == v for v in row)
        else tuple(_NAN if v != v else v for v in row)
        for row in rows
    ]


def check_scan(
    got, model: Model, fieldlist=None, predicate=None, order=None, limit=None,
    context: Any = "",
) -> list[Row]:
    """Assert ``got`` (a scan's rows) is what ``model`` answers; returns
    ``got`` as a list.

    Exact where the model's order is (:attr:`Model.exact`); otherwise the
    same multiset — and with ``order``, the same sequence of order keys
    whenever the output carries them — and under a limit a sub-multiset of
    the right size. Rows compare as :func:`comparable` rows.
    """
    got = list(got)
    rows = comparable(got)
    out = list(fieldlist or model.fields)
    want = comparable(model.scan(None, predicate, order))
    size = len(want) if limit is None else min(max(0, limit), len(want))
    label = (
        f"{context} fieldlist={fieldlist} predicate={predicate!r} "
        f"order={order} limit={limit} layout={model.layout}"
    )
    if model.exact:
        assert rows == project(want[:size], model.fields, out), label
        return got
    assert len(got) == size, f"{len(got)} rows, model has {size}: {label}"
    full = Counter(project(want, model.fields, out))
    if limit is None:
        assert Counter(rows) == full, label
    else:
        assert not Counter(rows) - full, f"rows the model lacks: {label}"
    keys = [name for name, _ in normalize_order(order)]
    if keys and set(keys) <= set(out):
        assert project(rows, out, keys) == project(
            want[:size], model.fields, keys
        ), f"order keys differ: {label}"
    return got


def check_table(table, model: Model, fieldlist=None, predicate=None, order=None,
                limit=None, context: Any = "") -> list[Row]:
    """:func:`check_scan` of ``table.scan(...)`` with the same arguments."""
    return check_scan(
        table.scan(fieldlist, predicate, order, limit), model,
        fieldlist, predicate, order, limit, context,
    )



# ---------------------------------------------------------------------------
# table statistics, one record at a time
# ---------------------------------------------------------------------------


def collect_stats(schema, records) -> SimpleNamespace:
    """The statistics of ``records`` (row tuples in ``schema`` order), one
    record and one value at a time: the definition the store's column
    kernel must equal bit for bit.

    The result has the attributes ``stats_to_dict`` reads: ``row_count``,
    ``avg_record_width`` and ``fields``, a dict of per-field namespaces
    with ``count`` (rows, nulls included), ``nulls``, ``min_value`` /
    ``max_value`` (the first seen of equal values, NaN and ±inf skipped),
    ``distinct`` (a ``set``'s count, stopped at 100 000), ``histogram`` (32
    equal-width buckets over the finite ints and floats, not bools; none
    when the bounds are equal or the bucket width rounds to 0 or overflows)
    and ``avg_width`` (the non-null values' estimated sizes over ``count``).
    """
    fields = {
        f.name: SimpleNamespace(
            name=f.name, count=0, nulls=0, min_value=None, max_value=None,
            distinct=0, histogram=[], avg_width=0.0,
        )
        for f in schema.fields
    }
    distincts: dict[str, set] = {f.name: set() for f in schema.fields}
    numbers: dict[str, list[float]] = {f.name: [] for f in schema.fields}
    total_width = 0
    for record in records:
        total_width += schema.estimated_record_size(record)
        for f, value in zip(schema.fields, record):
            stats = fields[f.name]
            stats.count += 1
            if value is None:
                stats.nulls += 1
                continue
            if len(distincts[f.name]) < 100_000:
                distincts[f.name].add(value)
            stats.avg_width += f.dtype.estimated_size(value)
            if isinstance(value, float) and not math.isfinite(value):
                continue
            if stats.min_value is None or value < stats.min_value:
                stats.min_value = value
            if stats.max_value is None or value > stats.max_value:
                stats.max_value = value
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                numbers[f.name].append(float(value))
    for name, stats in fields.items():
        stats.distinct = len(distincts[name])
        if stats.count:
            stats.avg_width /= stats.count
        if numbers[name] and stats.min_value != stats.max_value:
            stats.histogram = _histogram(
                numbers[name], float(stats.min_value), float(stats.max_value)
            )
    n = len(records)
    return SimpleNamespace(
        row_count=n, fields=fields, avg_record_width=total_width / n if n else 0.0
    )


def _histogram(values: list[float], lo: float, hi: float, n: int = 32) -> list[int]:
    width = (hi - lo) / n
    if not 0 < width < math.inf:
        return []
    buckets = [0] * n
    for v in values:
        buckets[min(int((v - lo) / width), n - 1)] += 1
    return buckets
