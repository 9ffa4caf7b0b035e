"""Naive oracle: the benchmark's queries evaluated over plain row lists.

The model shares nothing with ``src/repro`` — no renderer, codec, catalog or
planner — so an answer that agrees with it was not produced by the code it
checks. Tables are ``(field names, list of tuples)``; a :class:`Query` is
evaluated by the textbook pipeline filter → join → group → order → limit →
project with SQL null rules (a null never satisfies a range or matches a
join key, aggregates skip nulls, null is one group of its own).
"""

from __future__ import annotations

from dataclasses import dataclass

_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Query:
    """One read, in a form both the engine adapter and the model accept.

    ``where`` is a conjunction of closed ranges ``(field, lo, hi)``;
    ``join`` is ``(table, key)`` (equi-join on a same-named column);
    ``aggs`` maps alias to ``"func:field"`` or ``"*"`` (count);
    ``order_by`` entries are field names, ``"-"``-prefixed for descending.
    """

    table: str
    select: tuple[str, ...] = ()
    where: tuple[tuple[str, int, int], ...] = ()
    join: tuple[str, str] | None = None
    group_by: tuple[str, ...] = ()
    aggs: tuple[tuple[str, str], ...] = ()
    order_by: tuple[str, ...] = ()
    limit: int | None = None


def digest(rows, ordered: bool) -> tuple[int, int]:
    """(row count, hash) of a list of row tuples; order-insensitive unless
    ``ordered``."""
    if ordered:
        return len(rows), hash(tuple(rows)) & _MASK
    return len(rows), sum(hash(r) for r in rows) & _MASK


def empty_aggregate(q: Query) -> list[tuple]:
    """SQL's answer to a group-less aggregate over no rows: one row.

    The engine answers with no row at all; the harness reads that as this
    row, so either convention passes.
    """
    return [tuple(0 if spec == "*" or spec.startswith("count:") else None
                  for _, spec in q.aggs)]


def _matches(where, positions):
    tests = [(positions[f], lo, hi) for f, lo, hi in where]

    def ok(row):
        for i, lo, hi in tests:
            v = row[i]
            if v is None or not lo <= v <= hi:
                return False
        return True

    return ok


def _aggregate(func, values):
    values = [v for v in values if v is not None]
    if func == "count":
        return len(values)
    if not values:
        return None
    return {"sum": sum, "min": min, "max": max}[func](values)


class Model:
    """Logical contents of every table, mutated in step with the store."""

    def __init__(self):
        self.tables: dict[str, tuple[tuple[str, ...], list[tuple]]] = {}

    def create(self, name, fields, rows) -> None:
        self.tables[name] = (tuple(fields), [tuple(r) for r in rows])

    def insert(self, name, rows) -> None:
        self.tables[name][1].extend(tuple(r) for r in rows)

    def delete(self, name, where) -> int:
        fields, rows = self.tables[name]
        ok = _matches(where, {f: i for i, f in enumerate(fields)})
        kept = [r for r in rows if not ok(r)]
        removed = len(rows) - len(kept)
        rows[:] = kept
        return removed

    def update(self, name, assignments, where) -> int:
        fields, rows = self.tables[name]
        positions = {f: i for i, f in enumerate(fields)}
        ok = _matches(where, positions)
        changed = 0
        for n, row in enumerate(rows):
            if ok(row):
                new = list(row)
                for f, value in assignments.items():
                    new[positions[f]] = value
                rows[n] = tuple(new)
                changed += 1
        return changed

    def query(self, q: Query) -> list[tuple]:
        fields, rows = self.tables[q.table]
        fields = list(fields)
        positions = {f: i for i, f in enumerate(fields)}
        rows = list(filter(_matches(q.where, positions), rows))
        if q.join is not None:
            other, key = q.join
            ofields, orows = self.tables[other]
            k, ok = positions[key], ofields.index(key)
            extra = [i for i in range(len(ofields)) if i != ok]
            fields += [ofields[i] for i in extra]
            by_key: dict = {}
            for r in orows:
                if r[ok] is not None:
                    by_key.setdefault(r[ok], []).append(r)
            rows = [
                row + tuple(m[i] for i in extra)
                for row in rows
                for m in by_key.get(row[k], ())
            ]
            positions = {f: i for i, f in enumerate(fields)}
        if q.group_by or q.aggs:
            keys = [positions[f] for f in q.group_by]
            groups: dict = {}
            for row in rows:
                groups.setdefault(tuple(row[i] for i in keys), []).append(row)
            if not q.group_by and not groups:
                return empty_aggregate(q)
            out = []
            for key, members in groups.items():
                cells = list(key)
                for _, spec in q.aggs:
                    if spec == "*":
                        cells.append(len(members))
                    else:
                        func, source = spec.split(":")
                        i = positions[source]
                        cells.append(_aggregate(func, [m[i] for m in members]))
                out.append(tuple(cells))
            rows = out
            fields = list(q.group_by) + [alias for alias, _ in q.aggs]
            positions = {f: i for i, f in enumerate(fields)}
        for key in reversed(q.order_by):  # stable sorts, last key first
            i = positions[key.lstrip("-")]
            rows.sort(key=lambda r: r[i], reverse=key.startswith("-"))
        if q.limit is not None:
            rows = rows[: q.limit]
        if q.select:
            idx = [positions[f] for f in q.select]
            rows = [tuple(r[i] for i in idx) for r in rows]
        return rows
