"""Pruning decisions, end to end, pinned to the values of the parent commit.

For every layout kind the zone maps serve — rows, single- and multi-field
column groups, the N4 grid with its ``delta`` fields skipped, folded,
array, mirror, partitioned (+overflow, +pending) and levelled tables —
``Table.pruned_pages(pred)`` and the set of page ids the scan fetches are
compared with ``RECORDED``: the values the per-zone ``zone_may_match``
implementation produced for the same seed before the synopsis became
columnar. Regenerate (only when the *data layout* changes, never to make a
pruning change pass) with ``python tests/test_prune_decisions.py``.

The ``levelled`` page ids were re-recorded when merged-away runs began to
give their pages back (PR 19): merge outputs land in reused spans, so the
ids moved; every pruned count and every fetched-page *count* is unchanged.
The ``columns`` values were re-recorded when a flush began to seal under the
table's design: the flushed run is five one-chunk column pages (ids 30–34)
where it was three row pages (30–32); every page of the loaded run is
pruned and fetched as before.

Cost ≡ prune ≡ read: the same sweep asserts that every scan answers what
the naive model of the inserted rows does (``tests/oracle.py``), and that
``scan_cost`` prices exactly the pages ``pruned_pages`` leaves, which are
exactly the pages the scan fetched — the three are views of one ``RunAccess`` per run
(``engine/access.py``). No layout here is sorted; the sorted-range probe,
whose price is a statistics estimate (``<=``), is in ``tests/test_access.py``.
"""

import random

import pytest

import oracle
from repro.engine.database import RodentStore
from repro.query.expressions import And, Or, Range, Rect
from repro.types import Schema

SCHEMA = Schema.of("t:int", "x:int", "y:int", "g:int", "f:float")
SEED = 20260925


def make_records(n, start=0):
    rng = random.Random(SEED + start)
    return [
        (
            start + i,
            (start + i) // 7 % 100 - 40 + rng.randrange(3),
            (i * i) % 97,
            (start + i) // 90,
            (start + i) * 0.16 + rng.random(),
        )
        for i in range(n)
    ]


LAYOUTS = {
    "rows": "T",
    "columns": "columns(T)",
    "grouped": "columns[[t, g], [x, y], [f]](T)",
    "grid_n4": (
        "compress[varint; x, y](delta[x, y](zorder(grid[x, y],[25, 25](T))))"
    ),
    "folded": "fold[t, x, y, f; g](T)",
    "array": "transpose(project[x, y](T))",
    "mirror": "mirror(rows(T), columns(T))",
    "partitioned": "partition[t; range, 128](T)",
    "levelled": "levels[4; 2](columns(T))",
}

PREDICATES = {
    "t_head": Range("t", 0, 40),
    "t_mid": Range("t", 300.5, 420),
    "t_none": Range("t", 50_000, 60_000),
    "t_open": Range("t", lo=560),
    "x_band": Range("x", -5, 5),
    "f_band": Range("f", 40.0, 52.5),
    "rect": Rect({"x": (-10, 20), "y": (3, 40)}),
    "and": And(Range("t", 100, 500), Range("g", 2, 3)),
    "or": Or(Range("t", 0, 25), Range("t", 600, 900)),
    "overflow_only": Range("t", 1005, 1010),
    "pending_only": Range("t", 2000, 2100),
}
ARRAY_PREDICATES = {
    "value_low": Range("value", -40, -30),
    "value_none": Range("value", 9999, 10000),
}


def build(kind):
    store = RodentStore(
        page_size=1024, pool_capacity=64, level_seal_rows=64
    )
    store.create_table("T", SCHEMA, layout=LAYOUTS[kind])
    model = oracle.Model(SCHEMA.names(), [], LAYOUTS[kind])
    if kind == "levelled":
        table = store.table("T")
        for start in range(0, 640, 40):
            table.insert(make_records(40, start))
            model.insert(make_records(40, start))
        return store, table, model
    table = store.load("T", make_records(640))
    model.load(make_records(640))
    if kind in ("rows", "columns", "partitioned"):
        table.insert(make_records(60, 1000))
        table.flush_inserts()  # a second run, with its own zones
        table.insert(make_records(25, 2000))  # pending, zone kept in memory
        model.insert(make_records(60, 1000))
        model.insert(make_records(25, 2000))
    return store, table, model


def decisions(kind):
    store, table, model = build(kind)
    predicates = ARRAY_PREDICATES if kind == "array" else PREDICATES
    out = {}
    for name, predicate in predicates.items():
        fetched: set[int] = set()
        pool_fetch = store.pool.fetch

        def fetch(page_id, *args, **kwargs):
            fetched.add(page_id)
            return pool_fetch(page_id, *args, **kwargs)

        store.pool.fetch = fetch
        try:
            rows, _ = store.run_cold(
                lambda: list(table.scan(predicate=predicate))
            )
        finally:
            del store.pool.fetch
        oracle.check_scan(rows, model, predicate=predicate, context=kind)
        pruned = table.pruned_pages(predicate)
        # What an unpredicated scan reads is the whole table (of a mirror:
        # the replica it picks); the verdict splits it, exactly.
        priced = table.scan_cost(predicate=predicate).pages
        assert priced == table.scan_cost().pages - pruned == len(fetched)
        out[name] = (pruned, sorted(fetched))
    store.close()
    return out


# fmt: off
RECORDED = {'array': {'value_low': (10, [0]), 'value_none': (11, [])},
 'columns': {'and': (25, [1, 2, 7, 8, 13, 14, 19, 20, 25, 26]),
             'f_band': (25, [1, 2, 7, 8, 13, 14, 19, 20, 25, 26]),
             'or': (5,
                    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
                     22, 23, 24, 25, 26, 27, 28, 29]),
             'overflow_only': (30, [30, 31, 32, 33, 34]),
             'pending_only': (35, []),
             'rect': (15,
                      [1, 2, 3, 7, 8, 9, 13, 14, 15, 19, 20, 21, 25, 26, 27, 30, 31, 32, 33, 34]),
             't_head': (30, [0, 6, 12, 18, 24]),
             't_mid': (25, [2, 3, 8, 9, 14, 15, 20, 21, 26, 27]),
             't_none': (35, []),
             't_open': (20, [4, 5, 10, 11, 16, 17, 22, 23, 28, 29, 30, 31, 32, 33, 34]),
             'x_band': (20, [1, 2, 7, 8, 13, 14, 19, 20, 25, 26, 30, 31, 32, 33, 34])},
 'folded': {'and': (14, [5, 6, 7, 8, 9, 10, 11]),
            'f_band': (14, [5, 6, 7, 8, 9, 10, 11]),
            'or': (0, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20]),
            'overflow_only': (21, []),
            'pending_only': (21, []),
            'rect': (11, [5, 6, 7, 8, 9, 10, 11, 12, 13, 14]),
            't_head': (18, [0, 1, 2]),
            't_mid': (14, [8, 9, 10, 11, 12, 13, 14]),
            't_none': (21, []),
            't_open': (17, [17, 18, 19, 20]),
            'x_band': (14, [5, 6, 7, 8, 9, 10, 11])},
 'grid_n4': {'and': (7, [2, 3, 4, 7, 8, 9, 10, 11, 13, 14, 15]),
             'f_band': (12, [2, 3, 4, 7, 8, 9]),
             'or': (0, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17]),
             'overflow_only': (18, []),
             'pending_only': (18, []),
             'rect': (12, [2, 3, 4, 9, 10, 11]),
             't_head': (11, [0, 1, 2, 4, 5, 6, 7]),
             't_mid': (7, [2, 3, 4, 7, 8, 9, 10, 11, 13, 14, 15]),
             't_none': (18, []),
             't_open': (12, [11, 12, 13, 15, 16, 17]),
             'x_band': (12, [2, 3, 4, 7, 8, 9])},
 'grouped': {'and': (26, [4, 5, 6, 7, 8, 20, 21, 22, 23, 24, 33, 34]),
             'f_band': (22, [3, 4, 5, 6, 7, 8, 9, 19, 20, 21, 22, 23, 24, 25, 33, 34]),
             'or': (0,
                    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
                     22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37]),
             'overflow_only': (38, []),
             'pending_only': (38, []),
             'rect': (23, [5, 6, 7, 8, 9, 10, 21, 22, 23, 24, 25, 26, 33, 34, 35]),
             't_head': (33, [0, 1, 16, 17, 32]),
             't_mid': (28, [7, 8, 9, 10, 23, 24, 25, 26, 34, 35]),
             't_none': (38, []),
             't_open': (32, [14, 15, 30, 31, 36, 37]),
             'x_band': (30, [5, 6, 7, 21, 22, 23, 33, 34])},
 'levelled': {'and': (15, [21, 22, 24, 25, 27, 28, 30, 31, 33, 34, 35, 38, 41, 44, 47]),
              'f_band': (20, [22, 25, 28, 31, 34, 35, 38, 41, 44, 47]),
              'or': (0,
                     [20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38,
                      39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49]),
              'overflow_only': (30, []),
              'pending_only': (30, []),
              'rect': (15, [21, 22, 24, 25, 27, 28, 30, 31, 33, 34, 35, 38, 41, 44, 47]),
              't_head': (25, [20, 23, 26, 29, 32]),
              't_mid': (20, [22, 25, 28, 31, 34, 35, 38, 41, 44, 47]),
              't_none': (30, []),
              't_open': (20, [36, 37, 39, 40, 42, 43, 45, 46, 48, 49]),
              'x_band': (20, [21, 22, 24, 25, 27, 28, 30, 31, 33, 34])},
 'mirror': {'and': (23, [9, 10, 11, 12, 13, 14, 15, 16, 17]),
            'f_band': (27, [12, 13, 14, 15, 16]),
            'or': (0,
                   [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
                    22, 23, 24, 25, 26, 27, 28, 29, 30, 31]),
            'overflow_only': (32, []),
            'pending_only': (32, []),
            'rect': (20, [10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21]),
            't_head': (29, [0, 1, 2]),
            't_mid': (25, [15, 16, 17, 18, 19, 20, 21]),
            't_none': (32, []),
            't_open': (28, [28, 29, 30, 31]),
            'x_band': (27, [11, 12, 13, 14, 15])},
 'partitioned': {'and': (26, [9, 10, 11, 12, 13, 14, 15, 16, 17, 18]),
                 'f_band': (31, [12, 13, 14, 15, 16]),
                 'or': (3,
                        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                         21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32]),
                 'overflow_only': (35, [33]),
                 'pending_only': (36, []),
                 'rect': (21, [10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 33, 34, 35]),
                 't_head': (33, [0, 1, 2]),
                 't_mid': (29, [15, 16, 17, 18, 19, 20, 21]),
                 't_none': (36, []),
                 't_open': (28, [28, 29, 30, 31, 32, 33, 34, 35]),
                 'x_band': (29, [12, 13, 14, 15, 16, 33, 34])},
 'rows': {'and': (26, [9, 10, 11, 12, 13, 14, 15, 16, 17]),
          'f_band': (30, [12, 13, 14, 15, 16]),
          'or': (3,
                 [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
                  23, 24, 25, 26, 27, 28, 29, 30, 31]),
          'overflow_only': (34, [32]),
          'pending_only': (35, []),
          'rect': (20, [10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 32, 33, 34]),
          't_head': (32, [0, 1, 2]),
          't_mid': (28, [15, 16, 17, 18, 19, 20, 21]),
          't_none': (35, []),
          't_open': (28, [28, 29, 30, 31, 32, 33, 34]),
          'x_band': (28, [11, 12, 13, 14, 15, 32, 33])}}
# fmt: on


@pytest.mark.parametrize("kind", sorted(LAYOUTS))
def test_decisions_equal_parent_commit(kind):
    got = decisions(kind)
    assert got == RECORDED[kind]
    # The pin is only meaningful if pruning actually happens.
    assert any(pruned for pruned, _ in got.values())


def test_mirror_decides_each_replica_once(monkeypatch):
    """One ``open_run`` of a mirror computes each replica's verdict once and
    reads through the cheaper one (the parent costed every replica, then
    recomputed the chosen one's verdict to read it)."""
    from repro.engine import synopsis

    store, table, model = build("mirror")
    calls = []
    for name in ("rows_page_skip", "column_keep_intervals"):
        original = getattr(synopsis, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(synopsis, name, counted)
    assert oracle.check_table(table, model, predicate=PREDICATES["t_mid"])
    assert sorted(calls) == ["column_keep_intervals", "rows_page_skip"]
    store.close()


if __name__ == "__main__":
    import pprint

    pprint.pprint(
        {kind: decisions(kind) for kind in sorted(LAYOUTS)},
        width=100,
        compact=True,
    )
