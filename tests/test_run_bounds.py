"""Run-level bounds: a run whose bound misses the predicate is decided empty
before any zone walk.

``LayoutSynopsis.run_bounds`` summarizes every zone of a run into one
``(min, max)`` per field; ``access.open_run`` asks it first, so a run no row
of which can match decides to an empty ``RunAccess`` without a zone table,
cell, folded record, index or page being touched. The checks here:

* counted — a missed run makes no ``ZoneTable.keep_mask`` call and no page
  fetch, and still counts as pruned in ``pruned_pages`` / ``explain()``;
* conservative — a skip never drops a matching row: on every layout kind,
  scans with the bound equal scans with it disabled and the naive model
  (``tests/oracle.py``), across NaN beside finite floats, ints beyond 2**53
  against float bounds and a delta field; at the zone-table level (the
  only place a null can be stored: schemas take none), a missed bound
  implies every zone's own verdict is "skip", nulls and all-null zones
  included;
* NaN — a zone whose reduction is NaN leaves its field unbounded, where a
  min of the other zones' mins would drop a row.
"""

import contextlib
import math
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from repro.engine import access, synopsis
from repro.engine.database import RodentStore
from repro.engine.synopsis import LayoutSynopsis, ZoneTable
from repro.query.expressions import And, Range
from repro.types import Schema
from test_zone_kernels import FIELD_KINDS, bounds, oracle_mask, table_of

NAN = float("nan")
SCHEMA = Schema.of("t:int", "x:int", "f:float", "g:int")


@contextlib.contextmanager
def bound_disabled():
    """A context in which no run bound ever misses."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synopsis, "bounds_miss", lambda bounds, intervals: False)
        yield


def counted_keep_masks(monkeypatch):
    """Every zone table ``keep_mask`` is asked of, in call order."""
    asked = []
    keep_mask = ZoneTable.keep_mask

    def counted(self, intervals):
        asked.append(self)
        return keep_mask(self, intervals)

    monkeypatch.setattr(ZoneTable, "keep_mask", counted)
    return asked


def fetched_pages(store, monkeypatch):
    fetched = set()
    fetch = store.pool.fetch

    def counted(page_id, *args, **kwargs):
        fetched.add(page_id)
        return fetch(page_id, *args, **kwargs)

    monkeypatch.setattr(store.pool, "fetch", counted)
    return fetched


def zone_tables_of(layout):
    found = layout.synopsis
    return [found.page_zones, found.cell_zones, found.folded_zones,
            *found.group_zones]


def levelled_columns():
    """Five sealed batches of disjoint ``t`` ranges: one merged run of the
    first four and one run of the last."""
    store = RodentStore(page_size=512, pool_capacity=64)
    store.create_table("T", SCHEMA, layout="levels[4; 4](columns(T))")
    table = store.table("T")
    model = oracle.Model(SCHEMA.names(), (), "levels[4; 4](columns(T))")
    for batch in range(5):
        rows = [(batch * 100 + i, i % 9, i * 0.5, batch) for i in range(100)]
        table.insert(rows)
        model.insert(rows)
        table.flush_inserts()
    return store, table, model, Range("t", 410, 420)


def partitioned_rows():
    """Two ``f`` partitions, each a loaded run and a flushed overflow run of
    later ``t``: a ``t`` window misses both loaded runs."""
    design = "partition[f; range, 20](T)"
    store = RodentStore(page_size=512, pool_capacity=64)
    store.create_table("T", SCHEMA, layout=design)
    loaded = [(i, i % 9, float(i % 60), 0) for i in range(300)]
    table = store.load("T", loaded)
    model = oracle.Model(SCHEMA.names(), loaded, design)
    later = [(1000 + i, i % 9, float(i % 60), 1) for i in range(60)]
    table.insert(later)
    model.insert(later)
    table.flush_inserts()
    return store, table, model, Range("t", 1000, 1010)


@pytest.mark.parametrize("build", [levelled_columns, partitioned_rows])
def test_a_missed_run_walks_no_zone_and_reads_no_page(build, monkeypatch):
    store, table, model, predicate = build()
    runs = [run for region in table.partitions for run in region.runs]
    intervals = synopsis.predicate_intervals(predicate)
    missed = [
        run for run in runs
        if synopsis.bounds_miss(run.layout.run_bounds, intervals)
    ]
    assert missed and len(missed) < len(runs)
    missed_zones = {
        id(zones) for run in missed for zones in zone_tables_of(run.layout)
    }
    missed_pages = {p for run in missed for p in run.layout.page_ids()}

    asked = counted_keep_masks(monkeypatch)
    fetched = fetched_pages(store, monkeypatch)
    store.pool.clear()
    store.renderer.cache.clear()
    oracle.check_table(table, model, predicate=predicate)
    assert asked and fetched  # the kept runs were walked and read
    assert not {id(z) for z in asked} & missed_zones
    assert not fetched & missed_pages

    # Pricing asks no zone of a missed run either, and counts its pages
    # as pruned: ``explain()`` reports what ``pruned_pages`` does.
    asked.clear()
    pruned = table.pruned_pages(predicate)
    assert not {id(z) for z in asked} & missed_zones
    assert pruned >= sum(run.layout.total_pages() for run in missed)
    explained = store.query("T").where(predicate).explain()
    assert explained.root.pages_pruned == pruned


KINDS = {
    "rows": "T",
    "rows_sorted": "orderby[t](T)",
    "rows_delta": "delta[t](T)",
    "columns": "columns[[t, g], [x], [f]](T)",
    "grid": "grid[x, g],[4, 2](T)",
    "folded": "fold[t, x, f; g](T)",
    "array": "transpose(project[x, g](T))",
    "mirror": "mirror(rows(T), columns(T))",
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("needed", [None, ["x", "t"]])
def test_a_missed_run_decides_empty_with_its_openers_fields(
    kind, needed, monkeypatch
):
    """Outside the run's bound: no batch, no page fetched (the sorted-range
    probe's binary search included), every page the kind's opener counts
    as the run pruned, and the opener's own fields."""
    store = RodentStore(page_size=512, pool_capacity=64)
    store.create_table("T", SCHEMA, layout=KINDS[kind])
    table = store.load("T", [(i, i % 9, i * 0.5, i % 3) for i in range(300)])
    predicate = {
        "array": Range("value", 50, 60), "rows_sorted": Range("t", 400, 500)
    }.get(kind, Range("x", 50, 60))
    intervals = synopsis.predicate_intervals(predicate)

    def decide(layout):
        return access.open_run(
            store.renderer, layout, needed, predicate, intervals,
            table.stats, store.cost_model,
        )

    store.pool.clear()
    fetched = fetched_pages(store, monkeypatch)
    skipped = decide(table.layout)
    assert list(skipped.batches()) == [] and not fetched
    replica = skipped.layout  # a mirror's chosen replica has its own bound
    assert synopsis.bounds_miss(replica.run_bounds, intervals)
    with bound_disabled():
        walked = decide(replica)
    assert (skipped.pages, skipped.seeks) == (0, 0)
    assert skipped.cost(store.cost_model).ms == 0
    if kind == "rows_sorted":  # the probe's pages are an estimate
        assert skipped.pruned == replica.total_pages()
    else:
        assert skipped.pruned == walked.pages + walked.pruned
    assert skipped.fields == walked.fields


# -- conservative ------------------------------------------------------------

DESIGNS = {
    "rows": "T",
    "rows_delta": "delta[t](T)",
    "columns": "columns(T)",
    "grid": "grid[x, g],[4, 2](T)",
    "folded": "fold[t, x, f; g](T)",
    "mirror": "mirror(rows(T), columns(T))",
    "levelled": "levels[4; 2](columns(T))",
}
# ``t`` bases a batch draws from: a batch's run then has a bound of its
# own, and the ints past 2**53 collide with float query bounds.
BASES = [0, 1000, 2**53 - 3, 2**53 + 1, -(2**60)]


@st.composite
def batches(draw):
    base = draw(st.sampled_from(BASES))
    n = draw(st.integers(1, 30))
    floats = st.one_of(st.floats(-50, 50), st.just(NAN))
    return [
        (base + i, draw(st.integers(0, 7)), draw(floats),
         draw(st.integers(0, 2)))
        for i in range(n)
    ]


def t_bounds():
    near = st.builds(
        lambda base, off: base + off,
        st.sampled_from(BASES),
        st.integers(-2, 40),
    )
    return st.one_of(near, near.map(float))


@st.composite
def predicates(draw):
    lo, hi = sorted(draw(st.tuples(t_bounds(), t_bounds())))
    by_t = Range("t", lo, hi)
    f_lo, f_hi = sorted(draw(st.tuples(st.floats(-60, 60),
                                       st.floats(-60, 60))))
    by_f = Range("f", f_lo, f_hi)
    return draw(st.sampled_from([by_t, by_f, And(by_t, by_f)]))


@given(
    design=st.sampled_from(sorted(DESIGNS)),
    loaded=batches(),
    inserted=st.lists(batches(), max_size=3),
    queries=st.lists(predicates(), min_size=1, max_size=3),
)
@example(  # a float image of 2**53 + 1 is 2**53: the bound must not use it
    design="rows",
    loaded=[(2**53 - 1, 0, 0.0, 0), (2**53 + 1, 0, 0.0, 0)],
    inserted=[],
    queries=[Range("t", 2**53 + 1, 2**53 + 1)],
)
@settings(max_examples=40, deadline=None)
def test_the_bound_never_drops_a_row(design, loaded, inserted, queries):
    layout = DESIGNS[design]
    store = RodentStore(page_size=256, pool_capacity=64)
    store.create_table("T", SCHEMA, layout=layout)
    table = store.load("T", loaded)
    model = oracle.Model(SCHEMA.names(), loaded, layout)
    for rows in inserted:
        table.insert(rows)
        model.insert(rows)
        table.flush_inserts()
    for predicate in queries:
        got = scanned(table, model, predicate)
        with bound_disabled():
            assert scanned(table, model, predicate) == got


def scanned(table, model, predicate):
    """The scan's rows, checked against the model, as a multiset of
    comparable rows (NaN equal to NaN)."""
    got = oracle.check_table(table, model, predicate=predicate)
    return Counter(oracle.comparable(got))


def zone_bounds_with_nan(values):
    """One zone's (min, max, nulls): some-null, all-null, null-free, or a
    NaN reduction (numpy's, over a zone holding a NaN)."""
    pairs = st.tuples(values, values).map(sorted).map(tuple)
    return st.one_of(
        st.tuples(pairs, st.integers(0, 3)).map(lambda t: (*t[0], t[1])),
        st.integers(0, 6).map(lambda nulls: (None, None, nulls)),
        st.tuples(st.sampled_from([(NAN, NAN), (NAN, 1.0), (-1.0, NAN)]),
                  st.integers(0, 3)).map(lambda t: (*t[0], t[1])),
    )


@st.composite
def zone_tables_with_nan(draw):
    """One run's zone table: ``(row_counts, {field: [(min, max, nulls) per
    zone]})``."""
    n = draw(st.integers(0, 6))
    row_counts = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    present = draw(st.lists(st.sampled_from(sorted(FIELD_KINDS)), unique=True))
    return row_counts, {
        name: draw(st.lists(
            zone_bounds_with_nan(FIELD_KINDS[name]), min_size=n, max_size=n
        ))
        for name in present
    }


@given(
    table=zone_tables_with_nan(),
    intervals=st.dictionaries(
        st.sampled_from(sorted(FIELD_KINDS)),
        st.tuples(bounds, bounds).map(sorted).map(tuple),
        max_size=2,
    ),
)
@example(
    table=([1], {"i": [(2**53 + 1, 2**53 + 1, 0)]}),
    intervals={"i": (2**53 + 1, 2**53 + 1)},
)
@example(  # no bound beside non-null rows: the zone is kept, not empty
    table=([2], {"i": [(None, None, 1)]}), intervals={"i": (0, 0)}
)
@settings(max_examples=80, deadline=None)
def test_a_missed_bound_is_a_skip_of_every_zone(table, intervals):
    """Whatever the zones hold — nulls, all-null and empty zones, NaN,
    bools, strings, ints past 2**53 — a bound that misses means the
    per-zone rule skips every zone, and ``may_hold`` answers false only
    for a point no zone can hold."""
    rows, fields = table
    run_bounds = LayoutSynopsis(page_zones=table_of(rows, fields)).run_bounds()
    if synopsis.bounds_miss(run_bounds, intervals):
        assert not any(oracle_mask(rows, fields, intervals))
    layout = SimpleNamespace(run_bounds=run_bounds)
    for name, (lo, _) in intervals.items():
        if not synopsis.may_hold(layout, name, lo):
            assert not any(oracle_mask(rows, fields, {name: (lo, lo)}))


# -- NaN ---------------------------------------------------------------------


def test_a_nan_zone_leaves_its_field_unbounded():
    """A zone's reduction skips NaN whatever its position: a chunk whose
    first value is NaN is bounded by the 20.0 beside it, so the run bound
    of ``f`` is [0, 20] and the run is read under ``f`` in [15, 25]. Only
    a chunk of NaNs alone reduces to NaN; its field gets no bound (a min
    of the other chunks' mins would be as sound, but none is taken), and
    the row is found either way."""
    def synopsis_of(first):
        zones = ZoneTable()
        zones.add(2, ("f",), [first])
        zones.add(2, ("f",), [[0.0, 9.5]])
        return LayoutSynopsis(group_zones=[zones.pack()])

    assert synopsis_of([NAN, 20.0]).run_bounds()["f"] == (0.0, 20.0)
    assert "f" not in synopsis_of([NAN, NAN]).run_bounds()

    for nans, bound in ((1, (0.0, 20.0)), (100, None)):
        store = RodentStore(page_size=256, pool_capacity=64)
        store.create_table("T", SCHEMA, layout="columns(T)")
        rows = [(i, 0, NAN if i < nans else i % 20 * 0.5, 0) for i in range(200)]
        rows[nans] = (nans, 0, 20.0, 0)  # right after the NaNs
        table = store.load("T", rows)
        (chunks,) = [
            zones for zones, group in zip(
                table.layout.synopsis.group_zones, table.layout.column_groups
            )
            if group.fields == ("f",)
        ]
        maxs = list(chunks.fields["f"].maxs)
        assert math.isnan(maxs[0]) == (bound is None)
        assert table.layout.run_bounds.get("f") == bound
        assert "t" in table.layout.run_bounds
        model = oracle.Model(SCHEMA.names(), rows, "columns(T)")
        got = oracle.check_table(table, model, predicate=Range("f", 15, 25))
        assert got == [(nans, 0, 20.0, 0)]
