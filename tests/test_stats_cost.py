"""Tests for repro.engine.stats and repro.engine.cost."""

import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro import vector
from repro.engine.cost import CostEstimate, CostModel, estimate
from repro.engine.database import RodentStore
from repro.engine.persistence import entry_to_dict, stats_to_dict
from repro.engine.stats import FieldStats, TableStats
from repro.query import Range
from repro.types import Schema

SCHEMA = Schema.of("a:int", "b:float", "s:string")
RECORDS = [(i, i * 0.5, f"name{i % 10}") for i in range(1000)]


class TestTableStats:
    def test_row_count_and_minmax(self):
        stats = TableStats.collect(SCHEMA, RECORDS)
        assert stats.row_count == 1000
        assert stats.fields["a"].min_value == 0
        assert stats.fields["a"].max_value == 999
        assert stats.fields["b"].max_value == pytest.approx(499.5)

    def test_distinct_counts(self):
        stats = TableStats.collect(SCHEMA, RECORDS)
        assert stats.fields["a"].distinct == 1000
        assert stats.fields["s"].distinct == 10

    def test_nulls_tracked(self):
        records = [(1, None, "x"), (2, 2.0, None), (None, None, "y")]
        stats = TableStats.collect(SCHEMA, records)
        assert stats.fields["a"].nulls == 1
        assert stats.fields["b"].nulls == 2
        assert stats.fields["s"].nulls == 1

    def test_avg_record_width_positive(self):
        stats = TableStats.collect(SCHEMA, RECORDS)
        assert stats.avg_record_width > 16  # two numerics + string

    def test_empty_table(self):
        stats = TableStats.collect(SCHEMA, [])
        assert stats.row_count == 0
        assert stats.fields["a"].min_value is None
        assert stats.predicate_selectivity({"a": (0, 10)}) == 1.0

    def test_histogram_built_for_numeric(self):
        stats = TableStats.collect(SCHEMA, RECORDS)
        assert sum(stats.fields["a"].histogram) == 1000
        assert stats.fields["s"].histogram == []

    def test_constant_field_no_histogram(self):
        records = [(5, 1.0, "x")] * 20
        stats = TableStats.collect(SCHEMA, records)
        assert stats.fields["a"].histogram == []
        assert stats.fields["a"].selectivity(5, 5) == 1.0
        assert stats.fields["a"].selectivity(6, 7) == 0.0


class TestSelectivity:
    def test_uniform_data_proportional(self):
        stats = TableStats.collect(SCHEMA, RECORDS)
        sel = stats.fields["a"].selectivity(0, 99)
        assert sel == pytest.approx(0.1, abs=0.03)

    def test_full_range_is_one(self):
        stats = TableStats.collect(SCHEMA, RECORDS)
        assert stats.fields["a"].selectivity(0, 999) == pytest.approx(1.0, abs=0.01)

    def test_disjoint_range_is_zero(self):
        stats = TableStats.collect(SCHEMA, RECORDS)
        assert stats.fields["a"].selectivity(5000, 6000) == pytest.approx(
            0.0, abs=0.01
        )

    def test_skewed_data_histogram_beats_uniform(self):
        # 90% of values in [0, 10), 10% in [10, 1000).
        records = [(i % 10, 0.0, "x") for i in range(900)]
        records += [(10 + i, 0.0, "x") for i in range(100)]
        stats = TableStats.collect(SCHEMA, records)
        sel = stats.fields["a"].selectivity(0, 9)
        assert sel > 0.5  # uniform model would say ~0.09

    def test_predicate_selectivity_independence(self):
        stats = TableStats.collect(SCHEMA, RECORDS)
        # a in [0, 499] covers half; b in [0, 124.75] covers a quarter;
        # independence multiplies to one eighth.
        combined = stats.predicate_selectivity(
            {"a": (0, 499), "b": (0, 124.75)}
        )
        assert combined == pytest.approx(0.125, abs=0.03)

    def test_unknown_field_ignored(self):
        stats = TableStats.collect(SCHEMA, RECORDS)
        assert stats.predicate_selectivity({"zzz": (0, 1)}) == 1.0

    @given(
        st.integers(0, 999), st.integers(0, 999)
    )
    def test_selectivity_bounded(self, x, y):
        stats = TableStats.collect(SCHEMA, RECORDS)
        lo, hi = min(x, y), max(x, y)
        sel = stats.fields["a"].selectivity(lo, hi)
        assert 0.0 <= sel <= 1.0


NAN, INF = float("nan"), float("inf")


def _same_rows(got, want):
    """Row equality where NaN equals NaN."""
    return len(got) == len(want) and all(
        all(a == b or (a != a and b != b) for a, b in zip(g, w))
        for g, w in zip(got, want)
    )


@pytest.mark.parametrize(
    "numpy_on",
    [
        pytest.param(
            True,
            marks=pytest.mark.skipif(
                not vector.numpy_enabled(), reason="numpy off"
            ),
        ),
        False,
    ],
)
@pytest.mark.parametrize("layout", ["T", "columns(T)"])
def test_float_column_with_nan_and_inf_loads(tmp_path, numpy_on, layout):
    """NaN / ±inf in a float column: bounds and histogram over the finite
    values (the parent's histogram raised ``cannot convert float NaN to
    integer``), selectivity within [0, 1], exact scans, and a round trip
    through the catalog."""
    previous = vector.set_numpy_enabled(numpy_on)
    try:
        path = str(tmp_path / "s.db")
        store = RodentStore(path, durable=True, page_size=1024)
        store.create_table("T", Schema.of("a:int", "b:float"), layout=layout)
        rows = [(1, NAN), (2, 1.0), (3, 2.0), (4, INF), (5, -INF)] * 40
        table = store.load("T", rows)
        one = TableStats.collect(Schema.of("b:float"), [(1.0,), (INF,)])
        assert one.fields["b"].max_value == 1.0
        stats = table.stats.fields["b"]
        assert (stats.min_value, stats.max_value) == (1.0, 2.0)
        for lo, hi in ((0, 1.5), (1.0, 1.0), (-INF, INF), (3, INF), (NAN, 1)):
            assert 0.0 <= stats.selectivity(lo, hi) <= 1.0
        predicates = [Range("b", 0, 1.5), Range("b", 1.5, INF), None]
        for predicate in predicates:
            want = [
                r for r in rows
                if predicate is None or predicate.lo <= r[1] <= predicate.hi
            ]
            assert _same_rows(list(table.scan(predicate=predicate)), want)
        store.close()
        reopened = RodentStore.open(
            path, path + ".catalog.json", page_size=1024, durable=True
        )
        table = reopened.table("T")
        assert table.stats.fields["b"].selectivity(0, 1.5) == (
            stats.selectivity(0, 1.5)
        )
        assert _same_rows(list(table.scan()), rows)
        reopened.close()
    finally:
        vector.set_numpy_enabled(previous)


# ---------------------------------------------------------------------------
# column-at-a-time statistics equal the record-at-a-time oracle
# ---------------------------------------------------------------------------

NUMPY_MODES = [
    pytest.param(
        True,
        marks=pytest.mark.skipif(not vector.numpy_enabled(), reason="numpy off"),
    ),
    False,
]


def _exact(stats) -> dict:
    """``stats_to_dict`` with each bound spelled ``(type, repr)``: ``1`` is
    not ``1.0`` nor ``True``, ``-0.0`` is not ``0.0``."""
    out = stats_to_dict(stats)
    for f in out["fields"].values():
        for key in ("min_value", "max_value"):
            f[key] = (type(f[key]), repr(f[key]))
    return out


def _assert_collects_like_the_oracle(schema, records, numpy_on):
    previous = vector.set_numpy_enabled(numpy_on)
    try:
        got = TableStats.collect(schema, records)
    finally:
        vector.set_numpy_enabled(previous)
    assert _exact(got) == _exact(oracle.collect_stats(schema, records))


_INT64 = st.one_of(
    st.integers(-(2**63), -(2**63) + 4),
    st.integers(2**63 - 5, 2**63 - 1),
    st.integers(-1000, 1000),
    st.integers(-(2**63), 2**63 - 1),
)
_FLOATS = st.one_of(
    st.floats(),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, NAN, INF, -INF, 5e-324, -5e-324, 1e308]),
)
#: column kind -> (schema type, value strategy)
_KINDS = {
    "int": ("int", _INT64),
    "float": ("float", _FLOATS),
    "mixed": ("float", st.one_of(st.integers(-3, 3), _FLOATS)),
    "string": ("string", st.text(max_size=6)),
    "bytes": ("bytes", st.binary(max_size=6)),
    "bool": ("bool", st.booleans()),
    "null": ("int", st.none()),
}


@st.composite
def _tables(draw):
    """A two-field schema and records of any two column kinds, with or
    without nulls, possibly empty."""
    n = draw(st.integers(0, 40))
    types, columns = [], []
    for _ in range(2):
        type_name, values = _KINDS[draw(st.sampled_from(sorted(_KINDS)))]
        if draw(st.booleans()):
            values = st.one_of(st.none(), values)
        types.append(type_name)
        columns.append(draw(st.lists(values, min_size=n, max_size=n)))
    schema = Schema.of(f"v:{types[0]}", f"w:{types[1]}")
    return schema, list(zip(*columns))


@pytest.mark.parametrize("numpy_on", NUMPY_MODES)
@settings(max_examples=300, deadline=None)
@given(_tables())
def test_collect_is_the_record_loop(numpy_on, table):
    schema, records = table
    _assert_collects_like_the_oracle(schema, records, numpy_on)


@pytest.mark.parametrize("numpy_on", NUMPY_MODES)
@pytest.mark.parametrize(
    "values",
    [
        [0.0, -0.0, 1.0, -0.0],
        [-0.0, 0.0, -1.0, 0.0],
        [NAN, INF, -INF, NAN],
        [1, 1.0, 2.0, 2],
        [True, 1, 0.5, False],
        [-(2**63), 2**63 - 1, 0],
        [-1e308, 1e308, 0.0],  # the span overflows: no histogram
        [5e-324, 1e-323, 0.0],
    ],
)
def test_collect_keeps_the_loops_edge_results(numpy_on, values):
    schema = Schema.of("v:float", "s:string")
    records = [(v, None if i % 2 else "x") for i, v in enumerate(values)]
    _assert_collects_like_the_oracle(schema, records, numpy_on)


@pytest.mark.parametrize("numpy_on", NUMPY_MODES)
def test_distinct_stops_at_the_cap(numpy_on):
    schema = Schema.of("v:int", "s:string")
    records = [(i * 3 % 100_003, str(i % 7)) for i in range(100_010)]
    _assert_collects_like_the_oracle(schema, records, numpy_on)
    assert TableStats.collect(schema, records).fields["v"].distinct == 100_000


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_workloads():
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from bench.workloads import WORKLOADS

    return WORKLOADS


@pytest.mark.parametrize("numpy_on", NUMPY_MODES)
@pytest.mark.parametrize(
    "workload",
    ["cartel_spatial", "sales_olap", "timeseries_ingest", "sales_mixed"],
)
def test_loaded_stats_are_the_oracles(workload, numpy_on):
    """Every bench workload's smoke tables: after ``load`` the catalog's
    ``stats`` block is the oracle's over the coerced rows."""
    wl = _bench_workloads()[workload]
    data = wl.generate(7, wl.sizes["smoke"], 1)
    previous = vector.set_numpy_enabled(numpy_on)
    try:
        store = RodentStore(page_size=16384)
        for spec in data.tables:
            store.create_table(spec.name, spec.schema, layout=spec.layout)
            store.load(spec.name, spec.rows)
            block = entry_to_dict(store.catalog.entry(spec.name))["stats"]
            rows = spec.schema.coerce_records(spec.rows)
            want = oracle.collect_stats(spec.schema, rows)
            assert block == stats_to_dict(want), spec.name
            assert _exact(store.table(spec.name).stats) == _exact(want)
        store.close()
    finally:
        vector.set_numpy_enabled(previous)


DRIFT_SCHEMA = Schema.of("t:int", "x:float", "s:string", "g:int")


def _drift_rows(start, n):
    return [
        (i, (i * 37 % 101) / 4.0 - 10.0, f"s{i % 13}", i % 5)
        for i in range(start, start + n)
    ]


@pytest.mark.parametrize("numpy_on", NUMPY_MODES)
@pytest.mark.parametrize(
    "layout", ["T", "columns(T)", "orderby[x](T)", "partition[g](T)"]
)
def test_refreshed_stats_are_the_oracles(layout, numpy_on):
    """Inserts (flushed and pending) and deletes past the drift fraction:
    the adaptive loop's refresh reads the table's column vectors and its
    statistics are the oracle's over the model's rows."""
    previous = vector.set_numpy_enabled(numpy_on)
    try:
        store = RodentStore(page_size=1024, pool_capacity=64)
        store.create_table("T", DRIFT_SCHEMA, layout=layout)
        table = store.load("T", _drift_rows(0, 400))
        model = oracle.Model(DRIFT_SCHEMA.names(), _drift_rows(0, 400), layout)
        entry = store.catalog.entry("T")
        loaded = entry.stats
        for start in (400, 500):
            table.insert(_drift_rows(start, 100))
            model.insert(_drift_rows(start, 100))
            if start == 400:
                table.flush_inserts()
        gone = Range("t", 50, 89)
        assert table.delete(gone) == model.delete(gone) == 40
        controller = store.adaptivity
        drift = abs(table.row_count - loaded.row_count)
        assert drift > controller.STATS_DRIFT_FRACTION * loaded.row_count
        refreshed = controller._fresh_stats(entry)
        assert refreshed is entry.stats and refreshed is not loaded
        assert refreshed.row_count == 560
        assert _exact(refreshed) == _exact(
            oracle.collect_stats(DRIFT_SCHEMA, model.rows)
        )
        store.close()
    finally:
        vector.set_numpy_enabled(previous)


FOLD_SCHEMA = Schema.of("id:int", "val:int")
FOLD_ROWS = [(i, i % 7) for i in range(1000)]  # seven folded records


def test_a_folded_tables_estimate_is_its_live_rows():
    """A folded run stores its un-nested row count: the estimate's base is
    the rows a scan returns, not the seven records, before and after a
    delete."""
    store = RodentStore(page_size=1024)
    store.create_table("T", FOLD_SCHEMA, layout="fold[id; val](T)")
    table = store.load("T", FOLD_ROWS)
    assert table.estimated_row_count() == 1000
    assert table.delete(Range("id", 0, 9)) == 10
    assert table.estimated_row_count() == 990 == len(list(table.scan()))
    store.close()


def test_an_adaptive_folded_table_keeps_its_statistics(monkeypatch):
    """The drift check of every adaptation check compares the stored row
    count with the collected one: on a folded table nothing drifted, so 30
    checked scans recollect nothing after the load's collection."""
    collected = []
    collect = TableStats.from_columns.__func__

    def spy(cls, *args, **kwargs):
        collected.append(cls)
        return collect(cls, *args, **kwargs)

    monkeypatch.setattr(TableStats, "from_columns", classmethod(spy))
    store = RodentStore(page_size=1024, adaptive=True, adapt_interval=1)
    store.create_table("T", FOLD_SCHEMA, layout="fold[id; val](T)")
    table = store.load("T", FOLD_ROWS)
    assert len(collected) == 1
    for n in range(30):
        assert len(list(table.scan(predicate=Range("val", n % 7, n % 7)))) in (
            142, 143,
        )
    assert len(collected) == 1
    store.close()


def test_a_multiset_delete_of_duplicated_rows_keeps_the_estimate_exact():
    """A row-valued tombstone hides every equal row: 5 tombstones hide the
    20 copies a delete matched, and the estimate counts them all, before
    and after a compaction."""
    rows = [(i % 250, 0) for i in range(1000)]  # each row four times
    store = RodentStore(page_size=1024)
    store.create_table("T", FOLD_SCHEMA)
    table = store.load("T", rows)
    assert table.delete(Range("id", 0, 4)) == 20
    assert table.estimated_row_count() == 980 == len(list(table.scan()))
    (region,) = table.partitions
    assert len(region.level_tombstones) == 5 and region.hidden == 20
    assert store.scrub()["clean"]
    table.compact()
    assert region.hidden == 0 and not region.level_tombstones
    assert table.estimated_row_count() == 980 == len(list(table.scan()))
    store.close()


class TestCostModel:
    def test_cost_components(self):
        model = CostModel(page_size=1_000_000, seek_ms=4.0,
                          bandwidth_mb_per_s=50.0)
        # 1 MB page at 50 MB/s = 20 ms transfer.
        assert model.transfer_ms(1) == pytest.approx(20.0)
        assert model.cost_ms(1, 1) == pytest.approx(24.0)

    def test_seek_dominates_small_reads(self):
        model = CostModel(page_size=4096)
        random_io = model.cost_ms(10, 10)
        sequential = model.cost_ms(10, 1)
        assert random_io > sequential * 2

    def test_estimate_helper(self):
        model = CostModel(page_size=4096)
        cost = estimate(model, 10, 2)
        assert cost.pages == 10
        assert cost.seeks == 2
        assert cost.ms == model.cost_ms(10, 2)

    def test_cost_addition(self):
        a = CostEstimate(1, 1, 5.0)
        b = CostEstimate(2, 0, 3.0)
        combined = a + b
        assert combined.pages == 3
        assert combined.seeks == 1
        assert combined.ms == 8.0
        assert CostEstimate.zero().pages == 0

    @given(st.integers(0, 10**6), st.integers(0, 10**4))
    def test_cost_monotone(self, pages, seeks):
        model = CostModel(page_size=4096)
        base = model.cost_ms(pages, seeks)
        assert model.cost_ms(pages + 1, seeks) >= base
        assert model.cost_ms(pages, seeks + 1) >= base
