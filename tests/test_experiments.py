"""Integration test: the Figure 2 case study reproduces the paper's shape,
and its designs take writes."""

import random

import pytest

import oracle
from repro.engine.database import RodentStore
from repro.experiments import run_figure2
from repro.experiments.figure2 import N2_EXPR, n3_expr, n4_expr
from repro.query.expressions import Range, Rect
from repro.workloads.cartel import TRACE_SCHEMA


@pytest.fixture(scope="module")
def figure2():
    # Small scale so the test stays fast; verify=True additionally checks
    # all layouts return identical (lat, lon) result sets.
    return run_figure2(
        n_observations=15_000,
        n_queries=12,
        page_size=8192,
        n_vehicles=10,
        cells_per_side=24,
        verify=True,
    )


class TestFigure2Shape:
    def test_all_layouts_present(self, figure2):
        assert set(figure2.layouts) == {"N1", "N2", "N3", "N4", "rtree"}

    def test_paper_ordering_holds(self, figure2):
        """Figure 2's bar ordering: N1 > N2 > rtree > N3 > N4."""
        pages = {k: v.pages_per_query for k, v in figure2.layouts.items()}
        assert pages["N1"] > pages["N2"]
        assert pages["N2"] > pages["rtree"]
        assert pages["rtree"] > pages["N3"]
        assert pages["N3"] > pages["N4"]

    def test_grid_two_orders_of_magnitude_vs_scan(self, figure2):
        """'data isolation and gridding reduce the total number of pages by
        about two orders of magnitude versus a raw scan' — at reduced scale
        we require more than 30x."""
        pages = {k: v.pages_per_query for k, v in figure2.layouts.items()}
        assert pages["N1"] / pages["N3"] > 30

    def test_delta_compression_shrinks_n4(self, figure2):
        n3 = figure2.layouts["N3"]
        n4 = figure2.layouts["N4"]
        assert n4.storage_pages < n3.storage_pages
        assert n4.pages_per_query < n3.pages_per_query

    def test_n3_to_n4_factor_near_the_paper(self, figure2):
        """The paper's N3 -> N4 factor is 2.32x."""
        pages = {k: v.pages_per_query for k, v in figure2.layouts.items()}
        assert 1.2 < pages["N3"] / pages["N4"] < 6

    def test_latency_model_tracks_pages(self, figure2):
        """'the total query time is also about one hundred times faster' —
        the modelled latency must preserve the ordering."""
        ms = {k: v.est_ms_per_query for k, v in figure2.layouts.items()}
        assert ms["N1"] > ms["N3"] > ms["N4"]
        assert ms["N1"] / ms["N3"] > 5

    def test_latency_model_orders_every_layout(self, figure2):
        """'a few 10s of milliseconds vs five seconds' — the seek+bandwidth
        model ranks every layout as its pages do, with a large N1/N4 gap."""
        ms = {k: v.est_ms_per_query for k, v in figure2.layouts.items()}
        assert ms["N1"] > ms["N2"] > ms["N3"] > ms["N4"]
        assert ms["N1"] / ms["N4"] > 10

    @pytest.mark.parametrize("name", ["N1", "N2", "N3", "N4"])
    def test_every_layout_answers_the_queries(self, figure2, name):
        assert figure2.layouts[name].records_per_query > 0

    def test_all_layouts_return_same_records(self, figure2):
        counts = {
            k: v.records_per_query for k, v in figure2.layouts.items()
        }
        # verify=True already asserted equality on sampled queries; the
        # averages must agree across every layout too.
        baseline = counts["N1"]
        for name, value in counts.items():
            assert value == pytest.approx(baseline), name

    def test_format_table_renders(self, figure2):
        text = figure2.format_table()
        assert "zcurve + delta" in text
        assert "rtree" in text

    def test_rows_accessor(self, figure2):
        rows = figure2.rows()
        assert [name for name, _ in rows] == ["N1", "N2", "N3", "N4", "rtree"]


# -- N2–N4 take writes ---------------------------------------------------------

#: The designs project the grouping key ``id`` (and the sort key ``t``)
#: away: a re-render of stored rows must drop the regroup, not look for it.
FIGURE2_DESIGNS = {
    "N2": N2_EXPR,
    "N3": n3_expr(50, 50),
    "N4": n4_expr(50, 50),
}


def _traces(rng, n, start):
    """``n`` observations: t, lat, lon, id, then the other fields."""
    extra = len(TRACE_SCHEMA.fields) - 4
    return [
        (start + i, rng.randrange(500), rng.randrange(500), rng.randrange(9),
         *(rng.randrange(100) for _ in range(extra)))
        for i in range(n)
    ]


@pytest.mark.parametrize("name", sorted(FIGURE2_DESIGNS))
def test_figure2_designs_take_writes(name):
    """Insert + flush + compact, update and delete on N2–N4 answer like the
    model of the logical rows."""
    layout = FIGURE2_DESIGNS[name]
    rng = random.Random(name)
    names = TRACE_SCHEMA.names()
    store = RodentStore(page_size=1024, pool_capacity=64)
    store.create_table("Traces", TRACE_SCHEMA, layout=layout)
    loaded = _traces(rng, 300, 0)
    table = store.load("Traces", loaded)
    model = oracle.Model(names, loaded, layout)
    for rows, flush in ((_traces(rng, 40, 1000), True),
                        (_traces(rng, 25, 2000), False)):
        table.insert(rows)
        model.insert(rows)
        if flush:
            table.flush_inserts()
    oracle.check_table(table, model, context="overflow + pending")
    table.compact()
    model.compact()
    oracle.check_table(table, model, context="compacted")
    assert table.unmerged_row_count == 0
    box = Rect({"lat": (100, 300), "lon": (0, 250)})
    bump = {"lat": lambda row: row["lat"] + 1}
    assert table.update(bump, box) == model.update(bump, box) > 0
    oracle.check_table(table, model, context="updated")
    oracle.check_table(table, model, predicate=box, context="updated box")
    assert table.delete(Range("lon", 0, 120)) == model.delete(Range("lon", 0, 120)) > 0
    oracle.check_table(table, model, context="deleted")
    assert table.delete(None) == model.delete(None) > 0
    assert list(table.scan()) == []
    store.close()
