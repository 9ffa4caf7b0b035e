"""The paper's case study (Section 6, Figure 2), end to end.

Builds the five physical designs over synthetic CarTel-style traces and
measures *pages read per query* — the exact metric of Figure 2 — over random
square queries covering 1% of the area:

======  =====================================================  ==============
layout  algebra / method                                       paper pages
======  =====================================================  ==============
N1      ``Traces`` (row-major, full scan)                      206,064
N2      ``project[lat,lon](groupby[id](orderby[t](Traces)))``  82,430
N3      ``grid[lat,lon](N2)`` with the cell directory          1,792
N4      ``compress[varint](delta(zorder(N3)))``                771
rtree   secondary R-Tree over trajectory MBRs                  15,780
======  =====================================================  ==============

Scale is configurable; at the default benchmark scale (200 K observations,
64 KB pages vs the paper's 10 M observations, 1000 KB pages) the absolute
counts are smaller but the *shape* — N1 ≫ N2 ≫ rtree > N3 > N4 — is what the
reproduction asserts (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import vector
from repro.engine.cost import CostModel
from repro.engine.database import RodentStore
from repro.index.rtree import MBR, RTree
from repro.query.expressions import Rect, selector
from repro.workloads.cartel import (
    BOSTON,
    TRACE_SCHEMA,
    Region,
    generate_traces,
    grid_strides_for,
    random_region_queries,
)

N2_EXPR = "project[lat, lon](groupby[id](orderby[t](Traces)))"


def n3_expr(lat_stride: float, lon_stride: float) -> str:
    return (
        f"grid[lat, lon],[{lat_stride:g}, {lon_stride:g}]"
        f"(project[lat, lon](groupby[id](orderby[t](Traces))))"
    )


def n4_expr(lat_stride: float, lon_stride: float) -> str:
    return (
        "compress[varint; lat, lon](delta[lat, lon](zorder("
        f"grid[lat, lon],[{lat_stride:g}, {lon_stride:g}]"
        "(project[lat, lon](groupby[id](orderby[t](Traces)))))))"
    )


@dataclass
class LayoutResult:
    """Measured behaviour of one physical design."""

    name: str
    description: str
    storage_pages: int
    pages_per_query: float
    seeks_per_query: float
    est_ms_per_query: float
    records_per_query: float


@dataclass
class Figure2Result:
    """All five designs plus the run configuration."""

    n_observations: int
    n_queries: int
    page_size: int
    layouts: dict[str, LayoutResult] = field(default_factory=dict)

    def rows(self) -> list[tuple[str, float]]:
        """(name, pages/query) in the paper's bar order."""
        order = ["N1", "N2", "N3", "N4", "rtree"]
        return [
            (name, self.layouts[name].pages_per_query)
            for name in order
            if name in self.layouts
        ]

    def format_table(self) -> str:
        header = (
            f"{'layout':<8}{'description':<34}{'pages/query':>12}"
            f"{'seeks':>8}{'est ms':>9}{'db pages':>10}"
        )
        lines = [header, "-" * len(header)]
        for name in ["N1", "N2", "N3", "N4", "rtree"]:
            if name not in self.layouts:
                continue
            r = self.layouts[name]
            lines.append(
                f"{r.name:<8}{r.description:<34}{r.pages_per_query:>12.1f}"
                f"{r.seeks_per_query:>8.1f}{r.est_ms_per_query:>9.2f}"
                f"{r.storage_pages:>10}"
            )
        return "\n".join(lines)


def run_figure2(
    n_observations: int = 200_000,
    n_queries: int = 200,
    page_size: int = 65_536,
    n_vehicles: int = 25,
    cells_per_side: int = 32,
    region: Region = BOSTON,
    seed: int = 42,
    coverage: float = 0.01,
    layouts: tuple[str, ...] = ("N1", "N2", "N3", "N4", "rtree"),
    verify: bool = False,
) -> Figure2Result:
    """Run the case study and return per-layout measurements.

    Args:
        verify: additionally check that every layout returns the same
            (lat, lon) result multiset on a few queries (slower).
    """
    records = generate_traces(
        n_observations, n_vehicles=n_vehicles, region=region, seed=seed
    )
    queries = random_region_queries(
        n_queries, coverage=coverage, region=region, seed=seed + 1
    )
    lat_stride, lon_stride = grid_strides_for(region, cells_per_side)
    model = CostModel(page_size=page_size)
    result = Figure2Result(
        n_observations=n_observations,
        n_queries=n_queries,
        page_size=page_size,
    )

    expressions = {
        "N1": ("Traces", "raw + scan"),
        "N2": (N2_EXPR, "raw + drop column"),
        "N3": (n3_expr(lat_stride, lon_stride), "grid"),
        "N4": (n4_expr(lat_stride, lon_stride), "zcurve + delta"),
    }
    reference: list[list[tuple]] | None = None
    for name in layouts:
        if name == "rtree":
            result.layouts[name] = _run_rtree(
                records, queries, page_size, model
            )
            continue
        expr, description = expressions[name]
        measured, samples = _run_layout(
            name, expr, description, records, queries, page_size, model,
            collect_samples=verify,
        )
        result.layouts[name] = measured
        if verify and samples is not None:
            if reference is None:
                reference = samples
            else:
                for got, want in zip(samples, reference):
                    assert sorted(got) == sorted(want), (
                        f"layout {name} disagrees with N1 on a query"
                    )
    return result


def _run_layout(
    name: str,
    expr: str,
    description: str,
    records: list[tuple],
    queries: list[Rect],
    page_size: int,
    model: CostModel,
    collect_samples: bool = False,
) -> tuple[LayoutResult, list[list[tuple]] | None]:
    store = RodentStore(page_size=page_size, pool_capacity=64, cost_model=model)
    # Figure 2 reproduces the paper's designs as-is: zone-map pruning (a
    # later addition) would collapse the N1/N2 baselines and change the
    # figure's shape, so it is pinned off for this experiment.
    store.zone_pruning = False
    store.create_table("Traces", TRACE_SCHEMA, layout=expr)
    table = store.load("Traces", records)
    pages = seeks = found = 0.0
    samples: list[list[tuple]] = [] if collect_samples else None
    for i, query in enumerate(queries):
        rows, io = store.run_cold(
            lambda q=query: list(
                table.scan(fieldlist=["lat", "lon"], predicate=q)
            )
        )
        pages += io.page_reads
        seeks += io.read_seeks
        found += len(rows)
        if collect_samples and i < 3:
            samples.append(rows)
    n = len(queries)
    return (
        LayoutResult(
            name=name,
            description=description,
            storage_pages=table.layout.total_pages(),
            pages_per_query=pages / n,
            seeks_per_query=seeks / n,
            est_ms_per_query=model.cost_ms(pages / n, seeks / n),
            records_per_query=found / n,
        ),
        samples,
    )


def _run_rtree(
    records: list[tuple],
    queries: list[Rect],
    page_size: int,
    model: CostModel,
) -> LayoutResult:
    """The paper's baseline: a secondary R-Tree over the trajectories.

    Data lives in a row layout clustered by trajectory; the R-Tree maps each
    trajectory's bounding box to the page range holding its observations.
    Every overlapping trajectory costs (at least) one random I/O and drags in
    all of its observations — the overlap-driven behaviour the paper reports.
    """
    store = RodentStore(page_size=page_size, pool_capacity=64, cost_model=model)
    store.create_table(
        "Traces", TRACE_SCHEMA, layout="orderby[id, t](Traces)"
    )
    table = store.load("Traces", records)
    layout = table.layout
    positions = {n: i for i, n in enumerate(TRACE_SCHEMA.names())}

    # Page range per trajectory, from the clustered row layout.
    trip_pages: dict[int, tuple[int, int]] = {}
    trip_boxes: dict[int, list[float]] = {}
    sorted_records = sorted(records, key=lambda r: (r[3], r[0]))
    row = 0
    page_starts: list[int] = []
    acc = 0
    for count in layout.page_row_counts:
        page_starts.append(acc)
        acc += count

    def page_of(row_index: int) -> int:
        lo, hi = 0, len(page_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if page_starts[mid] <= row_index:
                lo = mid
            else:
                hi = mid - 1
        return lo

    for record in sorted_records:
        trip = record[3]
        page_index = page_of(row)
        if trip not in trip_pages:
            trip_pages[trip] = (page_index, page_index)
            trip_boxes[trip] = [
                record[1], record[1], record[2], record[2]
            ]
        else:
            first, _ = trip_pages[trip]
            trip_pages[trip] = (first, page_index)
            box = trip_boxes[trip]
            box[0] = min(box[0], record[1])
            box[1] = max(box[1], record[1])
            box[2] = min(box[2], record[2])
            box[3] = max(box[3], record[2])
        row += 1

    rtree = RTree(
        store.pool,
        [
            (MBR(box[0], box[2], box[1], box[3]), trip)
            for trip, box in trip_boxes.items()
        ],
    )

    pages = seeks = found = 0.0
    all_pages = set(range(len(layout.extent.page_ids)))

    def run_query(query: Rect) -> int:
        bounds = query.ranges()
        qlat, qlon = bounds["lat"], bounds["lon"]
        query_box = MBR(qlat[0], qlon[0], qlat[1], qlon[1])
        hits = rtree.search(query_box)
        wanted: set[int] = set()
        for _, trip in hits:
            first, last = trip_pages[trip]
            wanted.update(range(first, last + 1))
        batches = store.renderer.iter_row_batches(
            layout, skip=all_pages - wanted
        )
        keep = selector(query, positions)
        return sum(vector.mask_count(keep(batch)) for batch in batches)

    for query in queries:
        count, io = store.run_cold(lambda q=query: run_query(q))
        pages += io.page_reads
        seeks += io.read_seeks
        found += count

    n = len(queries)
    index_pages = store.disk.num_pages - layout.total_pages()
    return LayoutResult(
        name="rtree",
        description="secondary R-Tree over trajectories",
        storage_pages=layout.total_pages() + index_pages,
        pages_per_query=pages / n,
        seeks_per_query=seeks / n,
        est_ms_per_query=model.cost_ms(pages / n, seeks / n),
        records_per_query=found / n,
    )
