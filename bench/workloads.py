"""The four benchmark workloads: tables, layouts and seeded op streams.

Every workload is a pure function of ``(seed, size, n_ops)``: it returns the
logical tables to load, an untimed warm-up pass and the measured op list.
Nothing here touches a store; :mod:`bench.harness` runs the ops and
:mod:`bench.model` replays them. ``README.md`` records why each workload
exists and which layers it is meant to load.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from repro.types.schema import Schema
from repro.workloads.cartel import BOSTON, TRACE_SCHEMA, generate_traces
from repro.workloads.sales import SALES_SCHEMA, generate_sales
from repro.workloads.timeseries import TIMESERIES_SCHEMA, generate_timeseries

from bench.model import Query

CUSTOMER_SCHEMA = Schema.of("customerid:int", "region:string", "segment:int")
_REGIONS = ("NE", "MW", "S", "W")
_METROS = (2100, 10000, 60600, 94100, 33100)
_YEARS = (2000, 2008)
_SALES_FIELDS = tuple(SALES_SCHEMA.names())


@dataclass
class TableSpec:
    name: str
    schema: Schema
    layout: str | None
    rows: list
    #: Fields the layout keeps (a ``project`` in the layout drops the rest).
    stored: tuple[str, ...]
    index: str | None = None


@dataclass
class Op:
    """One measured operation. ``kind`` names the per-kind latency metric."""

    kind: str
    table: str
    query: Query | None = None  # reads
    rows: list | None = None  # insert
    assignments: dict | None = None  # update
    where: tuple = ()  # update / delete
    flush: bool = False  # insert also runs flush_inserts()
    compact: bool = False  # insert also runs compact()

    @property
    def is_read(self) -> bool:
        return self.query is not None


@dataclass
class Data:
    tables: list[TableSpec]
    warm: list[Op]
    ops: list[Op]


@dataclass
class Workload:
    name: str
    why: str
    generate: Callable[[int, dict, int], Data]
    #: Nominal measured ops per second on the reference sandbox; the op count
    #: of a run is ``ops_per_s * --seconds`` so that counts repeat exactly.
    ops_per_s: float
    #: Every n-th read is checked against the model (all writes always are).
    verify_every: int
    pool_pages: int
    sizes: dict  # scale name -> size dict


def _read(kind: str, table: str, **kw) -> Op:
    return Op(kind, table, query=Query(table, **kw))


def _schedule(mix: tuple[tuple[str, float], ...], n: int) -> list[str]:
    """The op kinds of a run, evenly interleaved in the mix's proportions.

    The schedule is the same for every seed (the seed only picks each op's
    parameters), so the number of ops of each kind — and with it every
    percentile's position in the mix — does not vary from run to run.
    """
    counts = dict.fromkeys((kind for kind, _ in mix), 0)
    out = []
    for i in range(1, n + 1):
        kind = max(mix, key=lambda kw: kw[1] * i - counts[kw[0]])[0]
        counts[kind] += 1
        out.append(kind)
    return out


# --------------------------------------------------------------------------
# cartel_spatial — the paper's Figure 2 query on its N4 layout
# --------------------------------------------------------------------------

_N4 = (
    "compress[varint; lat, lon](delta[lat, lon](zorder("
    "grid[lat, lon],[{lat:g}, {lon:g}]"
    "(project[lat, lon](groupby[id](orderby[t](TracesGrid)))))))"
)
_CARTEL_MIX = (("region", 0.70), ("trajectory", 0.20), ("count", 0.10))


def _square(rng: random.Random, coverage: float) -> tuple:
    side_lat = int(math.sqrt(coverage) * BOSTON.lat_span)
    side_lon = int(math.sqrt(coverage) * BOSTON.lon_span)
    lat0 = rng.randrange(BOSTON.lat_min, BOSTON.lat_max - side_lat)
    lon0 = rng.randrange(BOSTON.lon_min, BOSTON.lon_max - side_lon)
    return (("lat", lat0, lat0 + side_lat), ("lon", lon0, lon0 + side_lon))


def _cartel_reads(rng, trips, n) -> list[Op]:
    ops = []
    for kind in _schedule(_CARTEL_MIX, n):
        if kind == "region":
            ops.append(_read(kind, "TracesGrid", select=("lat", "lon"),
                             where=_square(rng, 0.01)))
        elif kind == "trajectory":
            trip = rng.choice(trips)
            ops.append(_read(kind, "Traces", where=(("id", trip, trip),)))
        else:
            ops.append(_read(kind, "TracesGrid", where=_square(rng, 0.001),
                             aggs=(("n", "*"),)))
    return ops


def cartel_spatial(seed: int, size: dict, n_ops: int) -> Data:
    rng = random.Random(seed * 1009 + 1)
    rows = generate_traces(size["rows"], n_vehicles=size["vehicles"],
                           seed=seed * 1009 + 2)
    cells = size["cells_per_side"]
    layout = _N4.format(lat=BOSTON.lat_span / cells, lon=BOSTON.lon_span / cells)
    names = tuple(TRACE_SCHEMA.names())
    tables = [
        TableSpec("TracesGrid", TRACE_SCHEMA, layout, rows, ("lat", "lon")),
        TableSpec("Traces", TRACE_SCHEMA, "orderby[id](Traces)", rows, names,
                  index="id"),
    ]
    trips = sorted({r[3] for r in rows})
    return Data(
        tables,
        warm=_cartel_reads(rng, trips, size["warm_ops"]),
        ops=_cartel_reads(rng, trips, n_ops),
    )


# --------------------------------------------------------------------------
# sales_olap — scan / join / aggregate over a column store that fits in cache
# --------------------------------------------------------------------------

_OLAP_MIX = (("projection", 0.30), ("groupby", 0.28), ("slice", 0.30),
             ("join", 0.08), ("topk", 0.04))
#: A total order: every field breaks ties, so top-k has one right answer.
_TOPK_ORDER = ("-price",) + tuple(f for f in _SALES_FIELDS if f != "price")


def _year(rng) -> tuple:
    y = rng.randrange(_YEARS[0], _YEARS[1] + 1)
    return ("year", y, y)


def _zip_window(rng, width: int) -> tuple:
    lo = rng.choice(_METROS) + rng.randrange(0, 100 - width)
    return ("zipcode", lo, lo + width)


def _olap_reads(rng, n) -> list[Op]:
    ops = []
    for kind in _schedule(_OLAP_MIX, n):
        if kind == "projection":
            q = dict(select=("productid", "quantity"), where=(_year(rng),))
        elif kind == "groupby":
            q = dict(where=(_zip_window(rng, 99),), group_by=("year",),
                     aggs=(("revenue", "sum:price"),))
        elif kind == "slice":
            q = dict(where=(_year(rng), _zip_window(rng, 50)))
        elif kind == "join":
            q = dict(where=(_year(rng),), join=("Customers", "customerid"),
                     group_by=("region",),
                     aggs=(("revenue", "sum:price"), ("n", "*")))
        else:
            q = dict(select=("price", "productid", "customerid"),
                     order_by=_TOPK_ORDER, limit=10)
        ops.append(_read(kind, "Sales", **q))
    return ops


def sales_olap(seed: int, size: dict, n_ops: int) -> Data:
    rng = random.Random(seed * 1013 + 1)
    rows = generate_sales(size["rows"], seed=seed * 1013 + 2)
    customers = [
        (c, rng.choice(_REGIONS), rng.randrange(5)) for c in range(2000)
    ]
    tables = [
        TableSpec("Sales", SALES_SCHEMA, "columns(Sales)", rows, _SALES_FIELDS),
        TableSpec("Customers", CUSTOMER_SCHEMA, None, customers,
                  tuple(CUSTOMER_SCHEMA.names())),
    ]
    return Data(
        tables,
        warm=_olap_reads(rng, size["warm_ops"]),
        ops=_olap_reads(rng, n_ops),
    )


# --------------------------------------------------------------------------
# timeseries_ingest — insert stream into a levelled (LSM) column store
# --------------------------------------------------------------------------


def timeseries_ingest(seed: int, size: dict, n_ops: int) -> Data:
    per_txn, every = size["rows_per_txn"], size["inserts_per_read"]
    n_reads = n_ops // (every + 1)
    n_inserts = n_ops - n_reads
    stream = generate_timeseries(
        size["rows"] + n_inserts * per_txn, seed=seed * 1019 + 1
    )
    preload = stream[: size["rows"]]
    names = tuple(TIMESERIES_SCHEMA.names())
    tables = [
        TableSpec("Series", TIMESERIES_SCHEMA, "levels[4; 4](columns(Series))",
                  preload, names)
    ]

    def window(t_max: int) -> Op:
        return _read("window", "Series", where=(("t", t_max - 50, t_max),))

    ops: list[Op] = []
    for i in range(n_inserts):
        at = len(preload) + i * per_txn
        batch = stream[at : at + per_txn]
        ops.append(Op("insert", "Series", rows=batch))
        if (i + 1) % every == 0 and len(ops) < n_ops:
            ops.append(window(batch[-1][1]))
    warm = [window(preload[-1][1])] * size["warm_ops"]
    return Data(tables, warm, ops)


# --------------------------------------------------------------------------
# sales_mixed — reads and writes interleaved on a partitioned row store
# --------------------------------------------------------------------------

_MIXED_MIX = (("slice", 0.50), ("customer", 0.20), ("insert", 0.27),
              ("update", 0.02), ("delete", 0.01))


def _customer_year(rng) -> tuple:
    c = rng.randrange(2000)
    return (_year(rng), ("customerid", c, c))


def sales_mixed(seed: int, size: dict, n_ops: int) -> Data:
    rng = random.Random(seed * 1021 + 1)
    rows = generate_sales(size["rows"], seed=seed * 1021 + 2)
    tables = [
        TableSpec("Sales", SALES_SCHEMA, "partition[r.year](Sales)", rows,
                  _SALES_FIELDS)
    ]
    fresh = iter(generate_sales(n_ops * 20, seed=seed * 1021 + 3))
    compact_at = n_ops * 2 // 3
    ops: list[Op] = []
    inserts = 0
    compacted = False
    for i, kind in enumerate(_schedule(_MIXED_MIX, n_ops)):
        if kind == "slice":
            ops.append(_read(kind, "Sales",
                             where=(_year(rng), _zip_window(rng, 50))))
        elif kind == "customer":
            c = rng.randrange(2000)
            ops.append(_read(kind, "Sales", where=(("customerid", c, c),)))
        elif kind == "insert":
            inserts += 1
            op = Op(kind, "Sales", rows=[next(fresh) for _ in range(20)],
                    flush=inserts % size["flush_every"] == 0)
            if i >= compact_at and not compacted:
                op.compact = compacted = True
            ops.append(op)
        elif kind == "update":
            ops.append(Op(kind, "Sales", where=_customer_year(rng),
                          assignments={"quantity": rng.randrange(1, 10)}))
        else:
            ops.append(Op(kind, "Sales", where=_customer_year(rng)))
    warm = [
        _read("slice", "Sales", where=(_year(rng), _zip_window(rng, 50)))
        for _ in range(size["warm_ops"])
    ]
    return Data(tables, warm, ops)


#: ``--scale smoke``: the same code path on inputs small enough for a test,
#: with fewer repeats of the set-up and recovery timings.
_SMOKE = dict(setups=2, recoveries=2)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cartel_spatial",
            "Figure 2: selective spatial reads on the N4 grid layout, file "
            "larger than the buffer pool; storage, codec, zone maps, index",
            cartel_spatial, ops_per_s=560.0, verify_every=20, pool_pages=48,
            sizes={
                "full": dict(rows=50_000, vehicles=200, cells_per_side=32,
                             warm_ops=300),
                "smoke": dict(rows=2_000, vehicles=20, cells_per_side=8, warm_ops=5,
                              ops=60, **_SMOKE),
            },
        ),
        Workload(
            "sales_olap",
            "scan/join/aggregate on a column store that fits in cache: query "
            "operators and vectors dominate; storage changes must not move it",
            sales_olap, ops_per_s=105.0, verify_every=4, pool_pages=2048,
            sizes={
                "full": dict(rows=60_000, warm_ops=60),
                "smoke": dict(rows=2_000, warm_ops=5, ops=50, **_SMOKE),
            },
        ),
        Workload(
            "timeseries_ingest",
            "write-heavy stream into levels[4;4](columns): WAL, seal and "
            "inline merges, encode; window reads pay run-count read amp",
            timeseries_ingest, ops_per_s=620.0, verify_every=8, pool_pages=64,
            sizes={
                "full": dict(rows=20_000, rows_per_txn=100, inserts_per_read=10,
                             warm_ops=20),
                "smoke": dict(rows=500, rows_per_txn=100, inserts_per_read=10,
                              warm_ops=2, ops=66, seal_rows=256, **_SMOKE),
            },
        ),
        Workload(
            "sales_mixed",
            "reads interleaved with insert/update/delete on a partitioned row "
            "store larger than the pool: pending+overflow, copy-on-write",
            sales_mixed, ops_per_s=68.0, verify_every=4, pool_pages=32,
            sizes={
                "full": dict(rows=40_000, warm_ops=100, flush_every=50),
                "smoke": dict(rows=1_000, warm_ops=5, flush_every=5, ops=70,
                              **_SMOKE),
            },
        ),
    )
}
