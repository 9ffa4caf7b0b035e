"""Catalog persistence: save/reopen a store across processes.

The page file already persists (``RodentStore(path=...)``); this module
persists the *catalog* — logical schemas, the algebra expression of each
table's physical design, and the layout metadata (extents, cell directories,
chunk maps) — as JSON. Reopening compiles each expression back into a
physical plan through the normal interpreter path, so the stored layout
metadata is always interpreted against a freshly type-checked plan.

Secondary indexes are rebuilt on demand rather than persisted (they are
derived data; `Table.create_index` reconstructs them from the base layout).
"""

from __future__ import annotations

import json
import zlib
from typing import TYPE_CHECKING, Any

from repro import vector
from repro.algebra.physical import PhysicalPlan
from repro.engine.catalog import Region, Run
from repro.engine.stats import FieldStats, TableStats
from repro.engine.synopsis import LayoutSynopsis, ZoneColumn, ZoneTable
from repro.errors import CatalogError, CorruptCatalogError
from repro.layout.renderer import (
    CellEntry,
    ColumnGroupStore,
    Extent,
    StoredLayout,
)
from repro.types.schema import Schema
from repro.types.types import type_from_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.database import RodentStore

FORMAT_VERSION = 1

#: JSON key holding the catalog checksum (absent in pre-integrity files).
CATALOG_CRC_KEY = "crc32"


def _catalog_crc(payload: dict) -> int:
    """CRC32 over the canonical JSON serialization of ``payload``.

    The canonical form (sorted keys, no whitespace) survives the
    pretty-printed round trip through :func:`save_catalog` /
    :func:`load_catalog`, so the checksum verifies content, not formatting.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


# -- layout (de)serialization -------------------------------------------------


def _zones_to_dict(zones: ZoneTable) -> dict:
    """One list per field per collection: ``fields[name]`` is
    ``[mins, maxs, null_counts]``, each parallel to ``rows``."""
    return {
        "rows": vector.to_list(zones.row_counts),
        "fields": {
            name: [
                vector.to_list(column.mins),
                vector.to_list(column.maxs),
                column.null_counts,
            ]
            for name, column in zones.fields.items()
        },
    }


def _columnar(zones: list[dict]) -> dict:
    """The per-zone shape of earlier catalogs — one ``{"rows", "fields":
    {name: [min, max, nulls, distinct]}}`` dict per zone — converted to the
    columnar one. A field a zone lacks reads as unknown bounds, which never
    prune."""
    unknown = (None, None, 0)
    names = dict.fromkeys(name for zone in zones for name in zone["fields"])
    return {
        "rows": [zone["rows"] for zone in zones],
        "fields": {
            name: [
                [zone["fields"].get(name, unknown)[part] for zone in zones]
                for part in range(3)
            ]
            for name in names
        },
    }


def _zones_from_dict(data: dict | list) -> ZoneTable:
    if isinstance(data, list):
        data = _columnar(data)
    fields = {
        name: ZoneColumn(*parts) for name, parts in data["fields"].items()
    }
    return ZoneTable(data["rows"], fields).pack()


def synopsis_to_dict(synopsis: LayoutSynopsis | None) -> dict | None:
    if synopsis is None:
        return None
    return {
        "page_zones": _zones_to_dict(synopsis.page_zones),
        "group_zones": [_zones_to_dict(z) for z in synopsis.group_zones],
        "cell_zones": _zones_to_dict(synopsis.cell_zones),
        "folded_zones": _zones_to_dict(synopsis.folded_zones),
    }


def synopsis_from_dict(data: dict | None) -> LayoutSynopsis | None:
    if data is None:
        return None
    return LayoutSynopsis(
        page_zones=_zones_from_dict(data.get("page_zones", [])),
        group_zones=[
            _zones_from_dict(zones) for zones in data.get("group_zones", [])
        ],
        cell_zones=_zones_from_dict(data.get("cell_zones", [])),
        folded_zones=_zones_from_dict(data.get("folded_zones", [])),
    )


def layout_to_dict(layout: StoredLayout) -> dict:
    return {
        "row_count": layout.row_count,
        "extent": layout.extent.page_ids if layout.extent else None,
        "column_groups": [
            {
                "fields": list(g.fields),
                "extent": g.extent.page_ids,
                "chunks": g.chunks,
            }
            for g in layout.column_groups
        ],
        "cell_directory": [
            {
                "coord": list(e.coord),
                "bounds": [list(b) for b in e.bounds],
                "offset": e.offset,
                "length": e.length,
                "row_count": e.row_count,
            }
            for e in layout.cell_directory
        ],
        "array_shape": list(layout.array_shape)
        if layout.array_shape is not None
        else None,
        "array_values_per_page": layout.array_values_per_page,
        "array_dtype": layout.array_dtype.name if layout.array_dtype else None,
        "mirrors": [layout_to_dict(m) for m in layout.mirrors],
        "grid_origin": list(layout.grid_origin),
        "folded_directory": layout.folded_directory,
        "folded_keys": [list(k) for k in layout.folded_keys],
        "page_row_counts": layout.page_row_counts,
        "synopsis": synopsis_to_dict(layout.synopsis),
    }


def layout_from_dict(data: dict, plan: PhysicalPlan) -> StoredLayout:
    mirrors = []
    for sub_data, sub_plan in zip(data.get("mirrors", []), plan.mirror_plans):
        mirrors.append(layout_from_dict(sub_data, sub_plan))
    return StoredLayout(
        plan=plan,
        row_count=data["row_count"],
        extent=Extent(list(data["extent"])) if data["extent"] else None,
        column_groups=[
            ColumnGroupStore(
                fields=tuple(g["fields"]),
                extent=Extent(list(g["extent"])),
                chunks=[tuple(c) for c in g["chunks"]],
            )
            for g in data.get("column_groups", [])
        ],
        cell_directory=[
            CellEntry(
                coord=tuple(e["coord"]),
                bounds=tuple(tuple(b) for b in e["bounds"]),
                offset=e["offset"],
                length=e["length"],
                row_count=e["row_count"],
            )
            for e in data.get("cell_directory", [])
        ],
        array_shape=tuple(data["array_shape"])
        if data.get("array_shape") is not None
        else None,
        array_values_per_page=data.get("array_values_per_page", 0),
        array_dtype=type_from_name(data["array_dtype"])
        if data.get("array_dtype")
        else None,
        mirrors=mirrors,
        grid_origin=tuple(data.get("grid_origin", [])),
        folded_directory=[tuple(f) for f in data.get("folded_directory", [])],
        folded_keys=[tuple(k) for k in data.get("folded_keys", [])],
        page_row_counts=list(data.get("page_row_counts", [])),
        synopsis=synopsis_from_dict(data.get("synopsis")),
    )


# -- stats (de)serialization ------------------------------------------------


def stats_to_dict(stats: TableStats) -> dict:
    return {
        "row_count": stats.row_count,
        "avg_record_width": stats.avg_record_width,
        "fields": {
            name: {
                "count": f.count,
                "nulls": f.nulls,
                "min_value": f.min_value,
                "max_value": f.max_value,
                "distinct": f.distinct,
                "histogram": f.histogram,
                "avg_width": f.avg_width,
            }
            for name, f in stats.fields.items()
        },
    }


def stats_from_dict(data: dict) -> TableStats:
    fields = {}
    for name, f in data["fields"].items():
        fields[name] = FieldStats(
            name=name,
            count=f["count"],
            nulls=f["nulls"],
            min_value=f["min_value"],
            max_value=f["max_value"],
            distinct=f["distinct"],
            histogram=list(f["histogram"]),
            avg_width=f["avg_width"],
        )
    return TableStats(
        row_count=data["row_count"],
        fields=fields,
        avg_record_width=data["avg_record_width"],
    )


# -- catalog save/load --------------------------------------------------------


def _run_to_dict(run) -> dict:
    """A run: its layout's keys, plus its place in the region and its
    design (earlier catalogs nest the layout under ``layout``)."""
    return {
        "rid": run.rid,
        "level": run.level,
        "min_seq": run.min_seq,
        "max_seq": run.max_seq,
        "expr": run.plan.expr.to_text(),
        **layout_to_dict(run.layout),
    }


def _region_runs(region) -> dict:
    return {
        "runs": [_run_to_dict(run) for run in region.runs],
        "pending": [list(r) for r in region.pending],
    }


def _tombstones(region) -> dict:
    return {"level_tombstones": [
        [seq, list(value) if isinstance(value, tuple) else value]
        for seq, value in region.level_tombstones
    ]}


def entry_to_dict(entry) -> dict:
    """Serialize one catalog entry (schema, design, layout metadata).

    Every region is written as its runs, pending rows and tombstones (a
    partition's only when it has any): a routed table's regions under
    ``partitions``, with their keys and designs, the one region of any
    other table at the entry's top level.
    """
    partitioned = entry.plan is not None and entry.plan.partition is not None
    single = Region() if partitioned or not entry.regions else entry.regions[0]
    return {
        "name": entry.name,
        "schema": [
            f"{f.name}:{f.dtype.name}"
            for f in entry.logical_schema.fields
        ],
        "expr": entry.plan.expr.to_text() if entry.plan else None,
        "loaded": entry.loaded,
        "stats": stats_to_dict(entry.stats) if entry.stats else None,
        "monitor": entry.monitor.to_dict()
        if entry.monitor is not None
        else None,
        # Written when not the default: an eager table's catalog is the
        # one a store without policies wrote.
        **({"policy": entry.policy} if entry.policy != "eager" else {}),
        "partitions": [
            {
                "pid": r.pid,
                "key": r.key,
                "lower": r.lower,
                "upper": r.upper,
                "expr": r.plan.expr.to_text() if r.plan else None,
                **_region_runs(r),
                **(_tombstones(r) if r.level_tombstones else {}),
            }
            for r in entry.regions if partitioned
        ],
        "next_partition_id": entry.next_partition_id,
        "partition_scans": entry.partition_scans,
        "partitions_pruned": entry.partitions_pruned_total,
        **_region_runs(single),
        **_tombstones(single),
        "next_run_id": entry.next_run_id,
        "next_run_seq": entry.next_run_seq,
        "wa_bytes_ingested": entry.wa_bytes_ingested,
        "wa_bytes_written": entry.wa_bytes_written,
        "wa_pages_compacted": entry.wa_pages_compacted,
        "wa_compactions": entry.wa_compactions,
    }


def save_catalog(store: "RodentStore", path: str) -> None:
    """Write the catalog (schemas, designs, layout metadata) to ``path``."""
    tables = [entry_to_dict(entry) for entry in store.catalog]
    payload = {
        "version": FORMAT_VERSION,
        "page_size": store.disk.page_size,
        "num_pages": store.disk.num_pages,
        "tables": tables,
    }
    payload[CATALOG_CRC_KEY] = _catalog_crc(payload)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1)


def read_catalog_payload(store: "RodentStore", path: str) -> dict:
    """Read and checksum-verify the catalog file, returning its payload.

    Raises :class:`~repro.errors.CorruptCatalogError` when the file cannot
    be parsed or its checksum does not match; files written before the
    integrity layer (no checksum key) are accepted as-is. Injected catalog
    read faults (``store.inject_io_faults``) are applied here, with bounded
    retries for transient errors.
    """
    with open(path, "rb") as f:
        raw = f.read()
    io_faults = getattr(store, "_io_faults", None)
    if io_faults is not None:
        attempts = 0
        while True:
            try:
                raw = io_faults.apply_read("catalog", raw)
                break
            except OSError as exc:
                attempts += 1
                if attempts <= 3:
                    continue
                raise CatalogError(
                    f"I/O error reading catalog {path}: {exc}"
                ) from exc
    registry = getattr(store, "integrity", None)
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        if registry is not None:
            registry.record_catalog_failure()
        raise CorruptCatalogError(
            f"catalog file {path} is unreadable: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        if registry is not None:
            registry.record_catalog_failure()
        raise CorruptCatalogError(
            f"catalog file {path} does not contain a JSON object"
        )
    stored = payload.pop(CATALOG_CRC_KEY, None)
    if stored is not None:
        actual = _catalog_crc(payload)
        if actual != stored:
            if registry is not None:
                registry.record_catalog_failure()
            raise CorruptCatalogError(
                f"catalog checksum mismatch for {path} "
                f"(stored {stored:#010x}, computed {actual:#010x})"
            )
        if registry is not None:
            registry.count_catalog_verification()
    return payload


def load_catalog(store: "RodentStore", path: str) -> None:
    """Restore a catalog previously written by :func:`save_catalog`.

    The store must be backed by the same page file the catalog was saved
    against (checked via page size; page contents are trusted).
    """
    payload = read_catalog_payload(store, path)
    if payload.get("version") != FORMAT_VERSION:
        raise CatalogError(
            f"unsupported catalog version {payload.get('version')!r}"
        )
    if payload["page_size"] != store.disk.page_size:
        raise CatalogError(
            f"catalog was saved with page size {payload['page_size']}, "
            f"store uses {store.disk.page_size}"
        )

    # First pass: register schemas so expressions can be compiled.
    for t in payload["tables"]:
        schema = Schema.of(*t["schema"])
        store.catalog.create(t["name"], schema)

    for t in payload["tables"]:
        apply_entry_dict(store, t)


def apply_entry_dict(store: "RodentStore", t: dict) -> None:
    """Restore one table's catalog state from :func:`entry_to_dict` output.

    Creates the entry when missing and fully overwrites the layout-bearing
    fields when present, so WAL recovery can replay a logged catalog record
    over whatever earlier state the checkpoint restored.
    """
    from repro.algebra.interpreter import AlgebraInterpreter

    if not store.catalog.has(t["name"]):
        store.catalog.create(t["name"], Schema.of(*t["schema"]))
    interpreter = AlgebraInterpreter(store.catalog.schemas())
    entry = store.catalog.entry(t["name"])
    entry.plan = (
        interpreter.compile(t["expr"]) if t["expr"] is not None else None
    )
    if t.get("stats"):
        entry.stats = stats_from_dict(t["stats"])
    if t.get("monitor"):
        from repro.optimizer.monitor import WorkloadMonitor

        entry.monitor = WorkloadMonitor.from_dict(t["monitor"])
    entry.policy = t.get("policy", "eager")
    scan_names = _scan_schema_of(entry).names()
    # Multiset tombstone values are full stored rows (JSON lists back to
    # the tuples scan resolution compares against); keyed values are the
    # merge-key scalar and pass through.
    spec = entry.plan.levels if entry.plan is not None else None
    keyed = spec is not None and spec.key is not None
    plans: dict[str, PhysicalPlan] = {}

    def compiled(expr: str) -> PhysicalPlan:
        if expr not in plans:
            plans[expr] = interpreter.compile(expr)
        return plans[expr]

    def region_from(data: dict, plan, **identity) -> Region:
        """A region from its catalog keys: its runs, each under its own
        design, its pending rows and its tombstones. The pending zone map
        is derived data: rebuilt from the restored rows so pruned scans
        keep skipping the buffer."""
        region = Region(plan=plan, **identity)
        runs = data.get("runs", [])
        for r in runs + _legacy_runs(data, entry.name, scan_names):
            run_plan = compiled(r["expr"]) if "expr" in r else plan
            region.runs.append(Run(
                run_plan,
                layout_from_dict(r.get("layout", r), run_plan),
                **{key: r.get(key, 0) for key in _RUN_ORDER},
            ))
        pending = [tuple(row) for row in data.get("pending", [])]
        if pending:
            region.add_pending(scan_names, pending)
        region.level_tombstones = [
            (seq, value if keyed or not isinstance(value, list)
             else tuple(value))
            for seq, value in data.get("level_tombstones", [])
        ]
        return region

    entry.region_index = {}
    if entry.plan is not None and entry.plan.partition is not None:
        entry.regions = [
            region_from(
                r,
                compiled(r["expr"]) if r.get("expr") else None,
                pid=r["pid"],
                key=r.get("key"),
                lower=r.get("lower"),
                upper=r.get("upper"),
            )
            for r in t.get("partitions", [])
        ]
        entry.next_partition_id = t.get(
            "next_partition_id",
            max((r.pid for r in entry.regions), default=-1) + 1,
        )
        entry.partition_scans = t.get("partition_scans", 0)
        entry.partitions_pruned_total = t.get("partitions_pruned", 0)
    else:
        entry.regions = [
            region_from(t, entry.plan and entry.plan.region_template)
        ]
    entry.loaded = t.get(
        "loaded",
        (entry.plan is not None and entry.plan.levels is not None)
        or bool(t.get("partitions_loaded"))
        or t.get("layout") is not None,
    )
    runs = list(entry.runs())
    entry.next_run_id = t.get(
        "next_run_id", max((r.rid for r in runs), default=-1) + 1
    )
    # Past every run's, whatever the catalog says (older writers left a
    # flat table's at 0): a tombstone must be newer than the runs it hits.
    entry.next_run_seq = max(
        t.get("next_run_seq", 0),
        max((r.max_seq for r in runs), default=-1) + 1,
    )
    entry.wa_bytes_ingested = t.get("wa_bytes_ingested", 0)
    entry.wa_bytes_written = t.get("wa_bytes_written", 0)
    entry.wa_pages_compacted = t.get("wa_pages_compacted", 0)
    entry.wa_compactions = t.get("wa_compactions", 0)


#: The run fields that order a region's runs, 0 in a catalog without them.
_RUN_ORDER = ("rid", "level", "min_seq", "max_seq")


def _legacy_runs(data: dict, name: str, scan_names: list[str]) -> list[dict]:
    """The runs of a flat table or a partition written before every region
    was written as its runs: the first run, under the region's design, as
    ``layout``, and each flush, rendered row-major over the stored fields,
    in ``overflow``."""
    runs = [{"layout": data["layout"]}] if data.get("layout") else []
    if data.get("overflow"):
        fields = ", ".join(scan_names)
        rows = f"project[{fields}]({name})"
        runs += [{"expr": rows, "layout": o} for o in data["overflow"]]
    return runs


def _scan_schema_of(entry) -> Schema:
    from repro.engine.table import _scan_schema

    if entry.plan is None:
        return entry.logical_schema
    return _scan_schema(entry.plan)
