"""Catalog persistence: save/reopen a store across processes.

The page file already persists (``RodentStore(path=...)``); this module
persists the *catalog* — logical schemas, the algebra expression of each
table's physical design, and the layout metadata (extents, cell directories,
chunk maps) — as JSON. Reopening compiles each expression back into a
physical plan through the normal interpreter path, so the stored layout
metadata is always interpreted against a freshly type-checked plan.

Secondary indexes are not persisted: a run's index is derived data, and
neither its pages nor the table's declaration are in the catalog. A
reopened store frees their pages with every unreferenced page
(``derive_free_pages``); ``Table.create_index`` declares them again.

Only :data:`FORMAT_VERSION` is read, every key its writer writes included;
``python -m repro.migrate`` converts older stores.
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
from repro.errors import CatalogError, CorruptCatalogError, StoreFormatError
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

FORMAT_VERSION = 3

#: JSON key holding the catalog checksum; a catalog without it is corrupt.
CATALOG_CRC_KEY = "crc32"


def store_format_error(path: str | None, why: str) -> StoreFormatError:
    return StoreFormatError(
        f"{path} is not a version {FORMAT_VERSION} store ({why}); "
        f"run: python -m repro.migrate {path}"
    )


def _catalog_crc(payload: dict) -> int:
    """CRC32 over the canonical JSON serialization of ``payload``.

    The canonical form (sorted keys, no whitespace) survives the round
    trip through :func:`save_catalog` (compact, in insertion order) /
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


def _zones_from_dict(data: dict) -> ZoneTable:
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
        page_zones=_zones_from_dict(data["page_zones"]),
        group_zones=[_zones_from_dict(zones) for zones in data["group_zones"]],
        cell_zones=_zones_from_dict(data["cell_zones"]),
        folded_zones=_zones_from_dict(data["folded_zones"]),
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
    if len(data["folded_keys"]) != len(data["folded_directory"]):
        raise CorruptCatalogError(
            f"a folded run has {len(data['folded_keys'])} keys for "
            f"{len(data['folded_directory'])} directory entries"
        )
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
            for g in data["column_groups"]
        ],
        cell_directory=[
            CellEntry(
                coord=tuple(e["coord"]),
                bounds=tuple(tuple(b) for b in e["bounds"]),
                offset=e["offset"],
                length=e["length"],
                row_count=e["row_count"],
            )
            for e in data["cell_directory"]
        ],
        array_shape=tuple(data["array_shape"])
        if data["array_shape"] is not None
        else None,
        array_values_per_page=data["array_values_per_page"],
        array_dtype=type_from_name(data["array_dtype"])
        if data["array_dtype"]
        else None,
        mirrors=[
            layout_from_dict(sub_data, sub_plan)
            for sub_data, sub_plan in zip(data["mirrors"], plan.mirror_plans)
        ],
        grid_origin=tuple(data["grid_origin"]),
        folded_directory=[tuple(f) for f in data["folded_directory"]],
        folded_keys=[tuple(k) for k in data["folded_keys"]],
        page_row_counts=list(data["page_row_counts"]),
        synopsis=synopsis_from_dict(data["synopsis"]),
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
    design."""
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
        "pending": [list(r) for r in region.pending.rows()],
    }


def _tombstones(region) -> dict:
    return {"level_tombstones": [
        [seq, list(value) if isinstance(value, tuple) else value]
        for seq, value in region.level_tombstones
    ], "hidden": region.hidden}


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
    # Compact: one call of the C encoder (``indent`` runs the Python one).
    text = json.dumps(payload, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def read_catalog_payload(store: "RodentStore", path: str) -> dict:
    """Read and checksum-verify the catalog file, returning its payload.

    Raises :class:`~repro.errors.StoreFormatError` when the catalog is not
    :data:`FORMAT_VERSION`, and :class:`~repro.errors.CorruptCatalogError`
    when the file cannot be parsed or its checksum is missing or does not
    match. Injected catalog read faults (``store.inject_io_faults``) are
    applied here, with bounded retries for transient errors.
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
    def corrupt(why: str) -> CorruptCatalogError:
        store.obs.add("integrity.catalog_failures")
        return CorruptCatalogError(f"catalog file {path} {why}")

    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise corrupt(f"is unreadable: {exc}") from exc
    if not isinstance(payload, dict):
        raise corrupt("does not contain a JSON object")
    stored = payload.pop(CATALOG_CRC_KEY, None)
    actual = _catalog_crc(payload)
    if stored is not None and actual != stored:
        raise corrupt(
            f"fails its checksum (stored {stored!r}, computed {actual:#010x})"
        )
    if payload.get("version") != FORMAT_VERSION:
        version = payload.get("version")
        raise store_format_error(store.disk.path, f"catalog version {version!r}")
    if stored is None:
        raise corrupt("has no checksum")
    store.obs.add("integrity.catalog_verifications")
    return payload


def load_catalog(store: "RodentStore", path: str) -> None:
    """Restore a catalog previously written by :func:`save_catalog`."""
    restore_catalog(store, read_catalog_payload(store, path))


def restore_catalog(store: "RodentStore", payload: dict) -> None:
    """Restore a verified catalog payload (:func:`read_catalog_payload`).

    The store must be backed by the same page file the catalog was saved
    against (checked via page size; page contents are trusted).
    """
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
    if t["stats"]:
        entry.stats = stats_from_dict(t["stats"])
    if t["monitor"]:
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
        for r in data["runs"]:
            run_plan = compiled(r["expr"])
            region.runs.append(Run(
                run_plan,
                layout_from_dict(r, run_plan),
                **{key: r[key] for key in _RUN_ORDER},
            ))
        pending = [tuple(row) for row in data["pending"]]
        if pending:
            region.add_pending(scan_names, pending)
        # A partition writes its tombstones only when it has any.
        region.level_tombstones = [
            (seq, value if keyed or not isinstance(value, list)
             else tuple(value))
            for seq, value in data.get("level_tombstones", [])
        ]
        region.hidden = data.get("hidden", 0)
        return region

    entry.region_index = {}
    if entry.plan is not None and entry.plan.partition is not None:
        entry.regions = [
            region_from(
                r,
                compiled(r["expr"]) if r["expr"] else None,
                pid=r["pid"],
                key=r["key"],
                lower=r["lower"],
                upper=r["upper"],
            )
            for r in t["partitions"]
        ]
        entry.next_partition_id = t["next_partition_id"]
        entry.partition_scans = t["partition_scans"]
        entry.partitions_pruned_total = t["partitions_pruned"]
    else:
        entry.regions = [
            region_from(t, entry.plan and entry.plan.region_template)
        ]
    entry.loaded = t["loaded"]
    entry.next_run_id = t["next_run_id"]
    entry.next_run_seq = t["next_run_seq"]
    entry.wa_bytes_ingested = t["wa_bytes_ingested"]
    entry.wa_bytes_written = t["wa_bytes_written"]
    entry.wa_pages_compacted = t["wa_pages_compacted"]
    entry.wa_compactions = t["wa_compactions"]


#: The run fields that order a region's runs.
_RUN_ORDER = ("rid", "level", "min_seq", "max_seq")


def _scan_schema_of(entry) -> Schema:
    from repro.engine.table import _scan_schema

    if entry.plan is None:
        return entry.logical_schema
    return _scan_schema(entry.plan)
