"""Physical storage plans.

A :class:`PhysicalPlan` is the algebra interpreter's output (paper Figure 1:
"Algebra Specification -> Algebra Interpreter -> Physical Design"): a
declarative description of *how* a table's bytes are arranged, with every
piece of metadata the layout renderer and the access methods need — storage
kind, stored schema, column groups, grid geometry, cell ordering, delta
fields, per-field codecs, and sort order.

Plans carry no data and no page ids; rendering a plan against actual records
produces a :class:`repro.layout.renderer.StoredLayout`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.algebra import ast
from repro.types.schema import Schema

# Storage kinds a plan can describe.
LAYOUT_ROWS = "rows"
LAYOUT_COLUMNS = "columns"
LAYOUT_GRID = "grid"
LAYOUT_FOLDED = "folded"
LAYOUT_ARRAY = "array"
LAYOUT_MIRROR = "mirror"
LAYOUT_PARTITIONED = "partitioned"
LAYOUT_LEVELLED = "levelled"


@dataclass(frozen=True)
class LevelSpec:
    """Levelled (LSM) storage parameters.

    Attributes:
        k: fan-out — a level holding ``k`` runs merges into one run of
            the next level.
        ratio: size ratio between consecutive levels; a run with ``n``
            rows belongs to the deepest level whose size class
            (``seal_rows * ratio**level``) still covers it.
        key: optional merge key (last-writer-wins upserts); ``None``
            means append-only multiset semantics.
    """

    k: int = 4
    ratio: int = 4
    key: "ast.Scalar | None" = None

    @property
    def key_field(self) -> str | None:
        """The merge key's field name when it is a plain field reference."""
        if isinstance(self.key, ast.FieldRef):
            return self.key.name
        return None

    def level_of(self, rows: int, seal_rows: int) -> int:
        """Size class of a run with ``rows`` rows (level 0 = freshest)."""
        level = 0
        capacity = max(1, seal_rows)
        while rows > capacity and level < 32:
            capacity *= self.ratio
            level += 1
        return level

    def describe(self) -> str:
        keyed = f"; key={self.key.to_text()}" if self.key is not None else ""
        return f"levels(k={self.k}, ratio={self.ratio}{keyed})"


@dataclass(frozen=True)
class PartitionSpec:
    """How a table's records split into horizontal partitions.

    Attributes:
        key: scalar expression evaluated per stored record.
        method: ``"value"`` (one partition per distinct key),
            ``"range"`` (``bounds`` are ascending split points), or
            ``"hash"`` (``buckets`` hash buckets).
        bounds: split points for range partitioning; bucket i covers
            ``[bounds[i-1], bounds[i])`` with open ends at both extremes.
        buckets: bucket count for hash partitioning.
    """

    key: "ast.Scalar"
    method: str = "value"
    bounds: tuple[float, ...] = ()
    buckets: int = 0

    @property
    def key_field(self) -> str | None:
        """The key's field name when it is a plain field reference (the
        case partition-bound pruning can exploit); ``None`` otherwise."""
        if isinstance(self.key, ast.FieldRef):
            return self.key.name
        return None

    def partition_count(self) -> int | None:
        """Number of partitions when fixed a priori (range/hash)."""
        if self.method == "range":
            return len(self.bounds) + 1
        if self.method == "hash":
            return self.buckets
        return None  # value partitions appear as keys are observed

    def describe(self) -> str:
        if self.method == "range":
            points = ", ".join(f"{b:g}" for b in self.bounds)
            return f"partition({self.key.to_text()}; range @ {points})"
        if self.method == "hash":
            return f"partition({self.key.to_text()}; hash x{self.buckets})"
        return f"partition({self.key.to_text()}; by value)"


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry of a gridded layout."""

    dims: tuple[str, ...]
    strides: tuple[float, ...]
    cell_order: str = "rowmajor"  # rowmajor | zorder | hilbert

    def describe(self) -> str:
        geometry = ", ".join(
            f"{d}/{s:g}" for d, s in zip(self.dims, self.strides)
        )
        return f"grid({geometry}; {self.cell_order})"


@dataclass(frozen=True)
class PhysicalPlan:
    """A compiled physical design for one table.

    Attributes:
        expr: the (normalized) algebra expression this plan realizes.
        kind: one of the ``LAYOUT_*`` constants.
        schema: schema of the records as stored (after project/append).
        column_groups: vertical partitioning, for ``columns`` layouts.
        grid: grid geometry, for ``grid`` layouts.
        delta_fields: fields stored delta-encoded (values must be
            reconstructed by prefix sums at scan time).
        codecs: field name -> codec name (``"*"`` key = whole record/column
            default).
        sort_keys: (field, ascending) pairs the stored order satisfies.
        group_fields / nest_fields: fold structure, for ``folded`` layouts.
        mirror_plans: the two sub-plans, for ``mirror`` layouts.
        partition: the router — how records split into regions (``None``:
            one region).
        levels: the level policy of every region (``None``: unbounded
            fan-in, a flat region).
        region_design: the design template of every region under a router
            or a level policy (``None``: the plan is itself one layout).
            Individual regions may later diverge from it through
            single-partition re-layouts; the authoritative design lives on
            the catalog's regions.
    """

    expr: ast.Node
    kind: str
    schema: Schema
    column_groups: tuple[tuple[str, ...], ...] | None = None
    grid: GridSpec | None = None
    delta_fields: tuple[str, ...] = ()
    codecs: tuple[tuple[str, str], ...] = ()  # (field or "*", codec name)
    sort_keys: tuple[tuple[str, bool], ...] = ()
    group_fields: tuple[str, ...] = ()
    nest_fields: tuple[str, ...] = ()
    mirror_plans: tuple["PhysicalPlan", ...] = ()
    partition: PartitionSpec | None = None
    levels: LevelSpec | None = None
    region_design: "PhysicalPlan | None" = None

    @property
    def region_template(self) -> "PhysicalPlan":
        """The design a new region of this plan starts with."""
        return self.region_design or self

    def codec_for(self, field_name: str) -> str:
        """Codec assigned to ``field_name`` (field-specific beats ``"*"``)."""
        default = "none"
        for key, codec in self.codecs:
            if key == field_name:
                return codec
            if key == "*":
                default = codec
        return default

    def describe(self) -> str:
        """One-line human-readable summary (used by the catalog and docs)."""
        parts = [self.kind]
        if self.partition is not None:
            parts.append(self.partition.describe())
        if self.levels is not None:
            parts.append(self.levels.describe())
        if self.region_design is not None:
            parts.append(f"each=[{self.region_design.describe()}]")
        if self.grid is not None:
            parts.append(self.grid.describe())
        if self.column_groups:
            groups = " ".join(
                "(" + ",".join(g) + ")" for g in self.column_groups
            )
            parts.append(f"groups={groups}")
        if self.delta_fields:
            parts.append(f"delta={','.join(self.delta_fields)}")
        if self.codecs:
            rendered = ",".join(
                f"{k if isinstance(k, str) else '+'.join(k)}:{c}"
                for k, c in self.codecs
            )
            parts.append(f"codecs={rendered}")
        if self.sort_keys:
            keys = ",".join(
                f"{name}{'' if asc else ' desc'}" for name, asc in self.sort_keys
            )
            parts.append(f"order={keys}")
        return " ".join(parts)
