"""Logical schemas: ordered collections of named, typed fields.

A :class:`Schema` corresponds to the paper's logical table definition, e.g.::

    Traces(int t, float lat, float lon, double ID, ...)

Records conforming to a schema are plain Python tuples; the schema maps field
names to tuple positions.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.types.types import DataType, NamedType, NestedType, type_from_name


class Field:
    """A single named, typed column of a logical schema."""

    __slots__ = ("name", "dtype")

    def __init__(self, name: str, dtype: DataType):
        if not name or not name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid field name {name!r}")
        self.name = name
        self.dtype = dtype

    def as_named_type(self) -> NamedType:
        return NamedType(self.name, self.dtype)

    def __repr__(self) -> str:
        return f"Field({self.name}:{self.dtype.name})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and other.name == self.name
            and other.dtype == self.dtype
        )

    def __hash__(self) -> int:
        return hash((self.name, self.dtype))


class Schema:
    """An ordered, immutable list of fields with name-based lookup."""

    def __init__(self, fields: Sequence[Field]):
        if not fields:
            raise SchemaError("a schema requires at least one field")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate field name(s): {dupes}")
        self.fields = tuple(fields)
        self._index = {f.name: i for i, f in enumerate(self.fields)}

    @classmethod
    def of(cls, *specs: str) -> "Schema":
        """Build a schema from ``"name:type"`` strings.

        Example::

            Schema.of("t:int", "lat:float", "lon:float", "id:int")
        """
        fields = []
        for spec in specs:
            try:
                name, type_name = spec.split(":")
            except ValueError:
                raise SchemaError(
                    f"field spec {spec!r} must look like 'name:type'"
                ) from None
            fields.append(Field(name.strip(), type_from_name(type_name.strip())))
        return cls(fields)

    # -- lookup ----------------------------------------------------------

    def index_of(self, name: str) -> int:
        """Position of field ``name``; raises SchemaError when absent."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"unknown field {name!r}; schema has {self.names()}"
            ) from None

    def field(self, name: str) -> Field:
        return self.fields[self.index_of(name)]

    def has_field(self, name: str) -> bool:
        return name in self._index

    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def types(self) -> list[DataType]:
        return [f.dtype for f in self.fields]

    # -- derivation ------------------------------------------------------

    def project(self, names: Iterable[str]) -> "Schema":
        """A new schema containing only ``names``, in the given order."""
        return Schema([self.field(n) for n in names])

    def append_fields(self, fields: Iterable[Field]) -> "Schema":
        """A new schema with ``fields`` appended (paper's ``append``)."""
        return Schema(list(self.fields) + list(fields))

    def record_type(self) -> NestedType:
        """The nesting type ``[l1:τ1, ..., ln:τn]`` of one record."""
        return NestedType(tuple(f.as_named_type() for f in self.fields))

    # -- sizing (used by the cost model) ----------------------------------

    def fixed_width(self) -> int | None:
        """Record byte width when all fields are fixed-size, else ``None``."""
        return self.record_type().fixed_size

    def estimated_record_size(self, record: Sequence[Any] | None = None) -> int:
        """Estimated encoded byte width of one record."""
        if record is not None:
            return sum(
                f.dtype.estimated_size(v)
                for f, v in zip(self.fields, record)
            )
        return sum(f.dtype.estimated_size() for f in self.fields)

    # -- record helpers ----------------------------------------------------

    def validate_record(self, record: Sequence[Any]) -> bool:
        if len(record) != len(self.fields):
            return False
        return all(f.dtype.validate(v) for f, v in zip(self.fields, record))

    def coerce_record(self, record: Sequence[Any]) -> tuple:
        """Coerce each value to its field type; raises on mismatch."""
        if len(record) != len(self.fields):
            raise SchemaError(
                f"record arity {len(record)} does not match schema arity "
                f"{len(self.fields)}"
            )
        return tuple(
            f.dtype.coerce(v) for f, v in zip(self.fields, record)
        )

    def coerce_records(self, records: Iterable[Sequence[Any]]) -> list[tuple]:
        """``[coerce_record(r) for r in records]``, a column at a time
        (the rows of :meth:`coerce_columns`)."""
        return list(zip(*self.coerce_columns(records)))

    def coerce_columns(
        self, records: Iterable[Sequence[Any]]
    ) -> list[Sequence[Any]]:
        """The columns of ``[coerce_record(r) for r in records]``, one value
        sequence per field.

        The arity is checked once for the whole batch, then each field's
        column goes through its type's bulk check
        (:meth:`~repro.types.types.DataType.coerce_column`). When a record
        has the wrong arity or any column fails its bulk check, the batch
        is coerced record by record instead — so the values, their Python
        types and the first error raised are always exactly those of the
        per-record loop.
        """
        records = records if isinstance(records, list) else list(records)
        if not records:
            return [() for _ in self.fields]
        try:
            arity = set(map(len, records))
        except TypeError:  # a record without a length: let the loop say so
            arity = None
        if arity == {len(self.fields)}:
            columns = []
            for f, column in zip(self.fields, zip(*records)):
                coerced = f.dtype.coerce_column(column)
                if coerced is None:
                    break
                columns.append(coerced)
            else:
                return columns
        return list(zip(*[self.coerce_record(r) for r in records]))

    def record_from_dict(self, mapping: dict[str, Any]) -> tuple:
        """Build a record tuple from a field-name keyed dict."""
        missing = [f.name for f in self.fields if f.name not in mapping]
        if missing:
            raise SchemaError(f"record dict is missing field(s) {missing}")
        return tuple(mapping[f.name] for f in self.fields)

    def record_to_dict(self, record: Sequence[Any]) -> dict[str, Any]:
        return {f.name: v for f, v in zip(self.fields, record)}

    # -- dunder ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and other.fields == self.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name}:{f.dtype.name}" for f in self.fields)
        return f"Schema({inner})"
