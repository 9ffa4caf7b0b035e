"""Data types supported by the storage algebra.

The paper (Section 3.2) defines the type grammar::

    τ := int | float | string | ... | l : τ | [τ1, ..., τn]

i.e. a collection of scalar types of fixed or variable size, a *named* type
``l : τ`` that attaches a literal name to a type, and a *nesting* type
``[τ1, ..., τn]`` that groups a list of types.

Scalar types are singletons (``INT``, ``FLOAT``, ...); named and nested types
are immutable value objects built on top of them.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.errors import SchemaError, TypeCheckError


class DataType:
    """Base class for all storage-algebra types.

    Attributes:
        name: human-readable type name as used in the paper's grammar.
        struct_format: the :mod:`struct` format character for fixed-size
            scalars, or ``None`` for variable-size / composite types.
        fixed_size: encoded byte width for fixed-size scalars, else ``None``.
    """

    name: str = "type"
    struct_format: str | None = None
    fixed_size: int | None = None

    def validate(self, value: Any) -> bool:
        """Return True when ``value`` is storable as this type."""
        raise NotImplementedError

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` into this type's canonical Python representation.

        Raises:
            TypeCheckError: if the value cannot be represented.
        """
        if not self.validate(value):
            raise TypeCheckError(f"value {value!r} is not a valid {self.name}")
        return value

    def coerce_column(self, values: Sequence[Any]) -> Sequence[Any] | None:
        """``values`` coerced in bulk, or ``None`` when a bulk check cannot
        vouch for every one of them — the caller then coerces value by
        value, so results and errors are always :meth:`coerce`'s."""
        return None

    @property
    def is_fixed_size(self) -> bool:
        return self.fixed_size is not None

    def estimated_size(self, value: Any = None) -> int:
        """Byte width used for cost estimation.

        For variable-size types the estimate uses ``value`` when provided and a
        conservative default otherwise.
        """
        if self.fixed_size is not None:
            return self.fixed_size
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


class IntType(DataType):
    """64-bit signed integer."""

    name = "int"
    struct_format = "q"
    fixed_size = 8
    _MIN = -(2**63)
    _MAX = 2**63 - 1

    def validate(self, value: Any) -> bool:
        return (
            isinstance(value, int)
            and not isinstance(value, bool)
            and self._MIN <= value <= self._MAX
        )

    def coerce(self, value: Any) -> int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if not self.validate(value):
            raise TypeCheckError(f"value {value!r} is not a valid {self.name}")
        return value

    def coerce_column(self, values: Sequence[Any]) -> Sequence[Any] | None:
        if set(map(type, values)) != {int}:
            return None
        if min(values) < self._MIN or max(values) > self._MAX:
            return None
        return values


class FloatType(DataType):
    """64-bit IEEE float (the paper's ``float``)."""

    name = "float"
    struct_format = "d"
    fixed_size = 8

    def validate(self, value: Any) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def coerce(self, value: Any) -> float:
        if not self.validate(value):
            raise TypeCheckError(f"value {value!r} is not a valid {self.name}")
        return float(value)

    def coerce_column(self, values: Sequence[Any]) -> Sequence[Any] | None:
        kinds = set(map(type, values))
        if kinds == {float}:
            return values
        if not kinds <= {int, float}:
            return None
        try:
            return list(map(float, values))
        except OverflowError:  # an int beyond float range: coerce raises it
            return None


class DoubleType(FloatType):
    """Alias for a 64-bit float; kept distinct because the case-study schema
    declares ``double ID``."""

    name = "double"


class BoolType(DataType):
    """Boolean stored as a single byte."""

    name = "bool"
    struct_format = "?"
    fixed_size = 1

    def validate(self, value: Any) -> bool:
        return isinstance(value, bool)

    def coerce_column(self, values: Sequence[Any]) -> Sequence[Any] | None:
        return values if set(map(type, values)) == {bool} else None


class TimestampType(IntType):
    """Timestamp stored as a 64-bit integer (e.g. epoch seconds)."""

    name = "timestamp"


class StringType(DataType):
    """Variable-length UTF-8 string."""

    name = "string"
    struct_format = None
    fixed_size = None
    DEFAULT_ESTIMATE = 16

    def validate(self, value: Any) -> bool:
        return isinstance(value, str)

    def coerce_column(self, values: Sequence[Any]) -> Sequence[Any] | None:
        return values if set(map(type, values)) == {str} else None

    def estimated_size(self, value: Any = None) -> int:
        if isinstance(value, str):
            return 4 + len(value.encode("utf-8"))
        return 4 + self.DEFAULT_ESTIMATE


class BytesType(DataType):
    """Variable-length raw bytes (used for compressed blocks)."""

    name = "bytes"
    struct_format = None
    fixed_size = None
    DEFAULT_ESTIMATE = 32

    def validate(self, value: Any) -> bool:
        return isinstance(value, (bytes, bytearray))

    def coerce(self, value: Any) -> bytes:
        if not self.validate(value):
            raise TypeCheckError(f"value {value!r} is not a valid {self.name}")
        return bytes(value)

    def coerce_column(self, values: Sequence[Any]) -> Sequence[Any] | None:
        return values if set(map(type, values)) == {bytes} else None

    def estimated_size(self, value: Any = None) -> int:
        if isinstance(value, (bytes, bytearray)):
            return 4 + len(value)
        return 4 + self.DEFAULT_ESTIMATE


class NamedType(DataType):
    """The paper's ``l : τ`` — a type annotated with a literal name."""

    def __init__(self, label: str, base: DataType):
        if not label:
            raise SchemaError("a named type requires a non-empty label")
        self.label = label
        self.base = base

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"{self.label}:{self.base.name}"

    @property
    def struct_format(self) -> str | None:  # type: ignore[override]
        return self.base.struct_format

    @property
    def fixed_size(self) -> int | None:  # type: ignore[override]
        return self.base.fixed_size

    def validate(self, value: Any) -> bool:
        return self.base.validate(value)

    def coerce(self, value: Any) -> Any:
        return self.base.coerce(value)

    def coerce_column(self, values: Sequence[Any]) -> Sequence[Any] | None:
        return self.base.coerce_column(values)

    def estimated_size(self, value: Any = None) -> int:
        return self.base.estimated_size(value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NamedType)
            and other.label == self.label
            and other.base == self.base
        )

    def __hash__(self) -> int:
        return hash((self.label, self.base))


class NestedType(DataType):
    """The paper's nesting clause ``[τ1, ..., τn]``."""

    def __init__(self, element_types: Sequence[DataType]):
        self.element_types = tuple(element_types)

    @property
    def name(self) -> str:  # type: ignore[override]
        inner = ", ".join(t.name for t in self.element_types)
        return f"[{inner}]"

    @property
    def fixed_size(self) -> int | None:  # type: ignore[override]
        total = 0
        for t in self.element_types:
            if t.fixed_size is None:
                return None
            total += t.fixed_size
        return total

    def validate(self, value: Any) -> bool:
        if not isinstance(value, (list, tuple)):
            return False
        if len(value) != len(self.element_types):
            return False
        return all(t.validate(v) for t, v in zip(self.element_types, value))

    def coerce(self, value: Any) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeCheckError(f"value {value!r} is not a valid nesting")
        if len(value) != len(self.element_types):
            raise TypeCheckError(
                f"nesting arity mismatch: expected {len(self.element_types)}, "
                f"got {len(value)}"
            )
        return tuple(t.coerce(v) for t, v in zip(self.element_types, value))

    def estimated_size(self, value: Any = None) -> int:
        if value is not None and isinstance(value, (list, tuple)):
            return sum(
                t.estimated_size(v)
                for t, v in zip(self.element_types, value)
            )
        return sum(t.estimated_size() for t in self.element_types)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NestedType)
            and other.element_types == self.element_types
        )

    def __hash__(self) -> int:
        return hash(self.element_types)


class ListType(DataType):
    """A homogeneous, variable-length list of one element type.

    Not in the paper's grammar verbatim but needed to type the result of
    ``fold`` (which nests a *variable* number of co-occurring values).
    """

    def __init__(self, element_type: DataType):
        self.element_type = element_type

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"list<{self.element_type.name}>"

    def validate(self, value: Any) -> bool:
        if not isinstance(value, (list, tuple)):
            return False
        return all(self.element_type.validate(v) for v in value)

    def estimated_size(self, value: Any = None) -> int:
        if value is not None and isinstance(value, (list, tuple)):
            return 4 + sum(self.element_type.estimated_size(v) for v in value)
        return 4 + 4 * self.element_type.estimated_size()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ListType)
            and other.element_type == self.element_type
        )

    def __hash__(self) -> int:
        return hash(("list", self.element_type))


# Singleton scalar instances, mirroring the paper's `int | float | string | ...`
INT = IntType()
FLOAT = FloatType()
DOUBLE = DoubleType()
BOOL = BoolType()
TIMESTAMP = TimestampType()
STRING = StringType()
BYTES = BytesType()

_BY_NAME: dict[str, DataType] = {
    t.name: t for t in (INT, FLOAT, DOUBLE, BOOL, TIMESTAMP, STRING, BYTES)
}


def type_from_name(name: str) -> DataType:
    """Look up a scalar type by its grammar name (``int``, ``float``, ...)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise SchemaError(f"unknown type name {name!r}") from None


def named(label: str, base: DataType) -> NamedType:
    """Convenience constructor for the ``l : τ`` grammar production."""
    return NamedType(label, base)


def nesting(element_types: Iterable[DataType]) -> NestedType:
    """Convenience constructor for the ``[τ1, ..., τn]`` grammar production."""
    return NestedType(tuple(element_types))
