"""Storage-algebra abstract syntax.

Expressions describe *transformations of the canonical row-major layout* of a
logical table (paper Section 3). Nodes are immutable values: they can be
hashed, compared, rewritten, pretty-printed back to the paper's syntax
(:meth:`Node.to_text`), evaluated over columns
(:mod:`repro.layout.columnar`), type-checked
(:mod:`repro.algebra.validation`), and compiled to physical storage plans
(:mod:`repro.algebra.interpreter`).

Two node families live here:

* **scalar expressions** (:class:`Scalar` subclasses) — field references,
  constants, comparisons, arithmetic — used by ``select``, ``partition`` and
  comprehension conditions;
* **layout expressions** (:class:`Node` subclasses) — the algebra operators:
  ``project``, ``select``, ``fold``, ``grid``, ``zorder``, ``delta``, ...
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Sequence

from repro.errors import AlgebraError

# ---------------------------------------------------------------------------
# Scalar expressions (conditions and computed elements)
# ---------------------------------------------------------------------------


class Scalar:
    """Base class for scalar expressions evaluated per record."""

    def to_text(self) -> str:
        raise NotImplementedError

    def fields_used(self) -> set[str]:
        """Names of schema fields this expression reads."""
        return set()

    def __repr__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class FieldRef(Scalar):
    """A reference to a record field, printed as ``r.name``."""

    name: str

    def to_text(self) -> str:
        return f"r.{self.name}"

    def fields_used(self) -> set[str]:
        return {self.name}


@dataclass(frozen=True)
class Const(Scalar):
    """A literal constant."""

    value: Any

    def to_text(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return repr(self.value)


@dataclass(frozen=True)
class Comparison(Scalar):
    """Binary comparison; ``op`` is one of ``= != < <= > >=``."""

    op: str
    left: Scalar
    right: Scalar

    _OPS: tuple[str, ...] = ("=", "!=", "<", "<=", ">", ">=")

    def __post_init__(self):
        if self.op not in self._OPS:
            raise AlgebraError(f"unknown comparison operator {self.op!r}")

    def to_text(self) -> str:
        return f"{self.left.to_text()} {self.op} {self.right.to_text()}"

    def fields_used(self) -> set[str]:
        return self.left.fields_used() | self.right.fields_used()


@dataclass(frozen=True)
class Arith(Scalar):
    """Binary arithmetic; ``op`` is one of ``+ - * / %``."""

    op: str
    left: Scalar
    right: Scalar

    _OPS: tuple[str, ...] = ("+", "-", "*", "/", "%")

    def __post_init__(self):
        if self.op not in self._OPS:
            raise AlgebraError(f"unknown arithmetic operator {self.op!r}")

    def to_text(self) -> str:
        return f"({self.left.to_text()} {self.op} {self.right.to_text()})"

    def fields_used(self) -> set[str]:
        return self.left.fields_used() | self.right.fields_used()


@dataclass(frozen=True)
class Logical(Scalar):
    """N-ary conjunction/disjunction or unary negation."""

    op: str  # "and" | "or" | "not"
    operands: tuple[Scalar, ...]

    def __post_init__(self):
        if self.op not in ("and", "or", "not"):
            raise AlgebraError(f"unknown logical operator {self.op!r}")
        if self.op == "not" and len(self.operands) != 1:
            raise AlgebraError("'not' takes exactly one operand")
        if self.op in ("and", "or") and len(self.operands) < 2:
            raise AlgebraError(f"'{self.op}' takes at least two operands")

    def to_text(self) -> str:
        if self.op == "not":
            return f"not ({self.operands[0].to_text()})"
        joiner = f" {self.op} "
        return "(" + joiner.join(o.to_text() for o in self.operands) + ")"

    def fields_used(self) -> set[str]:
        used: set[str] = set()
        for operand in self.operands:
            used |= operand.fields_used()
        return used


def conj(*operands: Scalar) -> Scalar:
    """Conjunction helper collapsing the single-operand case."""
    if len(operands) == 1:
        return operands[0]
    return Logical("and", tuple(operands))


# ---------------------------------------------------------------------------
# Ordering keys
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SortKey:
    """One ``orderby`` key: a field and a direction."""

    name: str
    ascending: bool = True

    def to_text(self) -> str:
        return f"r.{self.name} {'ASC' if self.ascending else 'DESC'}"


# ---------------------------------------------------------------------------
# Layout expressions
# ---------------------------------------------------------------------------


class Node:
    """Base class for layout expressions."""

    op_name: str = "node"

    def children(self) -> tuple["Node", ...]:
        raise NotImplementedError

    def with_children(self, children: Sequence["Node"]) -> "Node":
        """Rebuild this node with new children (same arity required)."""
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def transform_bottom_up(self, fn: Callable[["Node"], "Node"]) -> "Node":
        """Rewrite the tree bottom-up: children first, then this node."""
        new_children = [c.transform_bottom_up(fn) for c in self.children()]
        node = self if tuple(new_children) == self.children() else (
            self.with_children(new_children)
        )
        return fn(node)

    def table_names(self) -> set[str]:
        """Names of all logical tables referenced by the expression."""
        return {
            node.name for node in self.walk() if isinstance(node, TableRef)
        }

    def __repr__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class TableRef(Node):
    """The canonical row-major nesting of a logical table (the paper's N)."""

    name: str
    op_name = "table"

    def children(self) -> tuple[Node, ...]:
        return ()

    def with_children(self, children: Sequence[Node]) -> Node:
        if children:
            raise AlgebraError("TableRef takes no children")
        return self

    def to_text(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Node):
    """An explicit nesting, e.g. ``[[1, 2, 3], [12, 13, 14]]``."""

    nesting: tuple
    op_name = "literal"

    @staticmethod
    def of(value: Any) -> "Literal":
        return Literal(_freeze(value))

    def children(self) -> tuple[Node, ...]:
        return ()

    def with_children(self, children: Sequence[Node]) -> Node:
        if children:
            raise AlgebraError("Literal takes no children")
        return self

    def to_text(self) -> str:
        return _render_nesting(self.nesting)

    def thaw(self) -> list:
        """The literal as mutable nested lists."""
        return _thaw(self.nesting)


def _freeze(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


def _render_nesting(value: Any) -> str:
    if isinstance(value, tuple):
        return "[" + ", ".join(_render_nesting(v) for v in value) + "]"
    return repr(value)


class _Unary(Node):
    """Shared plumbing for single-child operators."""

    child: Node

    def children(self) -> tuple[Node, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Node]) -> Node:
        (child,) = children
        return replace(self, child=child)


@dataclass(frozen=True)
class Project(_Unary):
    """``project[Ai,...,Aj](N)`` — isolate fields (paper §3.5.1)."""

    child: Node
    fields: tuple[str, ...]
    op_name = "project"

    def __post_init__(self):
        if not self.fields:
            raise AlgebraError("project requires at least one field")

    def to_text(self) -> str:
        return f"project[{', '.join(self.fields)}]({self.child.to_text()})"


@dataclass(frozen=True)
class Append(_Unary):
    """``append([e1,...,em], N)`` — attach computed elements (paper §3.5.1)."""

    child: Node
    elements: tuple[tuple[str, Scalar], ...]  # (new field name, expression)
    op_name = "append"

    def __post_init__(self):
        if not self.elements:
            raise AlgebraError("append requires at least one element")

    def to_text(self) -> str:
        inner = ", ".join(
            f"{name}={expr.to_text()}" for name, expr in self.elements
        )
        return f"append[{inner}]({self.child.to_text()})"


@dataclass(frozen=True)
class Select(_Unary):
    """``select_C(N)`` — keep records satisfying C (paper §3.5.1)."""

    child: Node
    condition: Scalar
    op_name = "select"

    def to_text(self) -> str:
        return f"select[{self.condition.to_text()}]({self.child.to_text()})"


@dataclass(frozen=True)
class Partition(_Unary):
    """``partition_C(N)`` — horizontal partitioning (paper §3.5.1).

    Records are split into sub-nestings keyed by the value of ``key`` (a
    scalar expression). Three partitioning methods are supported:

    * ``value`` (the paper's default) — one partition per distinct key
      value, in first-occurrence order;
    * ``range`` — ``args`` are ascending split points ``b1 < ... < bk``
      defining k+1 partitions ``(-inf, b1), [b1, b2), ..., [bk, +inf)``,
      written ``partition[r.t; range, b1, ..., bk](N)``;
    * ``hash`` — ``args`` is a single bucket count n, records land in
      bucket ``stable_hash(key) % n``, written
      ``partition[r.id; hash, n](N)``.

    The child expression is each partition's physical design: the engine
    renders every partition as an independent region of that design.
    """

    child: Node
    key: Scalar
    method: str = "value"
    args: tuple[float, ...] = ()
    op_name = "partition"

    def __post_init__(self):
        if self.method not in ("value", "range", "hash"):
            raise AlgebraError(f"unknown partition method {self.method!r}")
        if self.method == "value" and self.args:
            raise AlgebraError("value partitioning takes no arguments")
        if self.method == "range":
            if not self.args:
                raise AlgebraError(
                    "range partitioning requires at least one split point"
                )
            if any(b >= a for b, a in zip(self.args, self.args[1:])):
                raise AlgebraError(
                    "range partition split points must be strictly ascending"
                )
        if self.method == "hash":
            if (
                len(self.args) != 1
                or self.args[0] != int(self.args[0])
                or not 1 <= int(self.args[0]) <= 4096
            ):
                raise AlgebraError(
                    "hash partitioning takes one bucket count in [1, 4096]"
                )

    def to_text(self) -> str:
        if self.method == "value":
            return f"partition[{self.key.to_text()}]({self.child.to_text()})"
        rendered = ", ".join(f"{a:g}" for a in self.args)
        return (
            f"partition[{self.key.to_text()}; {self.method}, {rendered}]"
            f"({self.child.to_text()})"
        )


@dataclass(frozen=True)
class Levels(_Unary):
    """``levels[k; ratio](N)`` — log-structured (LSM) levelled storage.

    The child expression is the design of each *run*: the engine renders
    inserted batches as immutable L0 runs of that design and merges runs
    size-tiered into exponentially larger levels, so ingest never rewrites
    existing data. ``k`` is the fan-out — a level holding ``k`` runs is
    merged into one run of the next level; ``ratio`` is the size ratio
    between consecutive levels (it scales each level's run-size class and
    thereby the merge cadence).

    An optional merge ``key`` gives upsert semantics: scans resolve runs
    newest-first and a newer row shadows older rows with the same key
    (last-writer-wins), written ``levels[k; ratio; r.id](N)``. Without a
    key the table is an append-only multiset. Deletes become tombstones
    either way, resolved at scan and merge time.
    """

    child: Node
    k: int = 4
    ratio: int = 4
    key: Scalar | None = None
    op_name = "levels"

    def __post_init__(self):
        if self.k != int(self.k) or not 2 <= int(self.k) <= 64:
            raise AlgebraError("levels fan-out k must be in [2, 64]")
        if self.ratio != int(self.ratio) or not 2 <= int(self.ratio) <= 64:
            raise AlgebraError("levels size ratio must be in [2, 64]")

    def to_text(self) -> str:
        if self.key is not None:
            return (
                f"levels[{self.k}; {self.ratio}; {self.key.to_text()}]"
                f"({self.child.to_text()})"
            )
        return f"levels[{self.k}; {self.ratio}]({self.child.to_text()})"


@dataclass(frozen=True)
class Fold(_Unary):
    """``fold_{B,A}(N)`` — nest B values co-occurring with each A value
    (paper §3.5.2)."""

    child: Node
    nest_fields: tuple[str, ...]  # B
    group_fields: tuple[str, ...]  # A
    op_name = "fold"

    def __post_init__(self):
        if not self.nest_fields or not self.group_fields:
            raise AlgebraError("fold requires nest and group fields")
        overlap = set(self.nest_fields) & set(self.group_fields)
        if overlap:
            raise AlgebraError(
                f"fold fields may not overlap (shared: {sorted(overlap)})"
            )

    def to_text(self) -> str:
        return (
            f"fold[{', '.join(self.nest_fields)}; "
            f"{', '.join(self.group_fields)}]({self.child.to_text()})"
        )


@dataclass(frozen=True)
class Unfold(_Unary):
    """Reverse of ``fold`` (paper §3.5.2)."""

    child: Node
    op_name = "unfold"

    def to_text(self) -> str:
        return f"unfold({self.child.to_text()})"


@dataclass(frozen=True)
class Prejoin(Node):
    """``prejoin_joinatt(N1, N2)`` — denormalizing equi-join (paper §3.5.2)."""

    left: Node
    right: Node
    join_attr: str
    op_name = "prejoin"

    def children(self) -> tuple[Node, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Node]) -> Node:
        left, right = children
        return replace(self, left=left, right=right)

    def to_text(self) -> str:
        return (
            f"prejoin[{self.join_attr}]"
            f"({self.left.to_text()}, {self.right.to_text()})"
        )


@dataclass(frozen=True)
class Delta(_Unary):
    """``∆(N)`` — delta compression of ordered values (paper §3.5.2).

    With ``fields`` given, each named field is replaced by its difference
    from the previous record (per cell when the input is gridded); without
    fields, the input is treated as a flat list of numbers.
    """

    child: Node
    fields: tuple[str, ...] = ()
    op_name = "delta"

    def to_text(self) -> str:
        if self.fields:
            return f"delta[{', '.join(self.fields)}]({self.child.to_text()})"
        return f"delta({self.child.to_text()})"


@dataclass(frozen=True)
class OrderBy(_Unary):
    """``orderby`` clause as a standalone transform (paper §3.5.3)."""

    child: Node
    keys: tuple[SortKey, ...]
    op_name = "orderby"

    def __post_init__(self):
        if not self.keys:
            raise AlgebraError("orderby requires at least one key")

    def to_text(self) -> str:
        inner = ", ".join(k.to_text() for k in self.keys)
        return f"orderby[{inner}]({self.child.to_text()})"


@dataclass(frozen=True)
class GroupBy(_Unary):
    """``groupby`` clause — regroup records into sub-nestings per key."""

    child: Node
    fields: tuple[str, ...]
    op_name = "groupby"

    def __post_init__(self):
        if not self.fields:
            raise AlgebraError("groupby requires at least one field")

    def to_text(self) -> str:
        return f"groupby[{', '.join(self.fields)}]({self.child.to_text()})"


@dataclass(frozen=True)
class Limit(_Unary):
    """``limit`` clause — keep the first n records."""

    child: Node
    count: int
    op_name = "limit"

    def __post_init__(self):
        if self.count < 0:
            raise AlgebraError("limit must be non-negative")

    def to_text(self) -> str:
        return f"limit[{self.count}]({self.child.to_text()})"


@dataclass(frozen=True)
class ZOrder(_Unary):
    """``zorder(N)`` — rearrange nested elements along a Z-curve
    (paper §3.5.3)."""

    child: Node
    op_name = "zorder"

    def to_text(self) -> str:
        return f"zorder({self.child.to_text()})"


@dataclass(frozen=True)
class HilbertOrder(_Unary):
    """Hilbert-curve ordering — an extension beyond the paper's zorder."""

    child: Node
    op_name = "hilbert"

    def to_text(self) -> str:
        return f"hilbert({self.child.to_text()})"


@dataclass(frozen=True)
class Transpose(_Unary):
    """``transpose(N)`` — matrix transposition (paper §3.6)."""

    child: Node
    op_name = "transpose"

    def to_text(self) -> str:
        return f"transpose({self.child.to_text()})"


@dataclass(frozen=True)
class Grid(_Unary):
    """``grid[A1..An],[stride1..striden](N)`` — repartition records into an
    n-dimensional array of cells (paper §3.6)."""

    child: Node
    dims: tuple[str, ...]
    strides: tuple[float, ...]
    op_name = "grid"

    def __post_init__(self):
        if not self.dims:
            raise AlgebraError("grid requires at least one dimension")
        if len(self.dims) != len(self.strides):
            raise AlgebraError(
                f"grid has {len(self.dims)} dims but {len(self.strides)} strides"
            )
        if any(s <= 0 for s in self.strides):
            raise AlgebraError("grid strides must be positive")

    def to_text(self) -> str:
        dims = ", ".join(self.dims)
        strides = ", ".join(str(s) for s in self.strides)
        return f"grid[{dims}],[{strides}]({self.child.to_text()})"


@dataclass(frozen=True)
class Chunk(_Unary):
    """``chunk[c1,...,ck](N)`` — split an array into fixed-shape chunks
    (paper §3.6, after Sarawagi & Stonebraker)."""

    child: Node
    shape: tuple[int, ...]
    op_name = "chunk"

    def __post_init__(self):
        if not self.shape or any(c < 1 for c in self.shape):
            raise AlgebraError("chunk shape must be positive")

    def to_text(self) -> str:
        return (
            f"chunk[{', '.join(str(c) for c in self.shape)}]"
            f"({self.child.to_text()})"
        )


@dataclass(frozen=True)
class Compress(_Unary):
    """``compress[codec](N)`` — compression via a named codec (paper §3.5.2
    allows arbitrary user-defined compression functions)."""

    child: Node
    codec: str
    fields: tuple[str, ...] = ()
    op_name = "compress"

    def to_text(self) -> str:
        if self.fields:
            return (
                f"compress[{self.codec}; {', '.join(self.fields)}]"
                f"({self.child.to_text()})"
            )
        return f"compress[{self.codec}]({self.child.to_text()})"


@dataclass(frozen=True)
class Rows(_Unary):
    """Explicit row-major representation (the paper's N_r comprehension)."""

    child: Node
    op_name = "rows"

    def to_text(self) -> str:
        return f"rows({self.child.to_text()})"


@dataclass(frozen=True)
class Columns(_Unary):
    """Column decomposition (the paper's N_c comprehension / DSM).

    ``groups`` lists the column groups; the default of one group per field is
    a pure column-store, ``[["a","b"],["c"]]`` co-locates a and b (hybrid
    row/column designs, paper §1 item 1).
    """

    child: Node
    groups: tuple[tuple[str, ...], ...] = ()
    op_name = "columns"

    def to_text(self) -> str:
        if not self.groups:
            return f"columns({self.child.to_text()})"
        inner = ", ".join("[" + ", ".join(g) + "]" for g in self.groups)
        return f"columns[{inner}]({self.child.to_text()})"


@dataclass(frozen=True)
class Mirror(Node):
    """Fractured-mirrors style duplication: store both layouts, let reads
    pick the cheaper one (extension; paper cites Ramamurthy et al.)."""

    left: Node
    right: Node
    op_name = "mirror"

    def children(self) -> tuple[Node, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Node]) -> Node:
        left, right = children
        return replace(self, left=left, right=right)

    def to_text(self) -> str:
        return f"mirror({self.left.to_text()}, {self.right.to_text()})"


# ---------------------------------------------------------------------------
# Builder helpers (fluent public API)
# ---------------------------------------------------------------------------


def table(name: str) -> TableRef:
    return TableRef(name)


def project(fields: Sequence[str], child: Node) -> Project:
    return Project(child, tuple(fields))


def select(condition: Scalar, child: Node) -> Select:
    return Select(child, condition)


def append(elements: dict[str, Scalar], child: Node) -> Append:
    return Append(child, tuple(elements.items()))


def partition(
    key: Scalar | str,
    child: Node,
    method: str = "value",
    args: Sequence[float] = (),
) -> Partition:
    if isinstance(key, str):
        key = FieldRef(key)
    return Partition(child, key, method, tuple(args))


def levels(
    child: Node,
    k: int = 4,
    ratio: int = 4,
    key: Scalar | str | None = None,
) -> Levels:
    if isinstance(key, str):
        key = FieldRef(key)
    return Levels(child, int(k), int(ratio), key)


def fold(
    nest_fields: Sequence[str], group_fields: Sequence[str], child: Node
) -> Fold:
    return Fold(child, tuple(nest_fields), tuple(group_fields))


def unfold(child: Node) -> Unfold:
    return Unfold(child)


def prejoin(join_attr: str, left: Node, right: Node) -> Prejoin:
    return Prejoin(left, right, join_attr)


def delta(child: Node, fields: Sequence[str] = ()) -> Delta:
    return Delta(child, tuple(fields))


def orderby(keys: Sequence[SortKey | str], child: Node) -> OrderBy:
    normalized = tuple(
        k if isinstance(k, SortKey) else SortKey(k) for k in keys
    )
    return OrderBy(child, normalized)


def groupby(fields: Sequence[str], child: Node) -> GroupBy:
    return GroupBy(child, tuple(fields))


def limit(count: int, child: Node) -> Limit:
    return Limit(child, count)


def zorder(child: Node) -> ZOrder:
    return ZOrder(child)


def hilbert(child: Node) -> HilbertOrder:
    return HilbertOrder(child)


def transpose(child: Node) -> Transpose:
    return Transpose(child)


def grid(
    dims: Sequence[str], strides: Sequence[float], child: Node
) -> Grid:
    return Grid(child, tuple(dims), tuple(float(s) for s in strides))


def chunk(shape: Sequence[int], child: Node) -> Chunk:
    return Chunk(child, tuple(shape))


def compress(codec: str, child: Node, fields: Sequence[str] = ()) -> Compress:
    return Compress(child, codec, tuple(fields))


def rows(child: Node) -> Rows:
    return Rows(child)


def columns(child: Node, groups: Sequence[Sequence[str]] = ()) -> Columns:
    return Columns(child, tuple(tuple(g) for g in groups))


def mirror(left: Node, right: Node) -> Mirror:
    return Mirror(left, right)
