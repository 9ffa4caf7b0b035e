"""List-comprehension evaluator (paper Section 3.3).

The storage algebra defines nestings through list comprehensions::

    e(v) | \\v <- N, C

with generators binding variables to successive elements of existing
nestings, boolean conditions, and SQL-flavoured clauses — ``limit``,
``orderby``, ``groupby``, ``partitionby`` — plus the helper functions
``pos()`` (position of an element in its source nesting) and ``count()``
(number of elements in a nesting).

This module evaluates such comprehensions over in-memory nestings. It is the
*definitional* engine: every transform of the algebra has an equivalent
comprehension, and the test suite checks that its direct implementations
(the nesting operations of :mod:`repro.algebra.transforms` and the tuple
reference interpreter the tests keep) agree with the comprehensions given
in the paper.

Environments are plain dicts mapping variable names to bound values;
positions are tracked alongside under ``("pos", var)`` keys so that
``pos(env, var)`` works inside heads, conditions, and clause keys.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.errors import AlgebraError

Env = dict
HeadFn = Callable[[Env], Any]
CondFn = Callable[[Env], bool]
KeyFn = Callable[[Env], Any]
Source = Any  # a nesting, or a callable(env) -> nesting


class Generator:
    """``\\v <- N`` — bind ``var`` to successive elements of ``source``.

    ``source`` may be a concrete nesting or a function of the environment
    (enabling dependent generators such as ``\\r' <- r``).
    """

    __slots__ = ("var", "source")

    def __init__(self, var: str, source: Source):
        if not var:
            raise AlgebraError("generator variable name may not be empty")
        self.var = var
        self.source = source

    def resolve(self, env: Env) -> Sequence[Any]:
        source = self.source(env) if callable(self.source) else self.source
        if not isinstance(source, (list, tuple)):
            raise AlgebraError(
                f"generator \\{self.var} source is not a nesting: {source!r}"
            )
        return source


class Clause:
    """Base class for comprehension clauses applied to the result list."""

    def apply(self, items: list[tuple[Env, Any]]) -> list[tuple[Env, Any]]:
        raise NotImplementedError


class OrderByClause(Clause):
    """``orderby key [ASC|DESC]`` over the bound environments."""

    def __init__(self, key: KeyFn, ascending: bool = True):
        self.key = key
        self.ascending = ascending

    def apply(self, items: list[tuple[Env, Any]]) -> list[tuple[Env, Any]]:
        return sorted(
            items, key=lambda pair: self.key(pair[0]), reverse=not self.ascending
        )


class LimitClause(Clause):
    """``limit n`` — keep the first n results; n may depend on nothing or be
    computed up front (the paper's ``limit count(N) - 1``)."""

    def __init__(self, count: int):
        if count < 0:
            raise AlgebraError("limit must be non-negative")
        self.count = count

    def apply(self, items: list[tuple[Env, Any]]) -> list[tuple[Env, Any]]:
        return items[: self.count]


class GroupByClause(Clause):
    """``groupby key`` — regroup results into sub-nestings sharing a key.

    Groups preserve first-occurrence order, matching the paper's use of
    ``groupby r.ID`` to regroup observations by trajectory.
    """

    def __init__(self, key: KeyFn):
        self.key = key

    def apply(self, items: list[tuple[Env, Any]]) -> list[tuple[Env, Any]]:
        order: list[Any] = []
        groups: dict[Any, list[Any]] = {}
        group_envs: dict[Any, Env] = {}
        for env, value in items:
            k = self.key(env)
            if k not in groups:
                groups[k] = []
                group_envs[k] = env
                order.append(k)
            groups[k].append(value)
        return [(group_envs[k], groups[k]) for k in order]


class PartitionByClause(Clause):
    """``partitionby key stride`` — partition results into sub-nestings by the
    discretized key ``floor(key / stride)`` (the basis of ``grid``)."""

    def __init__(self, key: KeyFn, stride: float | None = None):
        if stride is not None and stride <= 0:
            raise AlgebraError("partitionby stride must be positive")
        self.key = key
        self.stride = stride

    def bucket(self, env: Env) -> Any:
        value = self.key(env)
        if self.stride is None:
            return value
        return int(value // self.stride)

    def apply(self, items: list[tuple[Env, Any]]) -> list[tuple[Env, Any]]:
        order: list[Any] = []
        parts: dict[Any, list[Any]] = {}
        part_envs: dict[Any, Env] = {}
        for env, value in items:
            b = self.bucket(env)
            if b not in parts:
                parts[b] = []
                part_envs[b] = env
                order.append(b)
            parts[b].append(value)
        return [(part_envs[b], parts[b]) for b in order]


class Comprehension:
    """A full comprehension: head | generators, conditions, clauses."""

    def __init__(
        self,
        head: HeadFn,
        generators: Sequence[Generator],
        conditions: Sequence[CondFn] = (),
        clauses: Sequence[Clause] = (),
    ):
        if not generators:
            raise AlgebraError("a comprehension requires at least one generator")
        self.head = head
        self.generators = list(generators)
        self.conditions = list(conditions)
        self.clauses = list(clauses)

    def evaluate(self, env: Env | None = None) -> list:
        """Evaluate to a nesting (a Python list)."""
        base_env: Env = dict(env) if env else {}
        items: list[tuple[Env, Any]] = []
        self._expand(base_env, 0, items)
        for clause in self.clauses:
            items = clause.apply(items)
        return [value for _, value in items]

    def _expand(self, env: Env, depth: int, out: list[tuple[Env, Any]]) -> None:
        if depth == len(self.generators):
            if all(cond(env) for cond in self.conditions):
                out.append((dict(env), self.head(env)))
            return
        gen = self.generators[depth]
        for position, element in enumerate(gen.resolve(env)):
            env[gen.var] = element
            env[("pos", gen.var)] = position
            self._expand(env, depth + 1, out)
        env.pop(gen.var, None)
        env.pop(("pos", gen.var), None)


# -- helper functions (paper §3.3) ------------------------------------------


def pos(env: Env, var: str) -> int:
    """Position of the element bound to ``var`` within its source nesting."""
    try:
        return env[("pos", var)]
    except KeyError:
        raise AlgebraError(f"variable {var!r} is not bound in this scope") from None


def count(nesting: Sequence[Any]) -> int:
    """Number of elements contained in a nesting."""
    if not isinstance(nesting, (list, tuple)):
        raise AlgebraError(f"count() expects a nesting, got {nesting!r}")
    return len(nesting)


def comprehend(
    head: HeadFn,
    generators: Sequence[tuple[str, Source]],
    conditions: Sequence[CondFn] = (),
    clauses: Sequence[Clause] = (),
) -> list:
    """One-shot evaluation convenience wrapper.

    Example — the paper's row-major layout ``N_r``::

        comprehend(
            head=lambda env: [env["r"][0], env["r"][1], env["r"][2]],
            generators=[("r", table_records)],
        )
    """
    comp = Comprehension(
        head=head,
        generators=[Generator(var, src) for var, src in generators],
        conditions=conditions,
        clauses=clauses,
    )
    return comp.evaluate()
