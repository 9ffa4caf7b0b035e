"""Design-space search: exhaustive, greedy, and simulated annealing.

Paper §5 anticipates "heavy reliance on heuristic search algorithms. For
example, to find the best gridding, we could use gradient descent or
simulated annealing to add dimensions until a low cost dimensionalization is
achieved." Three strategies are provided; ``tests/test_paper_shapes.py``
checks their cost/quality trade-off on the trace workload:

* :func:`exhaustive_search` — cost every candidate, pick the minimum
  (optimal w.r.t. the candidate pool and the cost model);
* :func:`greedy_stride_descent` — coordinate descent on grid strides
  (the paper's "gradient descent" suggestion);
* :func:`simulated_annealing` — random walks over design mutations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from repro.algebra import ast
from repro.algebra.interpreter import AlgebraInterpreter
from repro.errors import OptimizerError
from repro.optimizer.cost_model import DesignCost, PlanCostEstimator
from repro.optimizer.workload import Workload
from repro.types.schema import Schema


@dataclass
class SearchResult:
    """Outcome of one search run."""

    best: DesignCost
    evaluated: int
    trace: list[tuple[str, float]]  # (expression text, cost) per step

    @property
    def expression(self) -> ast.Node:
        return self.best.plan.expr


def _compile_and_cost(
    expr: ast.Node,
    interpreter: AlgebraInterpreter,
    estimator: PlanCostEstimator,
    workload: Workload,
) -> DesignCost | None:
    try:
        plan = interpreter.compile(expr)
        return estimator.workload_cost(plan, workload)
    except Exception:
        return None  # malformed candidate (e.g. grid over dropped field)


def exhaustive_search(
    candidates: list[ast.Node],
    schema: Schema,
    estimator: PlanCostEstimator,
    workload: Workload,
) -> SearchResult:
    """Cost every candidate expression; optimal over the pool."""
    interpreter = AlgebraInterpreter({workload.table: schema})
    best: DesignCost | None = None
    trace: list[tuple[str, float]] = []
    evaluated = 0
    for expr in candidates:
        cost = _compile_and_cost(expr, interpreter, estimator, workload)
        if cost is None:
            continue
        evaluated += 1
        trace.append((expr.to_text(), cost.total_ms))
        if best is None or cost.total_ms < best.total_ms:
            best = cost
    if best is None:
        raise OptimizerError("no candidate design could be costed")
    return SearchResult(best=best, evaluated=evaluated, trace=trace)


def greedy_stride_descent(
    expr: ast.Node,
    schema: Schema,
    estimator: PlanCostEstimator,
    workload: Workload,
    factors: tuple[float, ...] = (0.5, 2.0),
    max_rounds: int = 12,
) -> SearchResult:
    """Coordinate descent on the strides of the grid inside ``expr``.

    Each round tries scaling each grid stride by each factor, keeping the
    best improvement; stops at a local optimum.
    """
    interpreter = AlgebraInterpreter({workload.table: schema})
    current_expr = expr
    current = _compile_and_cost(current_expr, interpreter, estimator, workload)
    if current is None:
        raise OptimizerError(f"cannot cost seed design {expr.to_text()}")
    trace = [(current_expr.to_text(), current.total_ms)]
    evaluated = 1
    for _ in range(max_rounds):
        improved = False
        grid_node = _find_grid(current_expr)
        if grid_node is None:
            break
        for dim_index in range(len(grid_node.strides)):
            for factor in factors:
                candidate_expr = _with_stride(
                    current_expr, dim_index, grid_node.strides[dim_index] * factor
                )
                cost = _compile_and_cost(
                    candidate_expr, interpreter, estimator, workload
                )
                evaluated += 1
                if cost is not None and cost.total_ms < current.total_ms:
                    current, current_expr = cost, candidate_expr
                    trace.append((current_expr.to_text(), cost.total_ms))
                    improved = True
        if not improved:
            break
    return SearchResult(best=current, evaluated=evaluated, trace=trace)


def _find_grid(expr: ast.Node) -> ast.Grid | None:
    for node in expr.walk():
        if isinstance(node, ast.Grid):
            return node
    return None


def _with_stride(expr: ast.Node, dim_index: int, stride: float) -> ast.Node:
    def rewrite(node: ast.Node) -> ast.Node:
        if isinstance(node, ast.Grid):
            strides = list(node.strides)
            strides[dim_index] = max(stride, 1e-9)
            return replace(node, strides=tuple(strides))
        return node

    return expr.transform_bottom_up(rewrite)


def simulated_annealing(
    candidates: list[ast.Node],
    schema: Schema,
    estimator: PlanCostEstimator,
    workload: Workload,
    iterations: int = 200,
    initial_temperature: float = 1.0,
    seed: int = 0,
) -> SearchResult:
    """Anneal over the candidate pool plus stride mutations.

    Moves: jump to a random candidate, or mutate a grid stride of the
    current design by a random factor. Acceptance follows the Metropolis
    criterion on relative cost.
    """
    rng = random.Random(seed)
    interpreter = AlgebraInterpreter({workload.table: schema})
    pool = [
        (expr, cost)
        for expr in candidates
        for cost in [_compile_and_cost(expr, interpreter, estimator, workload)]
        if cost is not None
    ]
    if not pool:
        raise OptimizerError("no candidate design could be costed")
    current_expr, current = pool[0]
    best = current
    trace = [(current_expr.to_text(), current.total_ms)]
    evaluated = len(pool)
    temperature = initial_temperature
    for step in range(iterations):
        if rng.random() < 0.5 or _find_grid(current_expr) is None:
            candidate_expr = rng.choice(pool)[0]
        else:
            grid_node = _find_grid(current_expr)
            dim_index = rng.randrange(len(grid_node.strides))
            factor = rng.choice((0.25, 0.5, 0.8, 1.25, 2.0, 4.0))
            candidate_expr = _with_stride(
                current_expr, dim_index, grid_node.strides[dim_index] * factor
            )
        cost = _compile_and_cost(candidate_expr, interpreter, estimator, workload)
        evaluated += 1
        if cost is None:
            continue
        delta = (cost.total_ms - current.total_ms) / max(current.total_ms, 1e-9)
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
            current_expr, current = candidate_expr, cost
            trace.append((current_expr.to_text(), cost.total_ms))
            if current.total_ms < best.total_ms:
                best = current
        temperature *= 0.98
    return SearchResult(best=best, evaluated=evaluated, trace=trace)
