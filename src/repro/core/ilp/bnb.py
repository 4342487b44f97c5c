"""A from-scratch branch-and-bound MILP backend.

Best-bound search over LP relaxations solved with ``scipy.optimize.linprog``
(HiGHS simplex/IPM — used purely as an LP solver here).  Branching is on
the most fractional integer variable; bounds are tightened by fixing the
variable to 0/1 in the children.  Supports a wall-clock deadline with
incumbent return, which gives the deterministic timeout semantics the
solver-comparison experiments rely on.

This backend exists to (a) drop even the HiGHS *MIP* dependency, (b) serve
as an independent cross-check of :mod:`repro.core.ilp.highs` in tests, and
(c) let the ablation benchmark compare a textbook B&B against a production
MIP solver on the paper's instances.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from repro.core.ilp.modeling import CompiledModel, SolveResult
from repro.errors import ModelInfeasible, SolverError

_INTEGRALITY_TOLERANCE = 1e-6


@dataclass(order=True)
class _Node:
    """A search node: LP bound plus variable fixings."""

    bound: float
    tie_breaker: int
    fixed_lower: np.ndarray = field(compare=False)
    fixed_upper: np.ndarray = field(compare=False)


def solve_with_bnb(model: CompiledModel,
                   timeout_seconds: float | None = None,
                   max_nodes: int = 200_000) -> SolveResult:
    """Solve *model* by branch and bound.

    Returns the incumbent with ``timed_out=True`` if the deadline or node
    budget is exhausted before optimality is proven.  Raises
    :class:`ModelInfeasible` when the search proves no integral solution
    exists, and :class:`SolverError` when the deadline passes before any
    integral incumbent is found.
    """
    start = time.perf_counter()
    deadline = (start + timeout_seconds
                if timeout_seconds is not None else None)
    integer_indices = np.flatnonzero(model.integrality > 0)
    # An LP that failed for any reason but proven infeasibility leaves a
    # subtree unexplored, so an empty search no longer proves anything.
    unexplored = False

    def solve_lp(lower: np.ndarray, upper: np.ndarray):
        nonlocal unexplored
        result = linprog(
            c=model.c,
            A_ub=model.a_ub if model.a_ub.shape[0] else None,
            b_ub=model.b_ub if model.a_ub.shape[0] else None,
            A_eq=model.a_eq if model.a_eq.shape[0] else None,
            b_eq=model.b_eq if model.a_eq.shape[0] else None,
            bounds=np.column_stack([lower, upper]),
            method="highs",
        )
        if not result.success:
            unexplored = unexplored or result.status != 2
            return None
        return result

    root = solve_lp(model.lower.copy(), model.upper.copy())
    if root is None:
        if unexplored:
            raise SolverError("branch and bound: root LP failed")
        raise ModelInfeasible("branch and bound: root LP is infeasible")

    counter = itertools.count()
    best_values: np.ndarray | None = None
    best_objective = np.inf
    heap: list[_Node] = [_Node(float(root.fun), next(counter),
                               model.lower.copy(), model.upper.copy())]
    nodes_processed = 0
    timed_out = False

    while heap:
        if deadline is not None and time.perf_counter() > deadline:
            timed_out = True
            break
        if nodes_processed >= max_nodes:
            timed_out = True
            break
        node = heapq.heappop(heap)
        if node.bound >= best_objective - 1e-9:
            continue  # cannot improve the incumbent
        lp = solve_lp(node.fixed_lower, node.fixed_upper)
        nodes_processed += 1
        if lp is None or lp.fun >= best_objective - 1e-9:
            continue
        fractional = _most_fractional(lp.x, integer_indices)
        if fractional is None:
            # Integral solution: new incumbent.
            best_objective = float(lp.fun)
            best_values = np.asarray(lp.x).copy()
            continue
        index, value = fractional
        for branch_floor in (True, False):
            lower = node.fixed_lower.copy()
            upper = node.fixed_upper.copy()
            if branch_floor:
                upper[index] = np.floor(value)
            else:
                lower[index] = np.ceil(value)
            if lower[index] > upper[index]:
                continue
            heapq.heappush(heap, _Node(float(lp.fun), next(counter),
                                       lower, upper))

    elapsed = time.perf_counter() - start
    if best_values is None:
        if timed_out:
            raise SolverError(
                "branch and bound hit its limit before finding any "
                "integral incumbent")
        if unexplored:
            raise SolverError("branch and bound: a node LP failed")
        raise ModelInfeasible(
            "branch and bound found no integral solution")
    return SolveResult(
        values=best_values,
        objective=best_objective + model.objective_constant,
        optimal=not timed_out and not heap and not unexplored,
        timed_out=timed_out,
        elapsed_seconds=elapsed,
    )


def _most_fractional(values: np.ndarray, integer_indices: np.ndarray,
                     ) -> tuple[int, float] | None:
    """The integer variable farthest from integrality, or None if integral."""
    best_index = -1
    best_distance = _INTEGRALITY_TOLERANCE
    for index in integer_indices:
        value = values[index]
        distance = abs(value - round(value))
        if distance > best_distance:
            best_distance = distance
            best_index = int(index)
    if best_index < 0:
        return None
    return best_index, float(values[best_index])
