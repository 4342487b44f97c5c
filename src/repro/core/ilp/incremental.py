"""Incremental optimisation (Section 5.4).

Optimisation time is divided into sequences; the *i*-th sequence has
duration ``k * b**i`` (exponentially increasing timeouts, reducing the
relative overhead of solver restarts).  After each sequence the current
best multiplot is yielded so the UI can render early, possibly suboptimal,
visualizations that improve over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.ilp.translate import IlpSolution, IlpSolver
from repro.core.problem import MultiplotSelectionProblem
from repro.errors import SolverError


@dataclass(frozen=True)
class IncrementalStep:
    """One yielded visualization of the incremental schedule."""

    step: int
    timeout_seconds: float
    cumulative_seconds: float
    solution: IlpSolution
    improved: bool


def incremental_solve(problem: MultiplotSelectionProblem,
                      solver: IlpSolver | None = None,
                      initial_timeout: float = 0.0625,
                      growth_factor: float = 2.0,
                      total_budget: float = 4.0,
                      ) -> Iterator[IncrementalStep]:
    """Yield successively better ILP solutions under growing timeouts.

    Defaults follow the paper's Figure 9 configuration (``k = 62.5 ms``,
    ``b = 2``).  Iteration stops when a step proves optimality or the
    cumulative budget is exhausted.  A residual budget too short for the
    step after the current one is folded into the current step, so
    timeouts never shrink: with a 1 s budget the schedule is 0.0625,
    0.125, 0.25, then 0.5625.  Each step after the first is cut off at
    the best multiplot so far (passed as the solver's incumbent), so it
    never re-runs the greedy seed and never shows a worse plan.  Steps
    where the solver found no incumbent at all are skipped silently
    (nothing to show yet).
    """
    if initial_timeout <= 0 or growth_factor <= 1.0:
        raise SolverError(
            "initial_timeout must be positive and growth_factor > 1")
    solver = solver or IlpSolver()
    best: IlpSolution | None = None
    cumulative = 0.0
    remaining = total_budget
    step = 0
    while remaining > 0:
        timeout = initial_timeout * growth_factor ** step
        if remaining < timeout * (1.0 + growth_factor):
            timeout = remaining
        remaining -= timeout
        try:
            solution = solver.solve(
                problem, timeout_seconds=timeout,
                incumbent=best.multiplot if best is not None else None)
        except SolverError:
            solution = None
        cumulative += timeout
        if solution is not None:
            improved = (best is None
                        or solution.expected_cost < best.expected_cost - 1e-9)
            if improved:
                best = solution
            yield IncrementalStep(
                step=step,
                timeout_seconds=timeout,
                cumulative_seconds=cumulative,
                solution=solution,
                improved=improved,
            )
            if solution.optimal:
                return
        step += 1
