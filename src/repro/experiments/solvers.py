"""Figure 6: greedy vs ILP across candidates / rows / resolutions.

The paper generates random aggregation queries, retrieves phonetically
similar candidates, and plans multiplots while sweeping one parameter at a
time (defaults: one row, 20 candidates, phone resolution, 1 s timeout),
reporting optimization time, timeout ratio, and the cost delta between the
two solvers' solutions.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.core.greedy import GreedySolver
from repro.core.ilp import IlpSolver
from repro.core.model import ScreenGeometry
from repro.core.problem import MultiplotSelectionProblem
from repro.datasets.workload import WorkloadGenerator
from repro.errors import SolverError
from repro.experiments.harness import ExperimentTable
from repro.nlq.candidates import CandidateGenerator
from repro.sqldb.database import Database
from repro.stats import mean_ci

DEFAULT_CANDIDATES = 20
DEFAULT_ROWS = 1
DEFAULT_PIXELS = 1125  # iPhone-class screen, the paper's default
DEFAULT_TIMEOUT = 1.0
TIMING_REPEATS = 3


@dataclass(frozen=True)
class SolverComparison:
    """Per-instance measurements for both solvers."""

    greedy_seconds: float
    greedy_cost: float
    ilp_seconds: float
    ilp_cost: float
    ilp_timed_out: bool


def _solve_ilp(problem: MultiplotSelectionProblem,
               timeout: float) -> tuple[float, float, bool]:
    """One timed ILP solve: its seconds, cost and whether it timed out."""
    try:
        ilp = IlpSolver(timeout_seconds=timeout).solve(problem)
        return ilp.elapsed_seconds, ilp.expected_cost, ilp.timed_out
    except SolverError:
        # No incumbent within the timeout: fall back to the empty
        # multiplot's cost, matching "timeout without solution".
        from repro.core.model import Multiplot
        return timeout, problem.evaluate(
            Multiplot.empty(problem.geometry.num_rows)), True


def _compare_on_instance(problem: MultiplotSelectionProblem,
                         timeout: float) -> SolverComparison:
    # Each solver is timed TIMING_REPEATS times, interleaved, and keeps
    # its median: on one row the ILP's search adds only a few ms to the
    # greedy seed it computes itself, less than one noisy run can move
    # either time.
    greedy_seconds, ilp_seconds = [], []
    for _ in range(TIMING_REPEATS):
        greedy = GreedySolver().solve(problem)
        greedy_seconds.append(greedy.elapsed_seconds)
        seconds, ilp_cost, timed_out = _solve_ilp(problem, timeout)
        ilp_seconds.append(seconds)
    return SolverComparison(
        greedy_seconds=statistics.median(greedy_seconds),
        greedy_cost=greedy.expected_cost,
        ilp_seconds=statistics.median(ilp_seconds),
        ilp_cost=ilp_cost,
        ilp_timed_out=timed_out,
    )


def _instances(database: Database, table_name: str, num_queries: int,
               num_candidates: int, seed: int):
    workload = WorkloadGenerator(database.table(table_name), seed=seed)
    generator = CandidateGenerator(database, table_name)
    for _ in range(num_queries):
        target = workload.random_query(max_predicates=5)
        yield tuple(generator.candidates(target, num_candidates))


def figure6_solver_sweep(database: Database, table_name: str = "nyc311",
                         parameter: str = "candidates",
                         num_queries: int = 10,
                         timeout: float = DEFAULT_TIMEOUT,
                         seed: int = 0) -> ExperimentTable:
    """One panel of Figure 6; ``parameter`` selects the swept dimension:
    ``"candidates"``, ``"rows"`` or ``"pixels"``."""
    sweeps = {
        "candidates": [5, 10, 20, 35, 50],
        "rows": [1, 2, 3],
        "pixels": [414, 768, 1125, 1920],
    }
    if parameter not in sweeps:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    table = ExperimentTable(
        title=(f"Figure 6 ({parameter} sweep, {table_name}): "
               "greedy vs ILP"),
        columns=(parameter, "greedy_ms", "ilp_ms", "ilp_timeout_ratio",
                 "greedy_cost", "ilp_cost", "cost_delta"))
    for level in sweeps[parameter]:
        num_candidates = level if parameter == "candidates" \
            else DEFAULT_CANDIDATES
        rows = level if parameter == "rows" else DEFAULT_ROWS
        pixels = level if parameter == "pixels" else DEFAULT_PIXELS
        geometry = ScreenGeometry(width_pixels=pixels, num_rows=rows)
        comparisons = []
        for candidates in _instances(database, table_name, num_queries,
                                     num_candidates, seed):
            problem = MultiplotSelectionProblem(candidates,
                                                geometry=geometry)
            comparisons.append(_compare_on_instance(problem, timeout))
        greedy_ms = mean_ci([c.greedy_seconds * 1000
                             for c in comparisons]).mean
        ilp_ms = mean_ci([c.ilp_seconds * 1000 for c in comparisons]).mean
        timeout_ratio = (sum(1 for c in comparisons if c.ilp_timed_out)
                         / len(comparisons))
        greedy_cost = mean_ci([c.greedy_cost for c in comparisons]).mean
        ilp_cost = mean_ci([c.ilp_cost for c in comparisons]).mean
        table.add_row(level, greedy_ms, ilp_ms, timeout_ratio,
                      greedy_cost, ilp_cost, greedy_cost - ilp_cost)
    table.add_note(f"{num_queries} random queries per level, "
                   f"timeout {timeout:.1f}s, times are medians of "
                   f"{TIMING_REPEATS} runs")
    return table
