"""Ablation on the greedy solver: the polish step.

Polish is the Finalize step of Algorithm 1 (deduplicate and refill);
DESIGN.md calls it out as ablation-worthy.  The unpolished arm runs the
same pipeline as :meth:`GreedySolver.solve` and stops after plot
picking.
"""

import time

from benchmarks.conftest import emit
from repro.core.greedy import GreedySolver
from repro.core.greedy.coloring import PlotVersions
from repro.core.greedy.pick_plots import pick_plots
from repro.core.greedy.plot_candidates import plot_candidates
from repro.core.model import ScreenGeometry
from repro.core.problem import MultiplotSelectionProblem
from repro.datasets.workload import WorkloadGenerator
from repro.experiments.harness import ExperimentTable
from repro.nlq.candidates import CandidateGenerator
from repro.stats import mean_ci


def _unpolished(problem):
    start = time.perf_counter()
    multiplot = pick_plots(problem,
                           PlotVersions(problem, plot_candidates(problem)))
    return multiplot, time.perf_counter() - start


def _polished(problem):
    solution = GreedySolver().solve(problem)
    return solution.multiplot, solution.elapsed_seconds


def run_polish_comparison(database, num_queries=8, seed=0,
                          ) -> ExperimentTable:
    workload = WorkloadGenerator(database.table("nyc311"), seed=seed)
    generator = CandidateGenerator(database, "nyc311")
    geometry = ScreenGeometry(width_pixels=1125, num_rows=2)
    configurations = {
        "knapsack+polish": _polished,
        "knapsack-no-polish": _unpolished,
    }
    table = ExperimentTable(
        title="Ablation: the greedy polish step",
        columns=("configuration", "avg_cost", "avg_ms", "avg_bars"))
    costs = {name: [] for name in configurations}
    times = {name: [] for name in configurations}
    bars = {name: [] for name in configurations}
    for _ in range(num_queries):
        target = workload.random_query(max_predicates=3)
        candidates = tuple(generator.candidates(target, 20))
        problem = MultiplotSelectionProblem(candidates, geometry=geometry)
        for name, solve in configurations.items():
            multiplot, seconds = solve(problem)
            costs[name].append(problem.evaluate(multiplot))
            times[name].append(seconds * 1000)
            bars[name].append(multiplot.num_bars)
    for name in configurations:
        table.add_row(name, mean_ci(costs[name]).mean,
                      mean_ci(times[name]).mean,
                      mean_ci(bars[name]).mean)
    return table


def test_ablation_greedy_variants(benchmark, results_dir, nyc_bench_db):
    table = benchmark.pedantic(
        lambda: run_polish_comparison(nyc_bench_db),
        rounds=1, iterations=1)
    emit(table, results_dir, "ablation_greedy")

    rows = {row[0]: row for row in table.rows}
    # Polish can only help: duplicates are replaced by fresh coverage.
    assert rows["knapsack+polish"][1] <= \
        rows["knapsack-no-polish"][1] + 1e-6
