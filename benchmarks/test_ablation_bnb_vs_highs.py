"""Ablation: the pure-Python branch & bound vs the HiGHS MILP backend.

Both backends solve the identical compiled formulation, so this isolates
the solver technology: HiGHS (presolve, cuts, heuristics) vs a textbook
best-bound B&B over LP relaxations.  The instances have one row, which
:meth:`IlpSolver.solve` hands to the combinatorial row search, so the
backends are called through the MILP path explicitly.
"""

from benchmarks.conftest import emit
from repro.core.ilp import IlpSolver
from repro.core.model import ScreenGeometry
from repro.core.problem import MultiplotSelectionProblem
from repro.datasets.workload import WorkloadGenerator
from repro.experiments.harness import ExperimentTable
from repro.nlq.candidates import CandidateGenerator
from repro.stats import mean_ci


def run_backend_comparison(database, num_queries=6, num_candidates=8,
                           seed=0) -> ExperimentTable:
    workload = WorkloadGenerator(database.table("nyc311"), seed=seed)
    generator = CandidateGenerator(database, "nyc311")
    geometry = ScreenGeometry(width_pixels=700, num_rows=1)
    table = ExperimentTable(
        title="Ablation: HiGHS vs branch-and-bound backend",
        columns=("backend", "solve_ms", "optimal_ratio", "avg_cost"))
    results = {"highs": [], "bnb": []}
    for _ in range(num_queries):
        target = workload.random_query(max_predicates=2)
        candidates = tuple(generator.candidates(target, num_candidates))
        problem = MultiplotSelectionProblem(candidates, geometry=geometry)
        for backend in ("highs", "bnb"):
            solver = IlpSolver(backend=backend, timeout_seconds=20.0)
            solution = solver._solve_milp(problem)
            results[backend].append(
                (solution.elapsed_seconds, solution.optimal,
                 solution.expected_cost))
    for backend, rows in results.items():
        table.add_row(backend,
                      mean_ci([r[0] * 1000 for r in rows]).mean,
                      sum(1 for r in rows if r[1]) / len(rows),
                      mean_ci([r[2] for r in rows]).mean)
    return table


def test_ablation_bnb_vs_highs(benchmark, results_dir, nyc_bench_db):
    table = benchmark.pedantic(
        lambda: run_backend_comparison(nyc_bench_db),
        rounds=1, iterations=1)
    emit(table, results_dir, "ablation_backends")

    rows = {row[0]: row for row in table.rows}
    # Both must solve these small instances to optimality...
    assert rows["highs"][2] == 1.0
    assert rows["bnb"][2] == 1.0
    # ...and agree on solution quality (same optimum).
    assert abs(rows["highs"][3] - rows["bnb"][3]) < 1e-3 * rows["highs"][3]
