"""Figures 7 and 8: query merging and processing-cost-aware planning."""

from __future__ import annotations

import time

from repro.core.greedy import GreedySolver
from repro.core.ilp import IlpSolver, ProcessingGroup
from repro.core.model import ScreenGeometry
from repro.core.problem import MultiplotSelectionProblem
from repro.datasets.workload import WorkloadGenerator
from repro.errors import SolverError
from repro.execution.merging import plan_execution
from repro.experiments.harness import ExperimentTable
from repro.nlq.candidates import CandidateGenerator, CandidateQuery
from repro.sqldb.database import Database
from repro.stats import mean_ci


def figure7_query_merging(database: Database, table_name: str = "dob",
                          num_queries: int = 10,
                          num_candidates: int = 50,
                          seed: int = 0) -> ExperimentTable:
    """Figure 7: executing candidate sets merged vs separately.

    The paper's microbenchmark: 10 random queries, the 50 phonetically
    most similar candidates each, executed once separately and once
    merged; we report measured wall-clock times and the optimizer's cost
    estimates.
    """
    workload = WorkloadGenerator(database.table(table_name), seed=seed)
    # The paper's microbenchmark takes the 50 phonetically most similar
    # queries, i.e. single-element variations of the target; allowing
    # multi-element variations would scatter candidates across templates.
    generator = CandidateGenerator(database, table_name,
                                   k=num_candidates, max_simultaneous=1)
    merged_times: list[float] = []
    separate_times: list[float] = []
    merged_costs: list[float] = []
    separate_costs: list[float] = []
    for _ in range(num_queries):
        target = workload.random_query(max_predicates=3)
        candidates = generator.candidates(target, num_candidates)
        queries = [c.query for c in candidates]

        merged_plan = plan_execution(database, queries, merge=True)
        start = time.perf_counter()
        merged_plan.run(database)
        merged_times.append(time.perf_counter() - start)
        merged_costs.append(merged_plan.estimated_cost)

        separate_plan = plan_execution(database, queries, merge=False)
        start = time.perf_counter()
        separate_plan.run(database)
        separate_times.append(time.perf_counter() - start)
        separate_costs.append(separate_plan.estimated_cost)

    table = ExperimentTable(
        title=f"Figure 7: merged vs separate execution ({table_name})",
        columns=("mode", "wall_ms", "wall_ci", "optimizer_cost"))
    merged_stats = mean_ci([t * 1000 for t in merged_times])
    separate_stats = mean_ci([t * 1000 for t in separate_times])
    table.add_row("merged", merged_stats.mean, merged_stats.half_width,
                  mean_ci(merged_costs).mean)
    table.add_row("separate", separate_stats.mean,
                  separate_stats.half_width,
                  mean_ci(separate_costs).mean)
    table.add_note(f"{num_queries} queries x {num_candidates} candidates")
    return table


def _candidate_groups(database: Database,
                      candidates: tuple[CandidateQuery, ...],
                      ) -> list[ProcessingGroup]:
    """Processing groups from the merge planner's grouping (Section 8.1)."""
    from repro.execution.merging import candidate_processing_groups
    return candidate_processing_groups(database, candidates)


def figure8_processing_bound(database: Database,
                             table_name: str = "nyc311",
                             num_queries: int = 10,
                             budget_factors: tuple[float, ...] = (
                                 0.25, 0.5, 1.0, 2.0),
                             pixels: int = 900,
                             seed: int = 0) -> ExperimentTable:
    """Figure 8: disambiguation vs processing cost under a cost bound.

    ``ILP(P-Cost)`` bounds total processing cost by ``factor * unbounded``
    for several factors; ``ILP(D-Cost)`` and the greedy planner ignore
    processing cost.  Reported: average disambiguation cost (model units),
    average processing cost (optimizer units), average planning time.
    """
    workload = WorkloadGenerator(database.table(table_name), seed=seed)
    generator = CandidateGenerator(database, table_name)
    geometry = ScreenGeometry(width_pixels=pixels, num_rows=1)

    instances = []
    for _ in range(num_queries):
        target = workload.random_query(max_predicates=3)
        candidates = tuple(generator.candidates(target, 20))
        groups = _candidate_groups(database, candidates)
        instances.append((candidates, groups))

    table = ExperimentTable(
        title=f"Figure 8: cost-bounded planning ({table_name})",
        columns=("method", "disambiguation_cost", "processing_cost",
                 "planning_ms"))

    def record(method: str, results: list[tuple[float, float, float]]):
        table.add_row(method,
                      mean_ci([r[0] for r in results]).mean,
                      mean_ci([r[1] for r in results]).mean,
                      mean_ci([r[2] * 1000 for r in results]).mean)

    # Unbounded baselines.
    greedy_rows = []
    dcost_rows = []
    unbounded_processing: list[float] = []
    for candidates, groups in instances:
        problem = MultiplotSelectionProblem(candidates, geometry=geometry)
        greedy = GreedySolver().solve(problem)
        greedy_cost = _processing_cost_of(database, greedy.multiplot)
        greedy_rows.append((greedy.expected_cost, greedy_cost,
                            greedy.elapsed_seconds))
        solver = IlpSolver(timeout_seconds=5.0)
        solution = solver.solve(problem, processing_groups=groups)
        dcost_rows.append((solution.expected_cost,
                           solution.processing_cost,
                           solution.elapsed_seconds))
        unbounded_processing.append(solution.processing_cost)
    record("greedy", greedy_rows)
    record("ILP(D-Cost)", dcost_rows)

    for factor in budget_factors:
        rows = []
        for (candidates, groups), unbounded in zip(instances,
                                                   unbounded_processing):
            budget = max(unbounded * factor,
                         min((g.cost for g in groups), default=0.0))
            problem = MultiplotSelectionProblem(candidates,
                                                geometry=geometry)
            solver = IlpSolver(timeout_seconds=5.0)
            try:
                solution = solver.solve(problem, processing_groups=groups,
                                        processing_budget=budget)
            except SolverError:
                continue
            rows.append((solution.expected_cost,
                         solution.processing_cost,
                         solution.elapsed_seconds))
        if rows:
            record(f"ILP(P-Cost x{factor:g})", rows)
    return table


def _processing_cost_of(database: Database, multiplot) -> float:
    """Optimizer cost of executing a multiplot's queries (merged)."""
    queries = list(multiplot.displayed_queries())
    if not queries:
        return 0.0
    return plan_execution(database, queries, merge=True).estimated_cost
