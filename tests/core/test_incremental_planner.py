"""Tests for incremental ILP optimisation and the planner façade."""

from dataclasses import replace

import pytest

from repro.core.greedy import GreedySolver
from repro.core.ilp import IlpSolver, incremental_solve
from repro.core.model import ScreenGeometry
from repro.core.planner import VisualizationPlanner
from repro.core.problem import MultiplotSelectionProblem
from repro.errors import PlanningError, SolverError
from repro.observability import get_trace_log
from repro.resilience import deadline_scope, degradation_scope
from tests.core.helpers import candidate
from tests.core.test_brute_force_validation import tiny_problem


def make_problem(n=6, width=900, rows=1) -> MultiplotSelectionProblem:
    weights = [2.0 ** -i for i in range(n)]
    total = sum(weights)
    return MultiplotSelectionProblem(
        tuple(candidate(i, w / total) for i, w in enumerate(weights)),
        geometry=ScreenGeometry(width_pixels=width, num_rows=rows))


class _NeverOptimalSolver:
    """Stub ILP solver: every call times out with a slightly better
    incumbent than the last, recording the timeout and the incumbent it
    was given."""

    def __init__(self, problem: MultiplotSelectionProblem) -> None:
        self.timeouts: list[float] = []
        self.incumbents: list = []
        self._base = IlpSolver().solve(problem, timeout_seconds=10.0)

    def solve(self, problem, timeout_seconds=None, incumbent=None):
        self.timeouts.append(timeout_seconds)
        self.incumbents.append(incumbent)
        return replace(self._base, optimal=False, timed_out=True,
                       expected_cost=(self._base.expected_cost
                                      + 1.0 / len(self.timeouts)))


class TestIncrementalSolve:
    def test_yields_at_least_one_step(self):
        steps = list(incremental_solve(make_problem(), total_budget=2.0))
        assert steps

    def test_timeouts_grow_exponentially(self):
        steps = list(incremental_solve(
            make_problem(n=10, rows=2), initial_timeout=0.0625,
            growth_factor=2.0, total_budget=1.0))
        timeouts = [s.timeout_seconds for s in steps]
        for earlier, later in zip(timeouts, timeouts[1:]):
            assert later >= earlier - 1e-9

    def test_schedule_folds_residual_when_never_optimal(self):
        """A solver that never proves optimality runs the whole budget:
        the Section 5.4 steps ``k * b**i`` with the residual folded into
        the last one, independent of how fast the host solves."""
        problem = make_problem()
        solver = _NeverOptimalSolver(problem)
        steps = list(incremental_solve(
            problem, solver=solver, initial_timeout=0.0625,
            growth_factor=2.0, total_budget=1.0))
        assert solver.timeouts == [0.0625, 0.125, 0.25, 0.5625]
        assert [s.timeout_seconds for s in steps] == solver.timeouts
        assert steps[-1].cumulative_seconds == pytest.approx(1.0)
        assert all(s.improved for s in steps)

    @pytest.mark.parametrize("budget", [0.03, 0.1, 0.5, 1.0, 4.0, 7.3])
    def test_timeouts_never_shrink_and_fill_budget(self, budget):
        problem = make_problem()
        solver = _NeverOptimalSolver(problem)
        list(incremental_solve(problem, solver=solver,
                               total_budget=budget))
        timeouts = solver.timeouts
        for earlier, later in zip(timeouts, timeouts[1:]):
            assert later >= earlier
        assert sum(timeouts) == pytest.approx(budget)

    def test_costs_never_increase_across_improved_steps(self):
        steps = list(incremental_solve(make_problem(n=10, rows=2),
                                       total_budget=2.0))
        improved = [s.solution.expected_cost for s in steps if s.improved]
        for earlier, later in zip(improved, improved[1:]):
            assert later <= earlier + 1e-9

    def test_stops_after_optimal(self):
        steps = list(incremental_solve(make_problem(n=4),
                                       total_budget=30.0))
        assert steps[-1].solution.optimal

    def test_first_step_marked_improved(self):
        steps = list(incremental_solve(make_problem(), total_budget=2.0))
        assert steps[0].improved

    def test_invalid_parameters(self):
        with pytest.raises(SolverError):
            list(incremental_solve(make_problem(), initial_timeout=0.0))
        with pytest.raises(SolverError):
            list(incremental_solve(make_problem(), growth_factor=1.0))

    def test_steps_after_the_first_are_cut_at_the_best_so_far(self):
        problem = make_problem()
        solver = _NeverOptimalSolver(problem)
        steps = list(incremental_solve(problem, solver=solver,
                                       total_budget=1.0))
        assert solver.incumbents[0] is None
        assert solver.incumbents[1:] == [
            s.solution.multiplot for s in steps[:-1]]

    def test_proof_stops_the_schedule_without_a_worse_plan(self):
        problem = make_problem(n=10, rows=2)
        greedy = VisualizationPlanner(strategy="greedy").plan(problem)
        steps = list(incremental_solve(problem, total_budget=2.0))
        costs = [s.solution.expected_cost for s in steps]
        assert all(cost <= greedy.expected_cost + 1e-9 for cost in costs)
        assert costs == sorted(costs, reverse=True)
        assert steps[-1].solution.optimal

    def test_budget_bounds_cumulative_time(self):
        steps = list(incremental_solve(make_problem(n=12, rows=3),
                                       total_budget=0.5))
        assert steps[-1].cumulative_seconds <= 0.5 + 1e-9


class TestVisualizationPlanner:
    def test_greedy_strategy(self):
        planner = VisualizationPlanner(strategy="greedy")
        result = planner.plan(make_problem())
        assert result.solver_name == "greedy"
        assert not result.timed_out

    def test_ilp_strategy(self):
        planner = VisualizationPlanner(strategy="ilp",
                                       timeout_seconds=10.0)
        result = planner.plan(make_problem())
        assert result.solver_name.startswith("ilp")

    def test_best_strategy_never_worse_than_greedy(self):
        problem = make_problem()
        best = VisualizationPlanner(strategy="best",
                                    timeout_seconds=10.0).plan(problem)
        greedy = VisualizationPlanner(strategy="greedy").plan(problem)
        assert best.expected_cost <= greedy.expected_cost + 1e-9

    def test_unknown_strategy(self):
        with pytest.raises(PlanningError):
            VisualizationPlanner(strategy="magic")

    def test_plan_feasible(self):
        problem = make_problem(rows=2)
        result = VisualizationPlanner(strategy="best",
                                      timeout_seconds=5.0).plan(problem)
        assert problem.is_feasible(result.multiplot)

    def test_bnb_backend_selectable(self, tiny_problem):
        planner = VisualizationPlanner(strategy="ilp", ilp_backend="bnb",
                                       timeout_seconds=30.0)
        result = planner.plan(tiny_problem)
        assert result.solver_name == "ilp-bnb"


class TestCertifiedBestStrategy:
    """The "best" strategy cuts the ILP off at greedy's plan."""

    @staticmethod
    def plan_traced(problem):
        planner = VisualizationPlanner(strategy="best",
                                       timeout_seconds=10.0)
        with degradation_scope() as degradations:
            result = planner.plan(problem)
        root = get_trace_log().tail(1)[-1].root
        assert root.name == "planner.plan"
        return result, root.attributes["decision"], degradations

    def test_greedy_proven_optimal(self):
        problem = make_problem()
        greedy = VisualizationPlanner(strategy="greedy").plan(problem)
        result, decision, degradations = self.plan_traced(problem)
        assert decision == "greedy proven optimal"
        assert result.optimal and not result.timed_out
        assert result.multiplot == greedy.multiplot
        assert result.ilp_cost == result.greedy_cost == greedy.expected_cost
        assert degradations == []

    def test_ilp_improvement_still_served(self):
        problem = tiny_problem(5, width=360, seed=0, num_rows=2)
        greedy = VisualizationPlanner(strategy="greedy").plan(problem)
        result, decision, degradations = self.plan_traced(problem)
        assert decision == "ilp upgrade"
        assert result.solver_name == "ilp-highs" and result.optimal
        assert result.expected_cost < greedy.expected_cost - 1.0
        assert result.ilp_cost == result.expected_cost
        assert result.greedy_cost == greedy.expected_cost
        assert degradations == []

    @staticmethod
    def ilp_certificate() -> dict:
        root = get_trace_log().tail(1)[-1].root
        (span,) = [s for s in root.iter_spans() if s.name == "planner.ilp"]
        return {key: span.attributes[key] for key in
                ("backend", "tuples_left", "pairs_left", "assignments",
                 "open_bound")}

    def test_certificate_of_a_greedy_proven_plan(self, small_problem):
        """Count tuples survive the cut at greedy's cost, but no template
        set can realise one of them cheaper: the proof needs no
        assignment."""
        _, decision, _ = self.plan_traced(small_problem)
        assert decision == "greedy proven optimal"
        certificate = self.ilp_certificate()
        assert certificate["backend"] == "rowsearch"
        assert certificate["tuples_left"] > 0
        assert certificate["pairs_left"] == 0
        assert certificate["assignments"] == 0
        assert certificate["open_bound"] == 0.0

    def test_span_names_the_milp_backend_on_two_rows(self):
        self.plan_traced(tiny_problem(5, width=360, seed=0, num_rows=2))
        assert self.ilp_certificate()["backend"] == "highs"

    def test_certificate_of_an_ilp_upgrade(self, small_problem):
        wide = replace(small_problem,
                       geometry=ScreenGeometry(width_pixels=1500))
        result, decision, _ = self.plan_traced(wide)
        assert decision == "ilp upgrade" and result.optimal
        certificate = self.ilp_certificate()
        assert certificate["tuples_left"] > 0
        assert certificate["pairs_left"] >= 1
        assert certificate["assignments"] >= 1
        assert certificate["open_bound"] == 0.0


class TestDeadlineBudget:
    """The ILP's budget is whatever the request deadline leaves of it."""

    def test_short_deadline_still_proves_a_one_row_plan(self, small_problem):
        planner = VisualizationPlanner(strategy="best")
        with degradation_scope() as degradations:
            with deadline_scope(300):
                result = planner.plan(small_problem)
        assert result.optimal and not result.timed_out
        assert [e for e in degradations if e.site == "planner"] == []

    def test_exhausted_budget_keeps_greedy_and_is_recorded(
            self, small_problem):
        """With nothing left of the deadline the search stops at once:
        greedy's plan is served unproven, and the cut budget is recorded
        as a degradation (degraded plans are never cached)."""
        class Spent:
            budget_ms = 300.0

            def remaining_ms(self) -> float:
                return 0.0

        greedy = VisualizationPlanner(strategy="greedy").plan(small_problem)
        planner = VisualizationPlanner(strategy="best")
        with degradation_scope() as degradations:
            result, degraded = planner._plan_primary(small_problem, Spent())
        assert degraded
        assert result.solver_name == "greedy" and not result.optimal
        assert result.multiplot == greedy.multiplot
        assert [(e.site, e.action, e.reason) for e in degradations] == [
            ("planner", "ilp_budget_cut", "deadline_pressure")]


    def test_row_search_leaves_execution_its_share(self, small_problem):
        """The row search's budget keeps back the fraction of the
        deadline execution needs before it would shrink the answer."""
        class Deadline:
            budget_ms = 1000.0

            def remaining_ms(self) -> float:
                return 400.0

        budgets = []
        planner = VisualizationPlanner(strategy="best")
        solve = planner._ilp.solve

        def recording_solve(problem, **kwargs):
            budgets.append(kwargs["timeout_seconds"])
            return solve(problem, **kwargs)

        planner._ilp.solve = recording_solve
        planner._plan_primary(small_problem, Deadline())
        assert budgets == [pytest.approx(0.25)]

    def test_milp_is_skipped_when_its_limit_does_not_fit(self):
        """Two rows go to the MILP, which is not anytime: under a
        deadline shorter than its limit the planner keeps greedy's plan
        and records the skip, as before the row search existed."""
        problem = tiny_problem(5, width=360, seed=0, num_rows=2)
        greedy = VisualizationPlanner(strategy="greedy").plan(problem)
        planner = VisualizationPlanner(strategy="best")
        with degradation_scope() as degradations:
            with deadline_scope(500):
                result = planner.plan(problem)
        assert result.solver_name == "greedy"
        assert result.multiplot == greedy.multiplot
        assert [(e.site, e.action, e.reason) for e in degradations] == [
            ("planner", "ilp_to_greedy", "deadline_pressure")]


def test_zero_budget_returns_the_incumbent_with_an_open_bound(small_problem):
    """The search is anytime: out of time before any pair, it hands the
    incumbent back unproven, with the lowest bound it did not search."""
    greedy = GreedySolver().solve(small_problem)
    solution = IlpSolver(timeout_seconds=0.0).solve(
        small_problem, incumbent=greedy.multiplot)
    assert solution.timed_out and not solution.optimal
    assert solution.from_incumbent
    assert solution.multiplot == greedy.multiplot
    assert 0.0 < solution.open_bound < greedy.expected_cost
