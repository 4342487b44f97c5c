"""Tests for the Section 5 ILP formulation and its solutions."""

import pytest

from repro.core.greedy import GreedySolver
from repro.core.ilp.translate import (
    IlpSolver,
    ProcessingGroup,
    _Formulation,
    prune_dominated_templates,
)
from repro.core.model import ScreenGeometry
from repro.core.problem import MultiplotSelectionProblem
from repro.errors import SolverError
from tests.core.helpers import candidate


def small_instance(num_candidates=5, width=700, rows=1,
                   ) -> MultiplotSelectionProblem:
    weights = [2.0 ** -i for i in range(num_candidates)]
    total = sum(weights)
    candidates = tuple(candidate(i, w / total)
                       for i, w in enumerate(weights))
    return MultiplotSelectionProblem(
        candidates, geometry=ScreenGeometry(width_pixels=width,
                                            num_rows=rows))


class TestTemplatePruning:
    def test_dominated_templates_removed(self, small_problem):
        pruned = prune_dominated_templates(small_problem)
        full = small_problem.queries_by_template()
        assert 0 < len(pruned) < len(full)

    def test_pruning_preserves_query_coverage(self, small_problem):
        pruned = prune_dominated_templates(small_problem)
        covered = set()
        for _, members in pruned:
            covered.update(members)
        assert covered == set(range(len(small_problem.candidates)))

    def test_members_sorted_by_probability(self, small_problem):
        probabilities = [c.probability for c in small_problem.candidates]
        for _, members in prune_dominated_templates(small_problem):
            member_probs = [probabilities[k] for k in members]
            assert member_probs == sorted(member_probs, reverse=True)


class TestIlpSolutions:
    def test_objective_matches_cost_model(self):
        """The linearised ILP objective must equal the closed-form cost of
        the extracted multiplot — the formulation's central invariant."""
        problem = small_instance()
        solution = IlpSolver(timeout_seconds=None).solve(problem)
        assert solution.optimal
        assert solution.objective == pytest.approx(solution.expected_cost,
                                                   rel=1e-6)

    def test_solution_feasible(self):
        problem = small_instance()
        solution = IlpSolver(timeout_seconds=None).solve(problem)
        assert problem.is_feasible(solution.multiplot)

    def test_ilp_at_least_as_good_as_greedy(self):
        problem = small_instance()
        ilp = IlpSolver(timeout_seconds=None).solve(problem)
        greedy = GreedySolver().solve(problem)
        assert ilp.expected_cost <= greedy.expected_cost + 1e-6

    def test_shows_most_likely_candidate(self):
        problem = small_instance()
        solution = IlpSolver(timeout_seconds=None).solve(problem)
        assert solution.multiplot.shows(problem.candidates[0].query)

    def test_two_rows_feasible_and_no_worse(self):
        one_row = small_instance(rows=1, width=500)
        two_rows = small_instance(rows=2, width=500)
        s1 = IlpSolver(timeout_seconds=None).solve(one_row)
        s2 = IlpSolver(timeout_seconds=None).solve(two_rows)
        assert two_rows.is_feasible(s2.multiplot)
        assert s2.expected_cost <= s1.expected_cost + 1e-6

    def test_pruning_does_not_change_optimum(self):
        problem = small_instance(num_candidates=4)
        pruned = IlpSolver(timeout_seconds=None,
                           prune_templates=True).solve(problem)
        full = IlpSolver(timeout_seconds=None,
                         prune_templates=False).solve(problem)
        assert pruned.expected_cost == pytest.approx(full.expected_cost,
                                                     rel=1e-6)

    def test_bnb_backend_agrees_with_highs(self, tiny_problem):
        highs = IlpSolver(backend="highs",
                          timeout_seconds=None).solve(tiny_problem)
        bnb = IlpSolver(backend="bnb",
                        timeout_seconds=60.0).solve(tiny_problem)
        assert highs.expected_cost == pytest.approx(bnb.expected_cost,
                                                    rel=1e-6)

    def test_timeout_reports_flag(self, small_problem):
        # Three legitimate outcomes under a near-zero budget: solved in
        # time, an incumbent flagged as timed out, or no incumbent at all
        # (surfaced as SolverError).  Anything else is a bug.
        try:
            solution = IlpSolver(timeout_seconds=0.02).solve(small_problem)
        except SolverError:
            return
        assert solution.timed_out or solution.optimal

    def test_optimal_incumbent_comes_back_proven(self, small_problem):
        """Count tuples below the cutoff remain (their bounds are not
        tight), the solve finds nothing cheaper, and the caller's plan
        comes back proven optimal."""
        optimum = IlpSolver(timeout_seconds=None).solve(small_problem)
        again = IlpSolver(timeout_seconds=None).solve(
            small_problem, incumbent=optimum.multiplot)
        assert again.num_variables > 0
        assert again.from_incumbent and again.optimal
        assert not again.timed_out
        assert again.multiplot == optimum.multiplot
        assert again.objective == again.expected_cost == \
            small_problem.evaluate(optimum.multiplot)

    def test_incumbent_survives_any_budget(self, small_problem):
        """Under a near-zero budget the caller's plan is the floor: no
        SolverError and never a worse plan."""
        greedy = GreedySolver().solve(small_problem)
        solution = IlpSolver(timeout_seconds=1e-3).solve(
            small_problem, incumbent=greedy.multiplot)
        assert solution.optimal or solution.timed_out
        assert solution.expected_cost <= greedy.expected_cost

    def test_unknown_backend_rejected(self):
        with pytest.raises(SolverError):
            IlpSolver(backend="gurobi")

    def test_model_size_grows_with_rows(self):
        # The uncut model: with a cutoff, the tuple bounds alone can
        # prove the greedy plan optimal and nothing gets built.
        def uncut(problem):
            return _Formulation(problem, None, 0.0, True, cutoff=None).model
        m1 = uncut(small_instance(rows=1))
        m2 = uncut(small_instance(rows=2))
        assert m2.num_variables > m1.num_variables


class TestProcessingExtension:
    def test_coverage_constraint_blocks_uncovered_queries(self):
        problem = small_instance(num_candidates=3)
        # Only candidate 0 can ever be processed.
        groups = [ProcessingGroup(cost=1.0,
                                  candidate_indices=frozenset({0}))]
        solution = IlpSolver(timeout_seconds=None).solve(
            problem, processing_groups=groups)
        displayed = solution.multiplot.displayed_queries()
        assert displayed <= {problem.candidates[0].query}

    def test_budget_constrains_processing_cost(self):
        weights = [2.0 ** -i for i in range(4)]
        total = sum(weights)
        candidates = tuple(candidate(i, w / total)
                           for i, w in enumerate(weights))
        problem = MultiplotSelectionProblem(
            candidates,
            geometry=ScreenGeometry(width_pixels=700),
            processing_costs=(5.0, 5.0, 5.0, 5.0),
            processing_budget=10.0)
        groups = [ProcessingGroup(cost=5.0,
                                  candidate_indices=frozenset({i}))
                  for i in range(4)]
        solution = IlpSolver(timeout_seconds=None).solve(
            problem, processing_groups=groups)
        assert solution.processing_cost <= 10.0 + 1e-9
        assert len(solution.multiplot.displayed_queries()) <= 2

    def test_processing_weight_prefers_cheap_groups(self):
        problem = small_instance(num_candidates=3)
        # Two alternative groups cover candidate 0: one cheap, one pricey.
        groups = [
            ProcessingGroup(cost=100.0, candidate_indices=frozenset({0})),
            ProcessingGroup(cost=1.0, candidate_indices=frozenset({0})),
            ProcessingGroup(cost=1.0, candidate_indices=frozenset({1, 2})),
        ]
        solution = IlpSolver(timeout_seconds=None,
                             processing_weight=1.0).solve(
            problem, processing_groups=groups)
        assert 0 not in solution.selected_groups

    def test_invalid_group_rejected(self):
        with pytest.raises(SolverError):
            ProcessingGroup(cost=-1.0, candidate_indices=frozenset({0}))
        with pytest.raises(SolverError):
            ProcessingGroup(cost=1.0, candidate_indices=frozenset())
