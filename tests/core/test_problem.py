"""Tests for MultiplotSelectionProblem."""

import pytest

from repro.core.model import ScreenGeometry
from repro.core.problem import MultiplotSelectionProblem
from repro.errors import PlanningError
from tests.core.helpers import (
    candidate,
    multiplot,
    plot,
    query,
)


def make_problem(**kwargs) -> MultiplotSelectionProblem:
    candidates = (candidate(0, 0.5), candidate(1, 0.3), candidate(2, 0.2))
    return MultiplotSelectionProblem(candidates, **kwargs)


class TestValidation:
    def test_needs_candidates(self):
        with pytest.raises(PlanningError):
            MultiplotSelectionProblem(())

    def test_probabilities_must_not_exceed_one(self):
        with pytest.raises(PlanningError):
            MultiplotSelectionProblem(
                (candidate(0, 0.8), candidate(1, 0.8)))

    def test_duplicate_queries_rejected(self):
        with pytest.raises(PlanningError):
            MultiplotSelectionProblem(
                (candidate(0, 0.3), candidate(0, 0.2)))


def grouped(problem):
    """Template -> its candidates, as the problem's digest groups them."""
    digest = problem.digest
    return {template: [problem.candidates[k] for k in members]
            for template, members in zip(digest.templates, digest.members)}


class TestTemplates:
    def test_templates_cover_all_candidates(self):
        problem = make_problem()
        groups = grouped(problem)
        covered = {c.query for members in groups.values()
                   for c in members}
        assert covered == {c.query for c in problem.candidates}

    def test_queries_by_template_sorted_by_probability(self):
        problem = make_problem()
        for members in grouped(problem).values():
            probs = [m.probability for m in members]
            assert probs == sorted(probs, reverse=True)

    def test_shared_template_groups_queries(self):
        problem = make_problem()
        groups = grouped(problem)
        assert any(len(members) == 3 for members in groups.values())

    def test_templates_deterministic_order(self):
        first = make_problem().templates()
        second = make_problem().templates()
        assert first == second


class TestEvaluation:
    def test_evaluate_delegates_to_cost_model(self):
        problem = make_problem()
        mp = multiplot([[plot([0, 1], {0})]])
        assert problem.evaluate(mp) == pytest.approx(
            problem.cost_model.expected_cost(mp, problem.candidates))

    def test_probability_of(self):
        problem = make_problem()
        assert problem.probability_of(query(0)) == 0.5
        assert problem.probability_of(query(9)) == 0.0


class TestFeasibility:
    def test_fitting_multiplot_feasible(self):
        problem = make_problem(geometry=ScreenGeometry(width_pixels=2000))
        assert problem.is_feasible(multiplot([[plot([0, 1, 2], {0})]]))

    def test_too_wide_infeasible(self):
        problem = make_problem(
            geometry=ScreenGeometry(width_pixels=200, bar_width_pixels=60))
        assert not problem.is_feasible(multiplot([[plot([0, 1, 2])]]))

    def test_duplicate_result_infeasible(self):
        problem = make_problem(geometry=ScreenGeometry(width_pixels=4000))
        mp = multiplot([[plot([0, 1]), plot([1, 2])]])
        assert not problem.is_feasible(mp)

    def test_unknown_query_infeasible(self):
        problem = make_problem(geometry=ScreenGeometry(width_pixels=4000))
        assert not problem.is_feasible(multiplot([[plot([0, 7])]]))

    def test_too_many_rows_infeasible(self):
        problem = make_problem(geometry=ScreenGeometry(num_rows=1))
        mp = multiplot([[plot([0])], [plot([1])]])
        assert not problem.is_feasible(mp)
