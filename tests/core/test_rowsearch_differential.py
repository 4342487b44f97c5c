"""Differential suite: the one-row search against the uncut MILP.

On random one-row instances (3-12 candidates over overlapping templates,
360-1920 px, probability mass below one, reading costs that can make a
plain bar cost more than a miss, template pruning on and off), the plan
:meth:`IlpSolver.solve` returns must be feasible, its objective must be
its cost, and that cost must equal the optimum of the MILP solved without
any cutoff, whether the search is seeded with greedy's plan or with the
empty multiplot.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost_model import UserCostModel
from repro.core.ilp.highs import solve_with_highs
from repro.core.ilp.translate import IlpSolver, _Formulation
from repro.core.model import Multiplot, ScreenGeometry
from repro.core.problem import MultiplotSelectionProblem
from repro.nlq.candidates import CandidateQuery
from repro.sqldb.query import AggregateQuery

_FUNCTIONS = (("count", None), ("avg", "hours"), ("sum", "hours"),
              ("avg", "cost"))
_COLUMNS = ("borough", "agency", "status")
_VALUES = ("North", "South", "East", "Queens")

# Queries with one or two predicates: candidates share templates in many
# overlapping ways (same function, same fixed predicate, same value).
_QUERIES = [
    AggregateQuery.build("requests", func, column, dict(predicates))
    for func, column in _FUNCTIONS
    for size in (1, 2)
    for columns in itertools.combinations(_COLUMNS, size)
    for predicates in itertools.product(
        *[[(c, v) for v in _VALUES] for c in columns])]


@st.composite
def one_row_problems(draw):
    chosen = [_QUERIES[i] for i in draw(st.lists(
        st.integers(0, len(_QUERIES) - 1), min_size=3, max_size=12,
        unique=True))]
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(chosen),
                            max_size=len(chosen)))
    mass = draw(st.floats(0.5, 1.0))
    scale = mass / sum(weights)
    candidates = tuple(CandidateQuery(q, min(1.0, w * scale))
                       for q, w in zip(chosen, weights))
    model = UserCostModel(
        bar_cost=draw(st.sampled_from((100.0, 400.0))),
        plot_cost=draw(st.sampled_from((500.0, 1800.0))),
        miss_cost=draw(st.sampled_from((3_000.0, 30_000.0))))
    geometry = ScreenGeometry(width_pixels=draw(st.integers(360, 1920)))
    return MultiplotSelectionProblem(candidates, geometry=geometry,
                                     cost_model=model)


def uncut_milp_cost(problem: MultiplotSelectionProblem,
                    prune_templates: bool) -> float:
    formulation = _Formulation(problem, None, 0.0, prune_templates,
                               cutoff=None)
    result = solve_with_highs(formulation.model.compile(), None)
    assert result.optimal
    return problem.evaluate(formulation.extract_multiplot(result))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=one_row_problems(), prune_templates=st.booleans())
def test_row_search_matches_uncut_milp(problem, prune_templates):
    """Seeded with greedy's plan and with the empty multiplot (a cutoff
    that keeps every tuple), the search reaches the MILP's optimum."""
    optimum = uncut_milp_cost(problem, prune_templates)
    solver = IlpSolver(timeout_seconds=None,
                       prune_templates=prune_templates)
    for incumbent in (None, Multiplot.empty(1)):
        solution = solver.solve(problem, incumbent=incumbent)
        assert solution.optimal and not solution.timed_out
        assert solution.num_variables == 0  # no model was built
        assert solution.open_bound == 0.0
        assert problem.is_feasible(solution.multiplot)
        assert solution.objective == pytest.approx(
            problem.evaluate(solution.multiplot), rel=1e-9)
        assert solution.expected_cost == pytest.approx(optimum, rel=1e-6)
