"""Differential suite: greedy over version summaries against the oracle.

:class:`GreedySolver` picks plots over integer summaries of the colored
versions (:class:`PlotVersions`).  The reference is the plot-object
pipeline in :mod:`tests.core.greedy_oracle`: every version built as a
:class:`Plot` and every move costed by rescanning the whole selection.
Both must serve the same multiplot, bit for bit, with the same expected
cost: on random 1-3-row screens of 360-1500 px with 5-50 candidates that
share templates (several aggregates of one predicate, several values of
one column), and on a fixed corpus of nyc311 candidate sets.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost_model import UserCostModel
from repro.core.greedy import GreedySolver
from repro.core.greedy import pick_plots as picking
from repro.core.greedy.coloring import PlotVersions
from repro.core.greedy.pick_plots import pick_plots
from repro.core.greedy.plot_candidates import plot_candidates
from repro.core.model import ScreenGeometry
from repro.core.problem import MultiplotSelectionProblem
from repro.datasets import WorkloadGenerator
from repro.nlq.candidates import CandidateGenerator, CandidateQuery
from repro.sqldb.query import AggregateQuery
from tests.core import greedy_oracle

_FUNCTIONS = (("count", None), ("avg", "hours"), ("sum", "hours"),
              ("avg", "cost"))
_COLUMNS = ("borough", "agency", "status")
_VALUES = ("North", "South", "East", "Queens")

# One- and two-predicate queries: each predicate set appears under every
# aggregate (agg_func / agg_column templates) and each column under every
# value (pred_value templates), so candidates share templates heavily.
_QUERIES = [
    AggregateQuery.build("requests", func, column, dict(predicates))
    for func, column in _FUNCTIONS
    for size in (1, 2)
    for columns in itertools.combinations(_COLUMNS, size)
    for predicates in itertools.product(
        *[[(c, v) for v in _VALUES] for c in columns])]


@st.composite
def problems(draw):
    chosen = [_QUERIES[i] for i in draw(st.lists(
        st.integers(0, len(_QUERIES) - 1), min_size=5, max_size=50,
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
    geometry = ScreenGeometry(width_pixels=draw(st.integers(360, 1500)),
                              num_rows=draw(st.integers(1, 3)))
    return MultiplotSelectionProblem(candidates, geometry=geometry,
                                     cost_model=model)


@contextmanager
def savings_evaluated():
    """Collects every savings value the summaries path and the oracle
    compute inside the block, as ``(summaries, oracle)`` lists."""
    values = ([], [])
    summaries = picking._Savings.__call__
    oracle = greedy_oracle.selection_savings

    def summaries_spy(self, *args):
        values[0].append(summaries(self, *args))
        return values[0][-1]

    def oracle_spy(plots, cost_model):
        values[1].append(oracle(plots, cost_model))
        return values[1][-1]

    picking._Savings.__call__ = summaries_spy
    greedy_oracle.selection_savings = oracle_spy
    try:
        yield values
    finally:
        picking._Savings.__call__ = summaries
        greedy_oracle.selection_savings = oracle


def assert_same_plans(problem):
    """Summaries and oracle agree before and after the polish step.

    Plans only differ when a float sum does, so beyond equal plans every
    savings value the summaries path computes must be one the oracle
    computes too, bit for bit (it evaluates a subset of the oracle's
    selections: one row per version, in the same order).
    """
    versions = PlotVersions(problem, plot_candidates(problem))
    colored = greedy_oracle.add_colors(plot_candidates(problem))
    assert [versions.plot(v) for v in range(len(versions))] == colored
    with savings_evaluated() as (summaries, oracle):
        picked = pick_plots(problem, versions)
        reference = greedy_oracle.pick_plots(problem, colored)
    assert picked == reference
    assert set(summaries) <= set(oracle)
    solution = GreedySolver().solve(problem)
    multiplot, cost = greedy_oracle.solve(problem)
    assert solution.multiplot == multiplot
    assert solution.expected_cost == cost


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=problems())
def test_knapsack_matches_oracle(problem):
    assert_same_plans(problem)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=problems(), data=st.data())
def test_plots_in_any_order_match_oracle(problem, data):
    """Plot lists whose plots of one template do not grow a prefix at a
    time (here each template's plots shuffled) still pick the oracle's
    plots: sums continue a plot only from its parent."""
    uncolored = plot_candidates(problem)
    shuffled = []
    for _, group in itertools.groupby(uncolored, lambda u: u.template_id):
        shuffled.extend(data.draw(st.permutations(list(group))))
    versions = PlotVersions(problem, shuffled)
    colored = greedy_oracle.add_colors(shuffled)
    assert pick_plots(problem, versions) == greedy_oracle.pick_plots(
        problem, colored)


def _nyc_corpus(database):
    """Twelve seeded nyc311 targets at 20 and 50 candidates each."""
    workload = WorkloadGenerator(database.table("nyc311"), seed=5)
    generator = CandidateGenerator(database, "nyc311")
    for _ in range(12):
        target = workload.random_query(max_predicates=3)
        for count in (20, 50):
            yield tuple(generator.candidates(target, count))


@pytest.mark.parametrize("width,rows", [(1125, 1), (768, 2), (1500, 3),
                                        (360, 2)])
def test_nyc_corpus_matches_oracle(nyc_db, width, rows):
    geometry = ScreenGeometry(width_pixels=width, num_rows=rows)
    for candidates in _nyc_corpus(nyc_db):
        assert_same_plans(MultiplotSelectionProblem(candidates,
                                                    geometry=geometry))
