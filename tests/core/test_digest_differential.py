"""Differential suite: the problem digest against the per-call oracle.

Every planner reads one :class:`~repro.core.digest.ProblemDigest` per
problem.  The reference is :mod:`tests.core.digest_oracle`, the grouping,
pruning and count-tuple enumeration recomputed from scratch on every
call.  Both must agree bit for bit on the template order, each template's
members in rank order, base widths, bar capacities, the undominated
templates (order and members) and every field of every count tuple, in
order, with pruning on and off and with and without a cutoff: on random
1-3-row screens of 360-1920 px whose candidates share templates and
often tie in probability, and on a fixed corpus of nyc311 candidate sets.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost_model import UserCostModel
from repro.core.greedy import GreedySolver
from repro.core.ilp.translate import _templates_and_tuples
from repro.core.model import ScreenGeometry
from repro.core.problem import MultiplotSelectionProblem
from repro.datasets import WorkloadGenerator
from repro.nlq.candidates import CandidateGenerator, CandidateQuery
from repro.sqldb.query import AggregateQuery
from tests.core import digest_oracle

_FUNCTIONS = (("count", None), ("avg", "hours"), ("sum", "hours"),
              ("avg", "cost"))
_COLUMNS = ("borough", "agency", "status")
_VALUES = ("North", "South", "East", "Queens")

# One- and two-predicate queries: each predicate set appears under every
# aggregate and each column under every value, so candidates share
# templates heavily.
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
        st.integers(0, len(_QUERIES) - 1), min_size=1, max_size=40,
        unique=True))]
    # Coarse weights tie often, so the SQL tie-break is exercised.
    weight = st.one_of(st.floats(0.01, 1.0),
                       st.sampled_from((0.1, 0.25, 0.5)))
    weights = draw(st.lists(weight, min_size=len(chosen),
                            max_size=len(chosen)))
    mass = draw(st.floats(0.5, 1.0))
    scale = mass / sum(weights)
    candidates = tuple(CandidateQuery(q, min(1.0, w * scale))
                       for q, w in zip(chosen, weights))
    model = UserCostModel(
        bar_cost=draw(st.sampled_from((100.0, 400.0))),
        plot_cost=draw(st.sampled_from((500.0, 1800.0))),
        miss_cost=draw(st.sampled_from((3_000.0, 30_000.0))))
    geometry = ScreenGeometry(width_pixels=draw(st.integers(360, 1920)),
                              num_rows=draw(st.integers(1, 3)))
    return MultiplotSelectionProblem(candidates, geometry=geometry,
                                     cost_model=model)


def _bits(value):
    """*value* with floats as their exact hex form (so 0.0 != -0.0)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return type(value)(_bits(v) for v in value)
    return value


def assert_digest_matches_oracle(problem: MultiplotSelectionProblem,
                                 cutoff: float | None) -> None:
    digest = problem.digest
    geometry = problem.geometry
    index = {c.query: k for k, c in enumerate(problem.candidates)}

    groups = digest_oracle.queries_by_template(problem)
    assert list(digest.templates) == list(groups)
    assert [list(members) for members in digest.members] == [
        [index[c.query] for c in members] for members in groups.values()]
    assert digest.titles == tuple(t.title() for t in groups)
    assert _bits(digest.base_units) == _bits(
        tuple(geometry.plot_base_units(t) for t in groups))
    assert digest.capacity == tuple(geometry.max_bars(t) for t in groups)

    pruned = digest_oracle.prune_dominated_templates(problem)
    assert [digest.templates[t] for t in digest.undominated] == [
        template for template, _ in pruned]
    assert [digest.columns(t) for t in digest.undominated] == [
        members for _, members in pruned]

    for prune_templates in (True, False):
        template_ids, tuples = _templates_and_tuples(
            problem, prune_templates, cutoff)
        usable = digest_oracle.usable_templates(problem, prune_templates)
        assert [digest.templates[t] for t in template_ids] == [
            template for template, _ in usable]
        expected = digest_oracle.cut_tuples(problem, prune_templates,
                                            cutoff)
        assert [_bits(tuple(t)) for t in tuples] == [
            _bits((t.plots, t.red_plots, t.bars, t.red_bars, t.d_red,
                   t.d_visible, t.red_mass, t.shown_mass, t.bound))
            for t in expected]


def _cutoffs(problem: MultiplotSelectionProblem):
    """No cutoff, and greedy's cost (what the exact solvers are cut at)."""
    return (None, GreedySolver().solve(problem).expected_cost)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=problems(), seeded=st.booleans())
def test_digest_matches_oracle(problem, seeded):
    cutoff = _cutoffs(problem)[1] if seeded else None
    assert_digest_matches_oracle(problem, cutoff)


def test_ties_rank_by_sql_text():
    """Equal probabilities rank by SQL text, whatever the input order."""
    queries = sorted(_QUERIES[:6], key=lambda q: q.to_sql(), reverse=True)
    problem = MultiplotSelectionProblem(
        tuple(CandidateQuery(q, 0.1) for q in queries))
    assert [problem.candidates[k].query.to_sql()
            for k in problem.digest.ranked] == sorted(
        q.to_sql() for q in queries)
    assert_digest_matches_oracle(problem, None)


def _nyc_corpus(database):
    """Twelve seeded nyc311 targets at 20 and 50 candidates each."""
    workload = WorkloadGenerator(database.table("nyc311"), seed=5)
    generator = CandidateGenerator(database, "nyc311")
    for _ in range(12):
        target = workload.random_query(max_predicates=3)
        for count in (20, 50):
            yield tuple(generator.candidates(target, count))


@pytest.mark.parametrize("width,rows", [(1125, 1), (768, 2), (1125, 3),
                                        (360, 2), (1920, 1)])
def test_nyc_corpus_matches_oracle(nyc_db, width, rows):
    geometry = ScreenGeometry(width_pixels=width, num_rows=rows)
    for candidates in _nyc_corpus(nyc_db):
        problem = MultiplotSelectionProblem(candidates, geometry=geometry)
        for cutoff in _cutoffs(problem):
            assert_digest_matches_oracle(problem, cutoff)
