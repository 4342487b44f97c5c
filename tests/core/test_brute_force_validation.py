"""Brute-force validation of the ILP on tiny instances.

For instances small enough to enumerate *every* feasible multiplot —
including non-prefix highlight patterns the greedy never considers — the
ILP's solution must achieve the brute-force optimum.  This validates the
entire formulation (variables, constraints, the count-tuple objective and
the cutoff at an incumbent's cost) against the cost-model ground truth,
and empirically re-confirms Theorem 2 (some optimum always uses prefix
highlighting).
"""

from __future__ import annotations

import functools
import itertools

import pytest

from repro.core.cost_model import UserCostModel
from repro.core.ilp import IlpSolver, ProcessingGroup
from repro.core.ilp.translate import _Formulation
from repro.core.model import Bar, Multiplot, Plot, ScreenGeometry
from repro.core.problem import MultiplotSelectionProblem
from tests.core.helpers import candidate


def enumerate_multiplots(problem: MultiplotSelectionProblem,
                         max_plots: int = 2):
    """Yield every feasible multiplot with ``<= max_plots`` plots in any
    rows, any query subset per plot, any highlight pattern."""
    geometry = problem.geometry
    groups = problem.queries_by_template()

    all_plots: list[Plot] = []
    for template, members in groups.items():
        base = geometry.plot_base_units(template)
        for size in range(1, len(members) + 1):
            for subset in itertools.combinations(members, size):
                if base + size > geometry.width_units:
                    continue
                for pattern in itertools.product((False, True),
                                                 repeat=size):
                    bars = tuple(
                        Bar(query=member.query,
                            probability=member.probability,
                            label=template.x_label(member.query),
                            highlighted=flag)
                        for member, flag in zip(subset, pattern))
                    all_plots.append(Plot(template, bars))

    num_rows = geometry.num_rows
    yield Multiplot.empty(num_rows)
    for count in range(1, max_plots + 1):
        for combo in itertools.combinations(range(len(all_plots)), count):
            plots = tuple(all_plots[i] for i in combo)
            if Multiplot((plots,)).duplicate_queries():
                continue
            for rows_of in itertools.product(range(num_rows),
                                             repeat=count):
                multiplot = Multiplot(tuple(
                    tuple(p for p, r in zip(plots, rows_of) if r == row)
                    for row in range(num_rows)))
                if geometry.fits(multiplot):
                    yield multiplot


def tiny_problem(num_candidates: int, width: int, seed: int,
                 num_rows: int = 1, **budget) -> MultiplotSelectionProblem:
    import numpy as np
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=num_candidates)
    raw /= raw.sum()
    candidates = tuple(candidate(i, float(p)) for i, p in enumerate(raw))
    return MultiplotSelectionProblem(
        candidates,
        geometry=ScreenGeometry(width_pixels=width, num_rows=num_rows),
        cost_model=UserCostModel(bar_cost=300.0, plot_cost=1500.0,
                                 miss_cost=20_000.0),
        **budget)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("num_candidates", [3, 4])
def test_ilp_matches_brute_force(num_candidates, seed):
    problem = tiny_problem(num_candidates, width=620, seed=seed)
    brute_cost = min(problem.evaluate(mp)
                     for mp in enumerate_multiplots(problem))
    solution = IlpSolver(timeout_seconds=None).solve(problem)
    assert solution.optimal
    assert solution.expected_cost == pytest.approx(brute_cost, rel=1e-6)


@functools.lru_cache(maxsize=None)
def brute_force(num_rows: int, width: int, seed: int):
    """The instance, its optimal cost, and one optimal multiplot.

    No third plot fits these screens (620 px holds two plots in a row,
    360 px one), so enumerating up to two plots is exhaustive.
    """
    problem = tiny_problem(4, width=width, seed=seed, num_rows=num_rows)
    best = min(enumerate_multiplots(problem), key=problem.evaluate)
    return problem, problem.evaluate(best), best


def weak_incumbent(problem: MultiplotSelectionProblem) -> Multiplot:
    """A feasible but poor plan: the least likely candidate alone."""
    least = min(problem.candidates, key=lambda c: c.probability)
    template = next(t for t, members in problem.queries_by_template().items()
                    if any(m.query == least.query for m in members)
                    and problem.geometry.max_bars(t) > 0)
    bar = Bar(query=least.query, probability=least.probability,
              label=template.x_label(least.query))
    rows = [()] * problem.geometry.num_rows
    rows[0] = (Plot(template, (bar,)),)
    return Multiplot(tuple(rows))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("num_rows, width", [(1, 620), (2, 360)])
def test_tuple_bounds_hold_for_every_multiplot(num_rows, width, seed):
    """Every multiplot has its counts among the enumerated tuples, and
    costs at least that tuple's bound (what makes the cutoff sound)."""
    problem, _, _ = brute_force(num_rows, width, seed)
    tuples = {(t.plots, t.red_plots, t.bars, t.red_bars): t
              for t in _Formulation(problem, None, 0.0, False, None).tuples}
    for multiplot in enumerate_multiplots(problem):
        counts = (multiplot.num_plots, multiplot.num_plots_with_highlight,
                  multiplot.num_bars, multiplot.num_highlighted_bars)
        assert tuples[counts].bound <= problem.evaluate(multiplot) + 1e-9


@pytest.mark.parametrize("incumbent", ["greedy seed", "weak", "optimal"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("num_rows, width", [(1, 620), (2, 360)])
@pytest.mark.parametrize("backend", ["highs", "bnb"])
def test_cut_model_matches_brute_force(backend, num_rows, width, seed,
                                       incumbent):
    """Whatever the cutoff, the solve proves the brute-force optimum, and
    the model objective is the cost of the multiplot it extracts."""
    problem, brute_cost, optimum = brute_force(num_rows, width, seed)
    given = {"greedy seed": None, "weak": weak_incumbent(problem),
             "optimal": optimum}[incumbent]
    if given is not None:
        assert problem.is_feasible(given)
    solution = IlpSolver(backend=backend, timeout_seconds=None).solve(
        problem, incumbent=given)
    assert solution.optimal and not solution.timed_out
    assert problem.is_feasible(solution.multiplot)
    assert solution.expected_cost == pytest.approx(brute_cost, rel=1e-6)
    assert solution.objective == pytest.approx(
        problem.evaluate(solution.multiplot), rel=1e-9)
    if incumbent == "optimal":
        assert solution.from_incumbent


@pytest.mark.parametrize("backend", ["highs", "bnb"])
def test_processing_budget_matches_brute_force(backend):
    """The uncut path: with processing groups no incumbent or greedy
    seed applies, and the budget excludes the unconstrained optimum."""
    costs = (4.0, 3.0, 2.0, 1.0)
    problem = tiny_problem(4, width=620, seed=0, processing_costs=costs,
                           processing_budget=5.0)
    groups = [ProcessingGroup(cost=c, candidate_indices=frozenset({k}))
              for k, c in enumerate(costs)]
    index = {c.query: k for k, c in enumerate(problem.candidates)}

    def within_budget(multiplot: Multiplot) -> bool:
        return sum(costs[index[q]]
                   for q in multiplot.displayed_queries()) <= 5.0

    unconstrained = min(problem.evaluate(mp)
                        for mp in enumerate_multiplots(problem))
    brute_cost = min(problem.evaluate(mp)
                     for mp in enumerate_multiplots(problem)
                     if within_budget(mp))
    assert brute_cost > unconstrained + 1e-6
    solution = IlpSolver(backend=backend, timeout_seconds=None).solve(
        problem, processing_groups=groups,
        incumbent=weak_incumbent(problem))
    assert solution.optimal and not solution.from_incumbent
    assert within_budget(solution.multiplot)
    assert solution.processing_cost <= 5.0
    assert solution.expected_cost == pytest.approx(brute_cost, rel=1e-6)
    assert solution.objective == pytest.approx(
        problem.evaluate(solution.multiplot), rel=1e-9)


@pytest.mark.parametrize("seed", [3, 4])
def test_some_brute_force_optimum_uses_prefix_highlighting(seed):
    """Theorem 2, empirically: among all brute-force optima there is one
    whose every plot highlights a probability-prefix of its bars."""
    problem = tiny_problem(4, width=620, seed=seed)
    best_cost = None
    optima = []
    for multiplot in enumerate_multiplots(problem):
        cost = problem.evaluate(multiplot)
        if best_cost is None or cost < best_cost - 1e-9:
            best_cost = cost
            optima = [multiplot]
        elif abs(cost - best_cost) <= 1e-9:
            optima.append(multiplot)

    def is_prefix_highlighted(multiplot: Multiplot) -> bool:
        for plot in multiplot.plots():
            ordered = sorted(plot.bars, key=lambda b: -b.probability)
            seen_plain = False
            for bar in ordered:
                if not bar.highlighted:
                    seen_plain = True
                elif seen_plain:
                    return False
        return True

    assert any(is_prefix_highlighted(mp) for mp in optima)


@pytest.mark.parametrize("seed", [5, 6])
def test_greedy_within_brute_force_bound(seed):
    """The greedy's savings reach >= 60% of the brute-force optimum on
    these tiny instances (empirically it is usually optimal)."""
    from repro.core.greedy import GreedySolver
    problem = tiny_problem(4, width=620, seed=seed)
    brute_cost = min(problem.evaluate(mp)
                     for mp in enumerate_multiplots(problem))
    greedy_cost = GreedySolver().solve(problem).expected_cost
    miss = problem.cost_model.miss_cost
    optimal_savings = miss - brute_cost
    greedy_savings = miss - greedy_cost
    if optimal_savings > 1e-6:
        assert greedy_savings >= 0.6 * optimal_savings
