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
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.cost_model import UserCostModel
from repro.core.ilp import IlpSolver, ProcessingGroup
from repro.core.digest import top_mass
from repro.core.ilp.rowsearch import _RowSearch
from repro.core.ilp.translate import _Formulation, _templates_and_tuples
from repro.core.model import Bar, Multiplot, Plot, ScreenGeometry
from repro.core.problem import MultiplotSelectionProblem
from tests.core.digest_oracle import queries_by_template
from tests.core.helpers import candidate


def enumerate_multiplots(problem: MultiplotSelectionProblem,
                         max_plots: int = 2):
    """Yield every feasible multiplot with ``<= max_plots`` plots in any
    rows, any query subset per plot, any highlight pattern."""
    geometry = problem.geometry
    groups = queries_by_template(problem)

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
                 num_rows: int = 1) -> MultiplotSelectionProblem:
    import numpy as np
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=num_candidates)
    raw /= raw.sum()
    candidates = tuple(candidate(i, float(p)) for i, p in enumerate(raw))
    return MultiplotSelectionProblem(
        candidates,
        geometry=ScreenGeometry(width_pixels=width, num_rows=num_rows),
        cost_model=UserCostModel(bar_cost=300.0, plot_cost=1500.0,
                                 miss_cost=20_000.0))


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
    template = next(t for t, members in queries_by_template(problem).items()
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
    """Whatever the cutoff, the MILP proves the brute-force optimum, and
    the model objective is the cost of the multiplot it extracts."""
    problem, brute_cost, optimum = brute_force(num_rows, width, seed)
    given = {"greedy seed": None, "weak": weak_incumbent(problem),
             "optimal": optimum}[incumbent]
    if given is not None:
        assert problem.is_feasible(given)
    solution = IlpSolver(backend=backend, timeout_seconds=None)._solve_milp(
        problem, incumbent=given)
    assert solution.optimal and not solution.timed_out
    assert problem.is_feasible(solution.multiplot)
    assert solution.expected_cost == pytest.approx(brute_cost, rel=1e-6)
    assert solution.objective == pytest.approx(
        problem.evaluate(solution.multiplot), rel=1e-9)
    if incumbent == "optimal":
        assert solution.from_incumbent


@pytest.mark.parametrize("incumbent", ["greedy seed", "weak", "optimal"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_row_search_matches_brute_force(seed, incumbent):
    """On one row no model is built: whatever the cutoff, the search
    proves the brute-force optimum, and its objective is the cost of the
    multiplot it returns."""
    problem, brute_cost, optimum = brute_force(1, 620, seed)
    given = {"greedy seed": None, "weak": weak_incumbent(problem),
             "optimal": optimum}[incumbent]
    solution = IlpSolver(timeout_seconds=None).solve(problem,
                                                     incumbent=given)
    assert solution.num_variables == 0
    assert solution.optimal and not solution.timed_out
    assert solution.open_bound == 0.0
    assert problem.is_feasible(solution.multiplot)
    assert solution.expected_cost == pytest.approx(brute_cost, rel=1e-6)
    assert solution.objective == pytest.approx(
        problem.evaluate(solution.multiplot), rel=1e-9)
    if incumbent == "weak":
        assert not solution.from_incumbent and solution.assignments >= 1
    if incumbent == "optimal":
        assert solution.from_incumbent


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_subset_bounds_hold_for_every_multiplot(seed):
    """Every multiplot costs at least the bound of its (template set,
    count tuple) pair, and at least the extension bound of each prefix
    of its template set: what makes the search's cuts sound."""
    problem, _, _ = brute_force(1, 620, seed)
    template_ids, tuples = _templates_and_tuples(
        problem, prune_templates=False, cutoff=None)
    templates = [problem.digest.templates[t] for t in template_ids]
    tuple_index = {(t.plots, t.red_plots, t.bars, t.red_bars): k
                   for k, t in enumerate(tuples)}
    search = _RowSearch(problem, template_ids, tuples, cutoff=math.inf,
                        rel_gap=0.0, deadline=None)
    checked = 0
    for multiplot in enumerate_multiplots(problem):
        plots = sorted(templates.index(plot.template)
                       for plot in multiplot.plots())
        if not plots or len(set(plots)) < len(plots):
            continue  # one plot per template is all the search builds
        cost = problem.evaluate(multiplot)
        index = np.array([tuple_index[
            (multiplot.num_plots, multiplot.num_plots_with_highlight,
             multiplot.num_bars, multiplot.num_highlighted_bars)]])
        for level in range(1, len(plots) + 1):
            sets = np.array([plots[:level]])
            widths = search.base[sets].sum(axis=1)
            unions = search.member[sets].any(axis=1)
            top = top_mass(unions * search.p)
            if level == len(plots):
                bound = search._pair_bounds(sets, widths, top,
                                            unions.sum(axis=1), index)[0, 0]
            else:
                bound = search._extension_bounds(sets, widths, unions, top,
                                                 index, level)[0]
            assert bound <= cost + 1e-9
        checked += 1
    assert checked > 100


def interrupted_search(problem: MultiplotSelectionProblem,
                       stop_after: int):
    """The one-row search from the empty multiplot's cost, its deadline
    passing once *stop_after* assignments are solved."""
    template_ids, tuples = _templates_and_tuples(
        problem, prune_templates=True, cutoff=None)

    class Interrupted(_RowSearch):
        def _expired(self) -> bool:
            return self.assignments >= stop_after

    return Interrupted(problem, template_ids, tuples,
                       cutoff=problem.evaluate(Multiplot.empty(1)),
                       rel_gap=1e-6, deadline=None).run()


def assert_certified(problem, found, optimum_cost: float) -> None:
    """A feasible plan costing its objective, and the optimum no lower
    than the lesser of that cost and the open bound."""
    served = found.multiplot or Multiplot.empty(1)
    assert problem.is_feasible(served)
    assert found.cost == pytest.approx(problem.evaluate(served), rel=1e-9)
    if found.timed_out:
        assert found.open_bound > 0.0
        assert min(found.cost, found.open_bound) <= optimum_cost + 1e-9
    else:
        assert found.cost == pytest.approx(optimum_cost, rel=1e-6)


@pytest.mark.parametrize("stop_after", [0, 1])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_interrupted_search_certifies_its_gap(seed, stop_after):
    """Out of time before or after its first assignment, the search
    serves a feasible plan and a valid open bound."""
    problem, brute_cost, _ = brute_force(1, 620, seed)
    assert_certified(problem, interrupted_search(problem, stop_after),
                     brute_cost)


def test_search_interrupted_mid_walk_certifies_its_gap(small_problem):
    """A wide screen leaves pairs unsearched after the first assignment:
    the open bound then covers them and every deeper level."""
    problem = replace(small_problem,
                      geometry=ScreenGeometry(width_pixels=1920))
    found = interrupted_search(problem, stop_after=1)
    assert found.timed_out and found.assignments == 1
    optimum = IlpSolver(timeout_seconds=None)._solve_milp(problem)
    assert_certified(problem, found, optimum.expected_cost)


@pytest.mark.parametrize("backend", ["highs", "bnb"])
def test_processing_budget_matches_brute_force(backend):
    """The uncut path: with processing groups no incumbent or greedy
    seed applies, and the budget excludes the unconstrained optimum."""
    costs = (4.0, 3.0, 2.0, 1.0)
    problem = tiny_problem(4, width=620, seed=0)
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
        problem, processing_groups=groups, processing_budget=5.0,
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
