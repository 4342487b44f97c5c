"""Tests for plot picking, polishing and the full greedy solver."""

import pytest

from repro.core.greedy import GreedySolver
from repro.core.greedy.coloring import PlotVersions
from repro.core.greedy.pick_plots import pick_plots, selection_savings
from repro.core.greedy.plot_candidates import plot_candidates
from repro.core.greedy.polish import polish
from repro.core.model import Multiplot, ScreenGeometry
from repro.core.problem import MultiplotSelectionProblem
from repro.nlq.candidates import CandidateQuery
from tests.core import greedy_oracle
from tests.core.helpers import TEMPLATE, TEMPLATE_B, candidate, multiplot, \
    plot, query


def make_problem(n=6, width=1200, rows=1) -> MultiplotSelectionProblem:
    weights = [2.0 ** -i for i in range(n)]
    total = sum(weights)
    return MultiplotSelectionProblem(
        tuple(candidate(i, w / total) for i, w in enumerate(weights)),
        geometry=ScreenGeometry(width_pixels=width, num_rows=rows))


def all_versions(problem) -> PlotVersions:
    return PlotVersions(problem, plot_candidates(problem))


class TestPickPlots:
    def test_result_fits_screen(self):
        problem = make_problem(width=800, rows=2)
        result = pick_plots(problem, all_versions(problem))
        assert problem.geometry.fits(result)

    def test_positive_savings(self):
        problem = make_problem()
        result = pick_plots(problem, all_versions(problem))
        assert problem.cost_model.cost_savings(
            result, problem.candidates) > 0

    def test_no_candidates_empty_multiplot(self):
        problem = make_problem()
        result = pick_plots(problem, PlotVersions(problem, []))
        assert result.num_plots == 0

    def test_one_version_per_template(self):
        problem = make_problem(rows=2)
        result = pick_plots(problem, all_versions(problem))
        templates = [p.template for p in result.plots()]
        assert len(templates) == len(set(templates))

    def test_exchange_upgrades_to_wider_plot(self):
        """Picking must not get stuck on a small prefix version of the
        best template (the exchange-move regression)."""
        problem = make_problem(n=6, width=1200, rows=1)
        result = pick_plots(problem, all_versions(problem))
        # The best single plot shows all six queries; exchange moves must
        # reach at least five bars.
        assert result.num_bars >= 5


class TestPolish:
    def test_removes_duplicates(self):
        problem = make_problem(n=4, width=4000)
        duplicated = multiplot([[plot([0, 1], {0}), plot([1, 2])]])
        cleaned = polish(problem, duplicated)
        assert not cleaned.duplicate_queries()

    def test_prefers_highlighted_occurrence(self):
        problem = make_problem(n=4, width=4000)
        duplicated = multiplot([[plot([1, 2]), plot([1, 3], {1})]])
        cleaned = polish(problem, duplicated)
        assert cleaned.highlights(query(1))

    def test_refills_with_most_likely_unshown(self):
        problem = make_problem(n=6, width=4000)
        # query 1 duplicated; after dedup a slot frees and should be filled
        # with the most likely query not yet displayed (query 3).
        duplicated = multiplot([[plot([0, 1]), plot([1, 2])]])
        cleaned = polish(problem, duplicated)
        shown = cleaned.displayed_queries()
        assert query(3) in shown

    def test_noop_on_clean_multiplot(self):
        problem = make_problem(n=6, width=4000)
        clean = multiplot([[plot([0, 1], {0})]])
        result = polish(problem, clean)
        assert result.displayed_queries() == clean.displayed_queries()
        assert result.num_bars == clean.num_bars

    def test_never_increases_width(self):
        problem = make_problem(n=6, width=4000)
        duplicated = multiplot([[plot([0, 1]), plot([1, 2])]])
        cleaned = polish(problem, duplicated)
        geometry = problem.geometry
        for row_before, row_after in zip(duplicated.rows, cleaned.rows):
            assert geometry.row_units_used(row_after) <= \
                geometry.row_units_used(row_before) + 1e-9


class TestGreedySolver:
    def test_solution_feasible(self):
        problem = make_problem(rows=2, width=900)
        solution = GreedySolver().solve(problem)
        assert problem.is_feasible(solution.multiplot)

    def test_beats_empty_multiplot(self):
        problem = make_problem()
        solution = GreedySolver().solve(problem)
        empty_cost = problem.evaluate(Multiplot.empty(1))
        assert solution.expected_cost < empty_cost

    def test_most_likely_query_shown(self):
        problem = make_problem()
        solution = GreedySolver().solve(problem)
        assert solution.multiplot.shows(problem.candidates[0].query)

    def test_reports_candidate_counts(self):
        problem = make_problem()
        solution = GreedySolver().solve(problem)
        assert solution.num_plot_candidates > 0
        assert solution.num_colored_candidates > \
            solution.num_plot_candidates

    def test_deterministic(self):
        problem = make_problem()
        first = GreedySolver().solve(problem)
        second = GreedySolver().solve(problem)
        assert first.expected_cost == second.expected_cost

    def test_more_rows_never_hurt(self, nyc_candidates):
        one = MultiplotSelectionProblem(
            nyc_candidates, geometry=ScreenGeometry(width_pixels=900,
                                                    num_rows=1))
        two = MultiplotSelectionProblem(
            nyc_candidates, geometry=ScreenGeometry(width_pixels=900,
                                                    num_rows=2))
        assert GreedySolver().solve(two).expected_cost <= \
            GreedySolver().solve(one).expected_cost + 1e-6

    def test_realistic_instance_near_ilp(self, small_problem):
        from repro.core.ilp import IlpSolver
        greedy = GreedySolver().solve(small_problem)
        ilp = IlpSolver(timeout_seconds=10.0).solve(small_problem)
        if ilp.optimal:
            assert greedy.expected_cost <= ilp.expected_cost * 1.25


class TestSelectionSavings:
    """The O(bars) savings evaluations must agree with the cost model
    whenever bar probabilities equal candidate probabilities — which the
    coloring pipeline guarantees.  The oracle's plot-based evaluation is
    checked as well: it is the reference the differential suite uses."""

    @staticmethod
    def _plot_with_candidate_probs(problem, indices, highlighted):
        from repro.core.model import Bar, Plot
        bars = tuple(
            Bar(query=problem.candidates[i].query,
                probability=problem.candidates[i].probability,
                label=f"value_{i:02d}",
                highlighted=i in highlighted)
            for i in indices)
        return Plot(TEMPLATE, bars)

    def test_matches_cost_model_without_duplicates(self):
        problem = make_problem(n=6, width=4000)
        plots = [
            self._plot_with_candidate_probs(problem, [0, 1], {0}),
            self._plot_with_candidate_probs(problem, [2, 3, 4], set()),
        ]
        mp = multiplot([plots])
        slow = problem.cost_model.cost_savings(mp, problem.candidates)
        fast = greedy_oracle.selection_savings(plots, problem.cost_model)
        assert fast == pytest.approx(slow)

    def test_counts_duplicate_probability_once(self):
        problem = make_problem(n=4, width=4000)
        plots = [
            self._plot_with_candidate_probs(problem, [0, 1], set()),
            self._plot_with_candidate_probs(problem, [1, 2], set()),
        ]
        mp = multiplot([plots])
        slow = problem.cost_model.cost_savings(mp, problem.candidates)
        fast = greedy_oracle.selection_savings(plots, problem.cost_model)
        assert fast == pytest.approx(slow)

    def test_matches_on_full_greedy_pipeline(self, nyc_candidates):
        """End to end: the fast path and the cost model agree on the
        plots the real pipeline produces."""
        problem = MultiplotSelectionProblem(
            nyc_candidates,
            geometry=ScreenGeometry(width_pixels=1125, num_rows=2))
        picked = pick_plots(problem, all_versions(problem))
        slow = problem.cost_model.cost_savings(picked, problem.candidates)
        fast = greedy_oracle.selection_savings(
            list(picked.plots()), problem.cost_model)
        assert fast == pytest.approx(slow)

    def test_empty_selection_saves_nothing(self):
        problem = make_problem()
        assert greedy_oracle.selection_savings(
            [], problem.cost_model) == pytest.approx(0.0)
        assert selection_savings(all_versions(problem), [],
                                 problem.cost_model) == pytest.approx(0.0)

    def test_versions_match_cost_model(self, nyc_candidates):
        """Every single version, and every pair of versions sharing no
        candidate, is costed as the cost model costs its multiplot."""
        problem = MultiplotSelectionProblem(
            nyc_candidates, geometry=ScreenGeometry(width_pixels=1125))
        versions = all_versions(problem)
        model = problem.cost_model
        for v in range(len(versions)):
            single = Multiplot(((versions.plot(v),),))
            assert selection_savings(versions, [v], model) == \
                pytest.approx(model.cost_savings(single, nyc_candidates))
        shown = [{i for i, _ in versions.red[v] + versions.plain[v]}
                 for v in range(len(versions))]
        for v, w in [(0, w) for w in range(len(versions))
                     if not shown[0] & shown[w]]:
            pair = Multiplot(((versions.plot(v), versions.plot(w)),))
            assert selection_savings(versions, [v, w], model) == \
                pytest.approx(model.cost_savings(pair, nyc_candidates))

    def test_duplicate_counts_at_first_selected_occurrence(self):
        """A candidate two selected versions show counts once, in the
        first version of the selection (whatever the rows say)."""
        shared = query(0, TEMPLATE)
        problem = MultiplotSelectionProblem(
            (CandidateQuery(shared, 0.5),
             candidate(1, 0.3, TEMPLATE_B)),
            geometry=ScreenGeometry(width_pixels=4000, num_rows=2))
        versions = all_versions(problem)
        # A plain version showing only the shared query, and a version
        # highlighting it.
        plain = next(v for v in range(len(versions))
                     if versions.plain[v] == ((0, 0.5),)
                     and not versions.red[v])
        red = next(v for v in range(len(versions))
                   if versions.red[v] and versions.red[v][0][0] == 0
                   and versions.template[v] != versions.template[plain])
        model = problem.cost_model
        bars = versions.bars[plain] + versions.bars[red]
        red_bars = versions.highlighted[red]
        red_mass = sum(p for i, p in versions.red[red] if i != 0)
        plain_mass = sum(p for _, p in versions.plain[red])
        for first, second, r_red, r_visible in (
                (plain, red, red_mass, 0.5 + plain_mass),
                (red, plain, 0.5 + red_mass, plain_mass)):
            d_red = model.d_red(red_bars, 1)
            d_visible = model.d_visible(bars, red_bars, 2, 1)
            expected = (r_red * d_red + r_visible * d_visible
                        + max(0.0, 1.0 - r_red - r_visible)
                        * model.miss_cost)
            assert selection_savings(versions, [first, second], model) \
                == pytest.approx(model.miss_cost - expected)


class TestApproximationQuality:
    def test_empirical_theorem4_ratio(self, nyc_db):
        """Theorem 4 gives the greedy a constant-factor savings guarantee
        relative to the optimum; empirically it should be far better.
        We require >= 70% of the ILP's cost savings on every random
        instance the ILP solves to optimality (observed: ~100%)."""
        from repro.core.ilp import IlpSolver
        from repro.datasets import WorkloadGenerator
        from repro.nlq.candidates import CandidateGenerator

        workload = WorkloadGenerator(nyc_db.table("nyc311"), seed=11)
        generator = CandidateGenerator(nyc_db, "nyc311")
        geometry = ScreenGeometry(width_pixels=1125, num_rows=1)
        checked = 0
        for _ in range(5):
            target = workload.random_query(max_predicates=3)
            candidates = tuple(generator.candidates(target, 15))
            problem = MultiplotSelectionProblem(candidates,
                                                geometry=geometry)
            ilp = IlpSolver(timeout_seconds=10.0).solve(problem)
            if not ilp.optimal:
                continue
            greedy = GreedySolver().solve(problem)
            miss = problem.cost_model.miss_cost
            optimal_savings = miss - ilp.expected_cost
            greedy_savings = miss - greedy.expected_cost
            if optimal_savings > 1e-6:
                assert greedy_savings >= 0.7 * optimal_savings
                checked += 1
        assert checked >= 3  # the ILP must have solved most instances
