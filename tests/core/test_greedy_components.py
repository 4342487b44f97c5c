"""Tests for the greedy pipeline pieces: Algorithms 2, 3, and submodular
maximization."""

import pytest

from repro.core.greedy.coloring import PlotVersions, color_plot
from repro.core.greedy.plot_candidates import plot_candidates
from repro.core.greedy.submodular import (
    maximize_cardinality,
    maximize_knapsack,
)
from repro.core.model import ScreenGeometry
from repro.core.problem import MultiplotSelectionProblem
from tests.core.helpers import TEMPLATE, candidate


def make_problem(n=6, width=1200, rows=1) -> MultiplotSelectionProblem:
    weights = [2.0 ** -i for i in range(n)]
    total = sum(weights)
    return MultiplotSelectionProblem(
        tuple(candidate(i, w / total) for i, w in enumerate(weights)),
        geometry=ScreenGeometry(width_pixels=width, num_rows=rows))


class TestPlotCandidates:
    def test_prefixes_per_template(self):
        problem = make_problem(n=4)
        candidates = plot_candidates(problem)
        by_template = {}
        for uncolored in candidates:
            by_template.setdefault(uncolored.template, []).append(uncolored)
        # The shared pred_value template groups all 4 queries, so prefixes
        # of sizes 1..4 must exist for it.
        shared = [u for u in candidates if len(u.members) == 4]
        assert shared, "expected a full 4-member plot candidate"
        sizes = sorted(len(u.members)
                       for u in by_template[shared[0].template])
        assert sizes == [1, 2, 3, 4]

    def test_prefixes_are_probability_ordered(self):
        problem = make_problem(n=5)
        for uncolored in plot_candidates(problem):
            probs = [m.probability for m in uncolored.members]
            assert probs == sorted(probs, reverse=True)

    def test_capacity_limits_prefix_size(self):
        problem = make_problem(n=6, width=400)
        capacity = problem.geometry.max_bars(TEMPLATE)
        for uncolored in plot_candidates(problem):
            assert len(uncolored.members) <= max(
                capacity, problem.geometry.max_bars(uncolored.template))

    def test_too_narrow_screen_yields_nothing(self):
        problem = make_problem(n=3, width=80)
        assert plot_candidates(problem) == []

    def test_probability_mass(self):
        problem = make_problem(n=3)
        full = [u for u in plot_candidates(problem)
                if len(u.members) == 3]
        assert full[0].probability_mass == pytest.approx(1.0)


class TestColoring:
    def test_color_plot_prefix(self):
        problem = make_problem(n=4)
        uncolored = [u for u in plot_candidates(problem)
                     if len(u.members) == 4][0]
        plot = color_plot(uncolored, 2)
        assert [bar.highlighted for bar in plot.bars] == [
            True, True, False, False]

    def test_color_zero(self):
        problem = make_problem(n=3)
        uncolored = plot_candidates(problem)[0]
        assert not color_plot(uncolored, 0).has_highlight

    def test_color_out_of_range(self):
        problem = make_problem(n=3)
        uncolored = plot_candidates(problem)[0]
        with pytest.raises(ValueError):
            color_plot(uncolored, len(uncolored.members) + 1)

    def test_add_colors_counts(self):
        problem = make_problem(n=3)
        uncolored = plot_candidates(problem)
        versions = PlotVersions(problem, uncolored)
        expected = sum(len(u.members) + 1 for u in uncolored)
        assert len(versions) == expected

    def test_versions_summarise_their_plots(self):
        """Each version's numbers describe the plot it builds."""
        problem = make_problem(n=5, width=900)
        versions = PlotVersions(problem, plot_candidates(problem))
        queries = [c.query for c in problem.candidates]
        for v in range(len(versions)):
            plot = versions.plot(v)
            assert versions.units[v] == problem.geometry.plot_units(plot)
            assert versions.bars[v] == plot.num_bars
            assert versions.highlighted[v] == plot.num_highlighted
            shown = versions.red[v] + versions.plain[v]
            assert [(queries[i], p) for i, p in shown] == \
                [(bar.query, bar.probability) for bar in plot.bars]
            assert all(plot.bars[i].highlighted
                       for i in range(len(versions.red[v])))

    def test_highlights_most_likely_only(self):
        """Theorem 2: only probability-prefix highlight patterns appear."""
        problem = make_problem(n=5)
        versions = PlotVersions(problem, plot_candidates(problem))
        for plot in map(versions.plot, range(len(versions))):
            flags = [bar.highlighted for bar in plot.bars]
            # once a False appears, no True may follow
            seen_false = False
            for flag in flags:
                if not flag:
                    seen_false = True
                assert not (flag and seen_false)


class TestSubmodularMaximizers:
    def test_cardinality_modular_case_exact(self):
        items = ["a", "b", "c", "d"]
        values = {"a": 5.0, "b": 3.0, "c": 2.0, "d": 1.0}

        def gain(selection):
            return sum(values[i] for i in selection)

        assert set(maximize_cardinality(items, gain, 2)) == {"a", "b"}

    def test_cardinality_zero_limit(self):
        assert maximize_cardinality(["a"], lambda s: len(s), 0) == []

    def test_cardinality_stops_on_no_gain(self):
        def gain(selection):
            return min(len(selection), 1.0)  # only the first item helps

        result = maximize_cardinality(["a", "b", "c"], gain, 3)
        assert len(result) == 1

    def test_cardinality_respects_submodular_coverage(self):
        # Coverage function: item covers a set; greedy achieves >= (1-1/e).
        universe = {"a": {1, 2, 3}, "b": {3, 4}, "c": {5}, "d": {1, 2}}

        def gain(selection):
            covered = set()
            for item in selection:
                covered |= universe[item]
            return float(len(covered))

        result = maximize_cardinality(list(universe), gain, 2)
        assert gain(tuple(result)) == 4.0  # the optimum for two items

    def test_knapsack_respects_budget(self):
        items = ["a", "b", "c"]
        values = {"a": 6.0, "b": 10.0, "c": 12.0}
        item_weights = {"a": [1.0], "b": [2.0], "c": [3.0]}

        def gain(selection):
            return sum(values[i] for i in selection)

        result = maximize_knapsack(items, gain,
                                   lambda i: item_weights[i], [5.0])
        assert sum(item_weights[i][0] for i in result) <= 5.0
        assert gain(tuple(result)) >= 12.0

    def test_knapsack_best_single_fallback(self):
        # One huge item beats many tiny ones; density greedy alone would
        # fill up with tiny items first, the fallback must rescue it.
        items = ["big"] + [f"t{i}" for i in range(5)]
        values = {"big": 100.0, **{f"t{i}": 1.0 for i in range(5)}}
        item_weights = {"big": [10.0],
                        **{f"t{i}": [0.1] for i in range(5)}}

        def gain(selection):
            return sum(values[i] for i in selection)

        result = maximize_knapsack(items, gain,
                                   lambda i: item_weights[i], [10.0])
        assert gain(tuple(result)) >= 100.0

    def test_knapsack_multi_dimensional(self):
        items = ["r0", "r1"]
        item_weights = {"r0": [5.0, 0.0], "r1": [0.0, 5.0]}

        def gain(selection):
            return float(len(selection))

        result = maximize_knapsack(items, gain,
                                   lambda i: item_weights[i], [5.0, 5.0])
        assert set(result) == {"r0", "r1"}

    def test_knapsack_invalid_epsilon(self):
        with pytest.raises(ValueError):
            maximize_knapsack([], lambda s: 0.0, lambda i: [1.0], [1.0],
                              epsilon=0.0)

    def test_knapsack_nothing_positive(self):
        result = maximize_knapsack(["a"], lambda s: -float(len(s)),
                                   lambda i: [1.0], [2.0])
        assert result == []
