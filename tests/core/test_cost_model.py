"""Tests for the Section 4 user disambiguation time model."""

import pytest

from repro.core.cost_model import UserCostModel
from repro.core.model import Multiplot
from repro.errors import PlanningError
from tests.core.helpers import candidate, multiplot, plot

MODEL = UserCostModel(bar_cost=100.0, plot_cost=500.0, miss_cost=10_000.0)


class TestCaseCosts:
    def test_d_red_formula(self):
        # D_R = b_R * c_B / 2 + p_R * c_P / 2
        assert MODEL.d_red(4, 2) == 4 * 100 / 2 + 2 * 500 / 2

    def test_d_visible_formula(self):
        # D_V = 2 D_R + (b - b_R) c_B / 2 + (p - p_R) c_P / 2
        d_r = MODEL.d_red(2, 1)
        expected = 2 * d_r + (6 - 2) * 100 / 2 + (3 - 1) * 500 / 2
        assert MODEL.d_visible(6, 2, 3, 1) == expected

    def test_d_visible_at_least_d_red(self):
        for b, b_r, p, p_r in [(6, 2, 3, 1), (1, 1, 1, 1), (10, 0, 4, 0)]:
            assert MODEL.d_visible(b, b_r, p, p_r) >= MODEL.d_red(b_r, p_r)

    def test_validation(self):
        with pytest.raises(PlanningError):
            UserCostModel(bar_cost=-1)
        with pytest.raises(PlanningError):
            UserCostModel(miss_cost=0)


class TestExpectedCost:
    def test_empty_multiplot_costs_miss(self):
        candidates = [candidate(0, 0.6), candidate(1, 0.4)]
        cost = MODEL.expected_cost(Multiplot.empty(1), candidates)
        assert cost == pytest.approx(MODEL.miss_cost)

    def test_all_highlighted_single_plot(self):
        candidates = [candidate(0, 0.5), candidate(1, 0.5)]
        mp = multiplot([[plot([0, 1], {0, 1})]])
        # r_R = 1: expected cost = D_R with b_R=2, p_R=1.
        assert MODEL.expected_cost(mp, candidates) == pytest.approx(
            MODEL.d_red(2, 1))

    def test_mixed_cases_sum(self):
        candidates = [candidate(0, 0.5), candidate(1, 0.3), candidate(2, 0.2)]
        mp = multiplot([[plot([0, 1], {0})]])  # 0 red, 1 plain, 2 missing
        d_r = MODEL.d_red(1, 1)
        d_v = MODEL.d_visible(2, 1, 1, 1)
        expected = 0.5 * d_r + 0.3 * d_v + 0.2 * MODEL.miss_cost
        assert MODEL.expected_cost(mp, candidates) == pytest.approx(expected)

    def test_query_shown_twice_counts_at_its_first_bar(self):
        """A duplicate (before polishing) counts where ``bar_for`` finds
        it: the first plot in row-major order, here plain."""
        candidates = [candidate(0, 0.5), candidate(1, 0.3)]
        mp = multiplot([[plot([0, 1])], [plot([1], {1})]])
        breakdown = MODEL.breakdown(mp, candidates)
        assert not mp.bar_for(candidates[1].query).highlighted
        assert breakdown.r_red == 0.0
        assert breakdown.r_visible == 0.5 + 0.3

    def test_residual_probability_counts_as_miss(self):
        candidates = [candidate(0, 0.5)]  # half the mass is unexplained
        mp = multiplot([[plot([0], {0})]])
        breakdown = MODEL.breakdown(mp, candidates)
        assert breakdown.r_missing == pytest.approx(0.5)

    def test_showing_likely_result_beats_empty(self):
        candidates = [candidate(0, 0.9), candidate(1, 0.1)]
        shown = multiplot([[plot([0], {0})]])
        assert MODEL.expected_cost(shown, candidates) < \
            MODEL.expected_cost(Multiplot.empty(1), candidates)

    def test_highlighting_correct_result_helps(self):
        candidates = [candidate(0, 0.9), candidate(1, 0.1)]
        without = multiplot([[plot([0, 1])]])
        with_red = multiplot([[plot([0, 1], {0})]])
        assert MODEL.expected_cost(with_red, candidates) < \
            MODEL.expected_cost(without, candidates)

    def test_highlighting_everything_no_better_than_nothing(self):
        """If every bar is red, red carries no information."""
        candidates = [candidate(i, 0.25) for i in range(4)]
        all_red = multiplot([[plot([0, 1, 2, 3], {0, 1, 2, 3})]])
        no_red = multiplot([[plot([0, 1, 2, 3])]])
        assert MODEL.expected_cost(all_red, candidates) >= \
            MODEL.expected_cost(no_red, candidates) - 1e-9

    def test_useless_extra_plot_hurts(self):
        candidates = [candidate(0, 1.0)]
        lean = multiplot([[plot([0])]])
        bloated = multiplot([[plot([0]), plot([5, 6])]])
        assert MODEL.expected_cost(bloated, candidates) > \
            MODEL.expected_cost(lean, candidates)


class TestCostSavings:
    def test_empty_multiplot_saves_nothing(self):
        candidates = [candidate(0, 1.0)]
        assert MODEL.cost_savings(Multiplot.empty(1),
                                  candidates) == pytest.approx(0.0)

    def test_savings_positive_for_useful_plot(self):
        candidates = [candidate(0, 0.8), candidate(1, 0.2)]
        mp = multiplot([[plot([0, 1], {0})]])
        assert MODEL.cost_savings(mp, candidates) > 0

    def test_savings_monotone_in_coverage(self):
        """Lemma 1: covering more probability cannot reduce savings
        (as long as reading costs stay below the miss cost)."""
        candidates = [candidate(i, 0.2) for i in range(5)]
        small = multiplot([[plot([0, 1])]])
        large = multiplot([[plot([0, 1, 2, 3])]])
        assert MODEL.cost_savings(large, candidates) >= \
            MODEL.cost_savings(small, candidates)


class TestTheorem2Property:
    def test_highlight_prefix_is_optimal(self):
        """Swapping red onto a *more* likely bar never increases cost
        (the exchange argument of Theorem 2)."""
        candidates = [candidate(0, 0.6), candidate(1, 0.3),
                      candidate(2, 0.1)]
        # Highlight the less likely bar 1 vs the more likely bar 0.
        wrong = multiplot([[plot([0, 1, 2], {1})]])
        right = multiplot([[plot([0, 1, 2], {0})]])
        assert MODEL.expected_cost(right, candidates) <= \
            MODEL.expected_cost(wrong, candidates)
