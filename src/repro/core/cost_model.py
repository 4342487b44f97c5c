"""The Section 4 user disambiguation time model.

The model distinguishes three cases for the correct query: highlighted in
red, visualized but not highlighted, or missing.  With ``b``/``b_R`` total
and red bars, ``p``/``p_R`` plots and plots containing a red bar, and
per-bar/per-plot reading costs ``c_B``/``c_P``::

    D_R = b_R * c_B / 2 + p_R * c_P / 2
    D_V = 2 * D_R + (b - b_R) * c_B / 2 + (p - p_R) * c_P / 2
    D_M = (large constant: the user must re-ask the query)

    E[cost] = r_R * D_R + r_V * D_V + r_M * D_M

where ``r_R``/``r_V``/``r_M`` are the probabilities that the correct
query's bar is red, merely shown, or absent.  The default constants are
inferred from the (simulated) user study of Section 4.1 — see
:mod:`repro.users.study` for the calibration procedure.  Units are
milliseconds of estimated user time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.model import Multiplot
from repro.errors import PlanningError
from repro.nlq.candidates import CandidateQuery

#: Default model constants (milliseconds). ``DEFAULT_MISS_COST`` reflects the
#: overhead of re-asking a voice query and waiting for new results.
DEFAULT_BAR_COST_MS = 400.0
DEFAULT_PLOT_COST_MS = 1800.0
DEFAULT_MISS_COST_MS = 30_000.0


@dataclass(frozen=True)
class CostBreakdown:
    """All intermediate quantities of one cost evaluation (for tests and
    EXPLAIN-style debugging of planner decisions)."""

    r_red: float
    r_visible: float
    r_missing: float
    d_red: float
    d_visible: float
    d_missing: float

    @property
    def expected_cost(self) -> float:
        return (self.r_red * self.d_red
                + self.r_visible * self.d_visible
                + self.r_missing * self.d_missing)


@dataclass(frozen=True)
class UserCostModel:
    """Parameterised disambiguation-time model (Section 4.2)."""

    bar_cost: float = DEFAULT_BAR_COST_MS
    plot_cost: float = DEFAULT_PLOT_COST_MS
    miss_cost: float = DEFAULT_MISS_COST_MS

    def __post_init__(self) -> None:
        if self.bar_cost < 0 or self.plot_cost < 0:
            raise PlanningError("reading costs must be non-negative")
        if self.miss_cost <= 0:
            raise PlanningError("miss cost must be positive")
        # Assumption 1 of the paper (miss dominates reading) is checked per
        # multiplot in `breakdown`, since D_R/D_V depend on the multiplot.

    # ------------------------------------------------------------------
    # The three case costs
    # ------------------------------------------------------------------

    def d_red(self, num_red_bars: int, num_red_plots: int) -> float:
        """Expected time when the correct result is highlighted."""
        return (num_red_bars * self.bar_cost / 2.0
                + num_red_plots * self.plot_cost / 2.0)

    def d_visible(self, num_bars: int, num_red_bars: int,
                  num_plots: int, num_red_plots: int) -> float:
        """Expected time when the correct result is shown, not highlighted:
        all red bars are read first, then half of the remainder."""
        return (2.0 * self.d_red(num_red_bars, num_red_plots)
                + (num_bars - num_red_bars) * self.bar_cost / 2.0
                + (num_plots - num_red_plots) * self.plot_cost / 2.0)

    # ------------------------------------------------------------------
    # Expected cost of a multiplot
    # ------------------------------------------------------------------

    def breakdown(self, multiplot: Multiplot,
                  candidates: Iterable[CandidateQuery]) -> CostBreakdown:
        """Probabilities and case costs for *multiplot* over *candidates*.

        Candidate probabilities need not sum to one: any residual mass is
        treated as "the correct query is none of the candidates", i.e. a
        guaranteed miss, which penalises empty multiplots correctly.
        """
        # Each shown query's first bar (what ``multiplot.bar_for`` finds).
        first_bars = {}
        for plot in multiplot.plots():
            for bar in plot.bars:
                first_bars.setdefault(bar.query, bar)
        r_red = 0.0
        r_visible = 0.0
        total = 0.0
        for candidate in candidates:
            total += candidate.probability
            bar = first_bars.get(candidate.query)
            if bar is None:
                continue
            if bar.highlighted:
                r_red += candidate.probability
            else:
                r_visible += candidate.probability
        r_missing = max(0.0, total - r_red - r_visible) + max(0.0,
                                                              1.0 - total)
        b = multiplot.num_bars
        b_r = multiplot.num_highlighted_bars
        p = multiplot.num_plots
        p_r = multiplot.num_plots_with_highlight
        return CostBreakdown(
            r_red=r_red,
            r_visible=r_visible,
            r_missing=r_missing,
            d_red=self.d_red(b_r, p_r),
            d_visible=self.d_visible(b, b_r, p, p_r),
            d_missing=self.miss_cost,
        )

    def expected_cost(self, multiplot: Multiplot,
                      candidates: Iterable[CandidateQuery]) -> float:
        """E[disambiguation time] in milliseconds (the planning objective)."""
        return self.breakdown(multiplot, candidates).expected_cost

    def cost_savings(self, multiplot: Multiplot,
                     candidates: Iterable[CandidateQuery]) -> float:
        """Definition 6: cost of the empty multiplot minus this one's.

        The empty multiplot misses every candidate, so its cost is exactly
        ``miss_cost``; savings are what the submodular greedy maximises.
        """
        candidates = list(candidates)
        return self.miss_cost - self.expected_cost(multiplot, candidates)
