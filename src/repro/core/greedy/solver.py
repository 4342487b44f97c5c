"""Algorithm 1: the greedy multiplot solver façade."""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.greedy.coloring import PlotVersions
from repro.core.greedy.pick_plots import pick_plots
from repro.core.greedy.plot_candidates import plot_candidates
from repro.core.greedy.polish import polish
from repro.core.model import Multiplot
from repro.core.problem import MultiplotSelectionProblem


@dataclass(frozen=True)
class GreedySolution:
    """Output of the greedy solver with timing and cost metadata."""

    multiplot: Multiplot
    expected_cost: float
    elapsed_seconds: float
    num_plot_candidates: int
    num_colored_candidates: int


class GreedySolver:
    """Runs the four-phase greedy pipeline of Section 6.2: plot
    candidates, colored versions, exchange-knapsack plot picking and
    the polish step."""

    def solve(self, problem: MultiplotSelectionProblem) -> GreedySolution:
        start = time.perf_counter()
        uncolored = plot_candidates(problem)
        versions = PlotVersions(problem, uncolored)
        multiplot = polish(problem, pick_plots(problem, versions))
        elapsed = time.perf_counter() - start
        return GreedySolution(
            multiplot=multiplot,
            expected_cost=problem.evaluate(multiplot),
            elapsed_seconds=elapsed,
            num_plot_candidates=len(uncolored),
            num_colored_candidates=len(versions),
        )
