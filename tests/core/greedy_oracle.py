"""The plot-object reference oracle for greedy plot picking.

Production picks plots over integer summaries of every colored version
(:mod:`repro.core.greedy.pick_plots`).  The reference it must match bit
for bit is the plainest possible pipeline: every colored version built
as a :class:`Plot`, every move evaluated on a copy of the selection by
rescanning every selected bar.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.greedy.coloring import color_plot
from repro.core.greedy.pick_plots import MAX_EXCHANGE_STEPS
from repro.core.greedy.plot_candidates import UncoloredPlot, plot_candidates
from repro.core.greedy.polish import polish
from repro.core.model import Multiplot, Plot
from repro.core.problem import MultiplotSelectionProblem
from repro.nlq.templates import QueryTemplate


@dataclass(frozen=True)
class PlotRowItem:
    """One plot placed in one row — the item type of Algorithm 4."""

    plot: Plot
    row: int


def add_colors(uncolored_plots: list[UncoloredPlot]) -> list[Plot]:
    """All prefix-highlighted versions of all candidate plots.

    For each uncolored plot with ``n`` bars this emits versions with
    ``0..n`` highlights.
    """
    colored: list[Plot] = []
    for uncolored in uncolored_plots:
        for k in range(0, len(uncolored.members) + 1):
            colored.append(color_plot(uncolored, k))
    return colored


def selection_savings(plots, cost_model) -> float:
    """Cost savings of a plot selection, computed from plot contents.

    Equivalent to ``cost_model.cost_savings(multiplot, candidates)`` when
    no query is shown twice, in O(total bars).  A query shown more than
    once counts its probability at its first occurrence in *plots*
    order (selection order, not row-major).
    """
    r_red = 0.0
    r_visible = 0.0
    bars = 0
    red_bars = 0
    num_plots = 0
    red_plots = 0
    seen: set = set()
    for plot in plots:
        num_plots += 1
        plot_has_red = False
        for bar in plot.bars:
            bars += 1
            if bar.highlighted:
                red_bars += 1
                plot_has_red = True
            if bar.query in seen:
                continue
            seen.add(bar.query)
            if bar.highlighted:
                r_red += bar.probability
            else:
                r_visible += bar.probability
        if plot_has_red:
            red_plots += 1
    d_red = cost_model.d_red(red_bars, red_plots)
    d_visible = cost_model.d_visible(bars, red_bars, num_plots, red_plots)
    r_missing = max(0.0, 1.0 - r_red - r_visible)
    expected = (r_red * d_red + r_visible * d_visible
                + r_missing * cost_model.miss_cost)
    return cost_model.miss_cost - expected


def build_multiplot(items: tuple[PlotRowItem, ...],
                    num_rows: int) -> Multiplot:
    """Assemble selected items into a multiplot (rows keep item order)."""
    rows: list[list[Plot]] = [[] for _ in range(num_rows)]
    for item in items:
        rows[item.row].append(item.plot)
    return Multiplot(tuple(tuple(row) for row in rows))


def pick_plots(problem: MultiplotSelectionProblem,
               colored_plots: list[Plot]) -> Multiplot:
    """Select a feasible subset of *colored_plots* maximizing cost savings."""
    return _exchange_greedy(problem, colored_plots)


def solve(problem: MultiplotSelectionProblem) -> tuple[Multiplot, float]:
    """The whole greedy pipeline: (multiplot, expected cost)."""
    colored = add_colors(plot_candidates(problem))
    multiplot = polish(problem, pick_plots(problem, colored))
    return multiplot, problem.evaluate(multiplot)


def _exchange_greedy(problem: MultiplotSelectionProblem,
                     colored_plots: list[Plot]) -> Multiplot:
    """Best of: density-scored run, raw-gain run, best single item."""
    geometry = problem.geometry
    num_rows = geometry.num_rows

    items: list[PlotRowItem] = []
    for plot in colored_plots:
        if geometry.plot_units(plot) > geometry.width_units:
            continue
        for row in range(num_rows):
            items.append(PlotRowItem(plot, row))

    def savings_of(selection: tuple[PlotRowItem, ...]) -> float:
        return selection_savings((item.plot for item in selection),
                                 problem.cost_model)

    candidates: list[tuple[PlotRowItem, ...]] = [
        _exchange_run(problem, items, by_density=True),
        _exchange_run(problem, items, by_density=False),
    ]
    if items:
        best_single = max(items, key=lambda item: savings_of((item,)))
        candidates.append((best_single,))
    best = max(candidates, key=savings_of, default=())
    return build_multiplot(tuple(best), num_rows)


def _exchange_run(problem: MultiplotSelectionProblem,
                  items: list[PlotRowItem],
                  by_density: bool) -> tuple[PlotRowItem, ...]:
    """One greedy pass with add/replace moves over template slots."""
    geometry = problem.geometry
    num_rows = geometry.num_rows
    width = geometry.width_units

    selected: dict[QueryTemplate, PlotRowItem] = {}
    row_used = [0.0] * num_rows

    def savings(selection: dict[QueryTemplate, PlotRowItem]) -> float:
        return selection_savings(
            (item.plot for item in selection.values()),
            problem.cost_model)

    current = savings(selected)
    for _ in range(MAX_EXCHANGE_STEPS):
        best_move: PlotRowItem | None = None
        best_delta = 0.0
        best_score = 0.0
        for item in items:
            template = item.plot.template
            replaced = selected.get(template)
            if replaced is not None and replaced == item:
                continue
            usage = list(row_used)
            if replaced is not None:
                usage[replaced.row] -= geometry.plot_units(replaced.plot)
            usage[item.row] += geometry.plot_units(item.plot)
            if usage[item.row] > width + 1e-9:
                continue
            tentative = dict(selected)
            tentative[template] = item
            delta = savings(tentative) - current
            if delta <= 1e-9:
                continue
            if replaced is None and by_density:
                score = delta / max(geometry.plot_units(item.plot), 1e-9)
            else:
                score = delta
            if best_move is None or score > best_score:
                best_move = item
                best_delta = delta
                best_score = score
        if best_move is None:
            break
        template = best_move.plot.template
        replaced = selected.get(template)
        if replaced is not None:
            row_used[replaced.row] -= geometry.plot_units(replaced.plot)
        selected[template] = best_move
        row_used[best_move.row] += geometry.plot_units(best_move.plot)
        current += best_delta
    return tuple(selected.values())
