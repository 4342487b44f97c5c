"""The per-call reference oracle for the problem digest.

Production planners read one :class:`~repro.core.digest.ProblemDigest`
per problem: templates numbered once, titles rendered once, count tuples
cut as arrays.  The reference it must match bit for bit is the plainest
possible computation, redone on every call: templates grouped in a
string-keyed dict, widths and capacities looked up through
:class:`~repro.core.model.ScreenGeometry` (which renders the title each
time), dominated templates pruned with frozensets, and every count tuple
built as an object before any is cut.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.problem import MultiplotSelectionProblem
from repro.nlq.candidates import CandidateQuery
from repro.nlq.templates import QueryTemplate, templates_of


def queries_by_template(problem: MultiplotSelectionProblem,
                        ) -> dict[QueryTemplate, list[CandidateQuery]]:
    """Template -> candidates instantiating it, most probable first (ties
    by SQL text), templates in order of first appearance.

    This is the grouping step of Algorithm 2.
    """
    ranked = sorted(problem.candidates,
                    key=lambda c: (-c.probability, c.query.to_sql()))
    rank = {candidate.query: index
            for index, candidate in enumerate(ranked)}
    groups: dict[QueryTemplate, list[CandidateQuery]] = {}
    for candidate in problem.candidates:
        for template in templates_of(candidate.query):
            groups.setdefault(template, []).append(candidate)
    for members in groups.values():
        members.sort(key=lambda c: rank[c.query])
    return groups


def prune_dominated_templates(
        problem: MultiplotSelectionProblem,
) -> list[tuple[QueryTemplate, list[int]]]:
    """Templates with their member candidate indices, dominated ones removed.

    Template B dominates A when B's member set is a superset of A's and
    B's base width does not exceed A's.  Members come by descending
    probability, ties by candidate index.
    """
    geometry = problem.geometry
    candidate_index = {c.query: i for i, c in enumerate(problem.candidates)}
    entries: list[tuple[QueryTemplate, frozenset[int], float]] = []
    for template, members in queries_by_template(problem).items():
        if geometry.max_bars(template) <= 0:
            continue
        indices = frozenset(candidate_index[m.query] for m in members)
        entries.append((template, indices,
                        geometry.plot_base_units(template)))
    # Deterministic order: larger member sets and narrower widths first.
    entries.sort(key=lambda e: (-len(e[1]), e[2], e[0].title()))
    kept: list[tuple[QueryTemplate, frozenset[int], float]] = []
    for template, members, width in entries:
        dominated = any(members <= k_members and k_width <= width
                        for _, k_members, k_width in kept)
        if not dominated:
            kept.append((template, members, width))
    ordered_members = []
    probabilities = [c.probability for c in problem.candidates]
    for template, members, _ in kept:
        ordered = sorted(members,
                         key=lambda k: (-probabilities[k], k))
        ordered_members.append((template, ordered))
    return ordered_members


def usable_templates(problem: MultiplotSelectionProblem,
                     prune_templates: bool,
                     ) -> list[tuple[QueryTemplate, list[int]]]:
    """The templates a plot may use, with member candidate indices: every
    one that fits a bar (members in rank order), or with
    *prune_templates* the undominated ones."""
    if prune_templates:
        return prune_dominated_templates(problem)
    candidate_index = {c.query: i for i, c in enumerate(problem.candidates)}
    return [(template, [candidate_index[m.query] for m in members])
            for template, members in queries_by_template(problem).items()
            if problem.geometry.max_bars(template) > 0]


def plot_shapes(problem: MultiplotSelectionProblem,
                templates: list[tuple[QueryTemplate, list[int]]],
                ) -> list[tuple[float, int, list[float]]]:
    """Per template: base width, bar capacity and member probabilities
    (descending), as :func:`count_tuples` takes them."""
    geometry = problem.geometry
    probabilities = [c.probability for c in problem.candidates]
    return [(geometry.plot_base_units(template),
             geometry.max_bars(template),
             [probabilities[k] for k in members])
            for template, members in templates]


@dataclass(frozen=True)
class CountTuple:
    """One combination of the counts the reading costs depend on."""

    plots: int
    red_plots: int
    bars: int
    red_bars: int
    d_red: float
    d_visible: float
    red_mass: float
    shown_mass: float
    bound: float


def count_tuples(problem: MultiplotSelectionProblem,
                 shapes: list[tuple[float, int, list[float]]],
                 ) -> list[CountTuple]:
    """Every count tuple a multiplot can have, given each template's
    base width, bar capacity and member probabilities (descending),
    each one built as an object."""
    geometry = problem.geometry
    cost_model = problem.cost_model
    d_m = cost_model.miss_cost
    num_rows = geometry.num_rows
    width = geometry.width_units
    top = [0.0, *itertools.accumulate(sorted(
        (c.probability for c in problem.candidates), reverse=True))]
    chunks = sorted((sum(members[c * capacity:(c + 1) * capacity])
                     for _, capacity, members in shapes
                     for c in range(num_rows)), reverse=True)
    plot_mass = [0.0, *itertools.accumulate(chunks)]
    widths = sorted(base for base, _, _ in shapes)
    per_row = sum(1 for used in itertools.accumulate(
        w + 1.0 for w in widths) if used <= width + 1e-9)
    widths = sorted(widths * num_rows)[:per_row * num_rows]
    tuples = [CountTuple(0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, d_m)]
    base = 0.0
    for plots, plot_width in enumerate(widths, start=1):
        base += plot_width
        max_bars = min(len(problem.candidates),
                       int(num_rows * width - base + 1e-9))
        if max_bars < plots:
            break
        for bars in range(plots, max_bars + 1):
            shown_mass = min(top[bars], plot_mass[plots])
            for red_plots in range(plots + 1):
                red_bars_range = (
                    range(red_plots, bars - (plots - red_plots) + 1)
                    if red_plots else range(1))
                for red_bars in red_bars_range:
                    red_mass = min(top[red_bars], plot_mass[red_plots])
                    d_red = cost_model.d_red(red_bars, red_plots)
                    d_visible = cost_model.d_visible(bars, red_bars, plots,
                                                     red_plots)
                    bound = (d_m + min(d_red - d_m, 0.0) * red_mass
                             + min(d_visible - d_m, 0.0)
                             * (shown_mass - red_mass))
                    tuples.append(CountTuple(
                        plots, red_plots, bars, red_bars, d_red, d_visible,
                        red_mass, shown_mass, bound))
    return tuples


def cut_tuples(problem: MultiplotSelectionProblem, prune_templates: bool,
               cutoff: float | None) -> list[CountTuple]:
    """The count tuples over the usable templates whose bound is below
    ``cutoff * (1 - 1e-6)`` (all of them without a cutoff)."""
    shapes = plot_shapes(problem, usable_templates(problem, prune_templates))
    return [t for t in count_tuples(problem, shapes)
            if cutoff is None or t.bound < cutoff * (1 - 1e-6)]
