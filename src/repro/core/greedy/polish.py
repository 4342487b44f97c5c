"""The final cleanup step of Algorithm 1 ("Finalize").

Removes results that appear in multiple plots, keeping the occurrence that
contributes most (a highlighted bar beats an unhighlighted one; ties go to
the earlier plot in row-major order), then refills each vacated slot with
the most likely candidate query that matches the plot's template and is not
yet displayed anywhere.
"""

from __future__ import annotations

from repro.core.model import Bar, Multiplot, Plot
from repro.core.problem import MultiplotSelectionProblem
from repro.sqldb.query import AggregateQuery


def polish(problem: MultiplotSelectionProblem,
           multiplot: Multiplot) -> Multiplot:
    """Deduplicate results across plots and refill the gaps."""
    keep = _choose_occurrences(multiplot)
    displayed: set[AggregateQuery] = set(keep)

    position = 0
    new_rows: list[tuple[Plot, ...]] = []
    for row in multiplot.rows:
        new_row: list[Plot] = []
        for plot in row:
            kept_bars = [bar for bar in plot.bars
                         if keep.get(bar.query) == position]
            position += 1
            removed = plot.num_bars - len(kept_bars)
            if removed:
                kept_bars.extend(
                    _refill(problem, plot, removed, displayed))
            if kept_bars:
                new_row.append(Plot(plot.template, tuple(kept_bars)))
        new_rows.append(tuple(new_row))
    return Multiplot(tuple(new_rows))


def _choose_occurrences(multiplot: Multiplot) -> dict[AggregateQuery, int]:
    """Best plot position (row-major) for each displayed query."""
    best: dict[AggregateQuery, tuple[int, int]] = {}
    for index, plot in enumerate(multiplot.plots()):
        for bar in plot.bars:
            # Rank: highlighted occurrences win, then earlier plots.
            rank = (0 if bar.highlighted else 1, index)
            if bar.query not in best or rank < best[bar.query]:
                best[bar.query] = rank
    return {query: rank[1] for query, rank in best.items()}


def _refill(problem: MultiplotSelectionProblem, plot: Plot, slots: int,
            displayed: set[AggregateQuery]) -> list[Bar]:
    """Up to *slots* new bars for *plot* from undisplayed candidates,
    most probable first."""
    digest = problem.digest
    template_id = digest.template_ids.get(plot.template)
    members = () if template_id is None else digest.members[template_id]
    additions: list[Bar] = []
    for k in members:
        if len(additions) == slots:
            break
        member = problem.candidates[k]
        if member.query in displayed:
            continue
        additions.append(Bar(
            query=member.query,
            probability=member.probability,
            label=plot.template.x_label(member.query),
            highlighted=False,
        ))
        displayed.add(member.query)
    return additions
