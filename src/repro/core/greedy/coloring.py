"""Algorithm 3: colored plot versions.

Theorem 2 shows that some optimal multiplot highlights, within each plot,
exactly the *k* most likely queries for some *k*.  So instead of trying all
``2^bars`` highlight patterns we only generate the ``bars + 1`` probability
prefixes per uncolored plot.

Plot picking only needs each version's width, bar counts and the
candidates it shows, so :class:`PlotVersions` keeps every version as
those numbers; :func:`color_plot` builds the :class:`Plot` of a version
once it has been picked.
"""

from __future__ import annotations

from repro.core.greedy.plot_candidates import UncoloredPlot
from repro.core.model import Bar, Multiplot, Plot
from repro.core.problem import MultiplotSelectionProblem
from repro.nlq.templates import QueryTemplate


def color_plot(uncolored: UncoloredPlot, num_highlighted: int) -> Plot:
    """The plot highlighting the ``num_highlighted`` most likely queries."""
    if not 0 <= num_highlighted <= len(uncolored.members):
        raise ValueError(
            f"cannot highlight {num_highlighted} of "
            f"{len(uncolored.members)} bars")
    bars = tuple(
        Bar(
            query=member.query,
            probability=member.probability,
            label=uncolored.template.x_label(member.query),
            highlighted=index < num_highlighted,
        )
        for index, member in enumerate(uncolored.members)
    )
    return Plot(template=uncolored.template, bars=bars)


class PlotVersions:
    """All prefix-highlighted versions of all candidate plots, as numbers.

    For each uncolored plot with ``n`` bars there is one version per
    highlight count ``0..n`` (optionally capped by ``max_highlighted``),
    numbered in that order.  Version ``v`` is described by parallel
    lists: ``template[v]`` (an integer id per template), ``units[v]``
    (its width, ``ScreenGeometry.plot_units`` of its plot), ``bars[v]``,
    ``highlighted[v]``, and the ``(candidate index, probability)`` pairs
    of its ``red[v]`` and ``plain[v]`` bars in bar order.  Candidate
    indices point into ``problem.candidates``.
    """

    def __init__(self, problem: MultiplotSelectionProblem,
                 uncolored_plots: list[UncoloredPlot],
                 max_highlighted: int | None = None) -> None:
        geometry = problem.geometry
        candidate_ids = {candidate.query: index for index, candidate
                         in enumerate(problem.candidates)}
        template_ids: dict[QueryTemplate, int] = {}
        base_units: list[float] = []
        self._sources: list[tuple[UncoloredPlot, int]] = []
        self.template: list[int] = []
        self.units: list[float] = []
        self.bars: list[int] = []
        self.highlighted: list[int] = []
        self.red: list[tuple[tuple[int, float], ...]] = []
        self.plain: list[tuple[tuple[int, float], ...]] = []
        for uncolored in uncolored_plots:
            template_id = template_ids.setdefault(uncolored.template,
                                                  len(template_ids))
            if template_id == len(base_units):
                base_units.append(
                    geometry.plot_base_units(uncolored.template))
            shown = tuple((candidate_ids[member.query], member.probability)
                          for member in uncolored.members)
            units = base_units[template_id] + len(shown)
            limit = len(shown)
            if max_highlighted is not None:
                limit = min(limit, max_highlighted)
            for k in range(0, limit + 1):
                self._sources.append((uncolored, k))
                self.template.append(template_id)
                self.units.append(units)
                self.bars.append(len(shown))
                self.highlighted.append(k)
                self.red.append(shown[:k])
                self.plain.append(shown[k:])

    def __len__(self) -> int:
        return len(self.template)

    def plot(self, version: int) -> Plot:
        """The colored plot of *version*."""
        uncolored, num_highlighted = self._sources[version]
        return color_plot(uncolored, num_highlighted)

    def multiplot(self, placed: list[tuple[int, int]],
                  num_rows: int) -> Multiplot:
        """The multiplot of ``(version, row)`` placements; each row keeps
        the placements' order."""
        rows: list[list[Plot]] = [[] for _ in range(num_rows)]
        for version, row in placed:
            rows[row].append(self.plot(version))
        return Multiplot(tuple(tuple(row) for row in rows))
