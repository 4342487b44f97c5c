"""Algorithm 3: colored plot versions.

Theorem 2 shows that some optimal multiplot highlights, within each plot,
exactly the *k* most likely queries for some *k*.  So instead of trying all
``2^bars`` highlight patterns we only generate the ``bars + 1`` probability
prefixes per uncolored plot.

Plot picking only needs each version's width, bar counts and the
candidates it shows, so :class:`PlotVersions` keeps every version as
those numbers, numbering templates as the problem's digest does;
:func:`color_plot` builds the :class:`Plot` of a version once it has
been picked.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.greedy.plot_candidates import UncoloredPlot
from repro.core.model import Bar, Multiplot, Plot
from repro.core.problem import MultiplotSelectionProblem


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


class PlotSummary(NamedTuple):
    """One uncolored plot's versions in :class:`PlotVersions`.

    Versions ``first .. first + count - 1`` highlight its first ``0 ..
    count - 1`` members.  ``shown`` holds its ``(candidate index,
    probability)`` pairs in bar order.  ``parent`` is the position (in
    ``PlotVersions.plots``) of the plot of the same template whose
    members are these minus the last, or -1 when there is none.
    """

    template: int
    first: int
    count: int
    units: float
    shown: tuple[tuple[int, float], ...]
    parent: int


class PlotVersions:
    """All prefix-highlighted versions of all candidate plots, as numbers.

    For each uncolored plot with ``n`` bars there is one version per
    highlight count ``0..n``, numbered in that order.  Version ``v`` is
    described by parallel lists: ``template[v]`` (the template's number
    in the problem's digest), ``units[v]`` (its width,
    ``ScreenGeometry.plot_units`` of its plot), ``bars[v]``,
    ``highlighted[v]``, and the ``(candidate
    index, probability)`` pairs of its ``red[v]`` and ``plain[v]`` bars
    in bar order.  Candidate indices point into ``problem.candidates``.
    ``plots`` summarises the versions per uncolored plot, in order.
    """

    def __init__(self, problem: MultiplotSelectionProblem,
                 uncolored_plots: list[UncoloredPlot]) -> None:
        digest = problem.digest
        probabilities = digest.probabilities
        self._sources: list[tuple[UncoloredPlot, int]] = []
        self.plots: list[PlotSummary] = []
        self.template: list[int] = []
        self.units: list[float] = []
        self.bars: list[int] = []
        self.highlighted: list[int] = []
        self.red: list[tuple[tuple[int, float], ...]] = []
        self.plain: list[tuple[tuple[int, float], ...]] = []
        previous: UncoloredPlot | None = None
        shown: tuple[tuple[int, float], ...] = ()
        for uncolored in uncolored_plots:
            template_id = uncolored.template_id
            indices = uncolored.indices
            extends = (previous is not None
                       and previous.template_id == template_id
                       and indices[:-1] == previous.indices)
            if extends:
                shown += ((indices[-1], probabilities[indices[-1]]),)
            else:
                shown = tuple((k, probabilities[k]) for k in indices)
            units = digest.base_units[template_id] + len(shown)
            count = len(shown) + 1
            self.plots.append(PlotSummary(
                template_id, len(self.template), count, units, shown,
                len(self.plots) - 1 if extends else -1))
            self._sources.extend([(uncolored, k) for k in range(count)])
            self.template.extend([template_id] * count)
            self.units.extend([units] * count)
            self.bars.extend([len(shown)] * count)
            self.highlighted.extend(range(count))
            self.red.extend([shown[:k] for k in range(count)])
            self.plain.extend([shown[k:] for k in range(count)])
            previous = uncolored

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
