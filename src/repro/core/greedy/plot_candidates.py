"""Algorithm 2: generate uncolored plot candidates.

Queries are grouped by template (the problem's digest holds the
grouping); for each template we emit one candidate plot per
*probability prefix* of its query group (the most likely query,
the two most likely, ...), up to the largest prefix that could ever fit on
the screen.  Preferring more likely queries under space pressure is the
paper's stated heuristic ("we prefer adding more likely queries").
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.problem import MultiplotSelectionProblem
from repro.nlq.candidates import CandidateQuery
from repro.nlq.templates import QueryTemplate


class UncoloredPlot(NamedTuple):
    """A candidate plot before highlighting decisions: a template plus the
    probability-ordered queries it shows.

    ``template_id`` and ``indices`` number the template and the members
    as the problem's digest does (members by their index in
    ``problem.candidates``).
    """

    template: QueryTemplate
    members: tuple[CandidateQuery, ...]
    template_id: int
    indices: tuple[int, ...]

    @property
    def probability_mass(self) -> float:
        return sum(member.probability for member in self.members)


def plot_candidates(problem: MultiplotSelectionProblem,
                    ) -> list[UncoloredPlot]:
    """All prefix plots for all templates of *problem*."""
    digest = problem.digest
    candidates = problem.candidates
    plots: list[UncoloredPlot] = []
    for template_id, template in enumerate(digest.templates):
        capacity = digest.capacity[template_id]
        if capacity <= 0:
            continue  # the title alone exceeds the screen width
        indices = digest.members[template_id]
        limit = min(len(indices), capacity)
        members = tuple(candidates[k] for k in indices[:limit])
        for prefix in range(1, limit + 1):
            plots.append(UncoloredPlot(template, members[:prefix],
                                       template_id, indices[:prefix]))
    return plots
