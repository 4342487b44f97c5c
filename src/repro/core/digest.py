"""What every planner reads of one problem, computed once.

The greedy, the one-row search and the MILP all start from the same
facts about a :class:`~repro.core.problem.MultiplotSelectionProblem`:
the candidates ranked by probability, the templates they instantiate
(the grouping step of Algorithm 2), each template's title width and bar
capacity, and, for the exact solvers, the same memberships as arrays.
:class:`ProblemDigest` holds them.  A problem builds its digest on first
use (``problem.digest``) and keeps it for its own lifetime, so one plan
renders each title and each tied candidate's SQL once, however many
planners read them.

This module imports only numpy: the problem hands in the one function
that knows query structure (``templates_of``).
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Any, Callable, Iterable, Sequence

import numpy as np


def top_mass(values: np.ndarray) -> np.ndarray:
    """Per row, the prefix sums of its values in descending order (with a
    leading zero): ``out[:, j]`` is the mass of the ``j`` largest."""
    ordered = -np.sort(-values, axis=1)
    out = np.zeros((values.shape[0], values.shape[1] + 1))
    np.cumsum(ordered, axis=1, out=out[:, 1:])
    return out


class ProblemDigest:
    """The ranked candidates and their templates, once per problem.

    Candidates are numbered as in ``problem.candidates``; templates in
    order of first appearance (candidate order, then the order
    ``templates_of`` yields a query's templates).  Both numberings index
    everything below.

    * ``probabilities`` — per candidate.
    * ``ranked`` — candidate numbers by descending probability, ties
      broken by SQL text (rendered only for tied candidates): the order
      in which a plot takes its bars.
    * ``templates``, ``template_ids`` (template -> number), ``titles``
      (each rendered once), ``base_units`` (the plot's ``W_i``) and
      ``capacity`` (the most bars one plot of it can hold; 0 when its
      title alone overflows a row).
    * ``members`` — per template, its candidates in ``ranked`` order.

    The arrays only the exact solvers read are built on first use, so a
    greedy-only plan never pays for them: see :attr:`order`,
    :attr:`member`, :attr:`top_mass`, :attr:`template_top_mass` and
    :attr:`undominated`.
    """

    def __init__(self, candidates: Sequence[Any], geometry: Any,
                 templates_of: Callable[[Any], Iterable[Any]]) -> None:
        probabilities = [candidate.probability for candidate in candidates]
        tied = {p for p, count in Counter(probabilities).items() if count > 1}
        self.probabilities: tuple[float, ...] = tuple(probabilities)
        self.ranked: tuple[int, ...] = tuple(sorted(
            range(len(candidates)),
            key=lambda k: (-probabilities[k],
                           candidates[k].query.to_sql()
                           if probabilities[k] in tied else "")))
        rank = [0] * len(candidates)
        for position, k in enumerate(self.ranked):
            rank[k] = position

        template_ids: dict[Any, int] = {}
        members: list[list[int]] = []
        for k, candidate in enumerate(candidates):
            for template in templates_of(candidate.query):
                t = template_ids.get(template)
                if t is None:
                    t = template_ids[template] = len(members)
                    members.append([])
                members[t].append(k)
        self.template_ids = template_ids
        self.templates: tuple[Any, ...] = tuple(template_ids)
        self.members: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(indices, key=rank.__getitem__))
            for indices in members)
        self.titles: tuple[str, ...] = tuple(
            template.title() for template in self.templates)
        self.base_units: tuple[float, ...] = tuple(
            geometry.title_units(title) for title in self.titles)
        self.capacity: tuple[int, ...] = tuple(
            geometry.bar_capacity(base) for base in self.base_units)

    def __len__(self) -> int:
        """The number of templates."""
        return len(self.templates)

    # -- arrays for the exact solvers -------------------------------------

    @cached_property
    def order(self) -> np.ndarray:
        """Candidate numbers by descending probability, ties by number:
        the column order of :attr:`member` and the mass arrays."""
        return np.argsort(-np.array(self.probabilities), kind="stable")

    @cached_property
    def sorted_probabilities(self) -> np.ndarray:
        """Probabilities in :attr:`order` (descending)."""
        return np.array(self.probabilities)[self.order]

    @cached_property
    def member(self) -> np.ndarray:
        """``member[t, j]``: candidate ``order[j]`` instantiates template
        ``t`` (templates x candidates, boolean)."""
        column = np.empty(len(self.probabilities), dtype=np.intp)
        column[self.order] = np.arange(len(column))
        sizes = [len(indices) for indices in self.members]
        flat = np.fromiter((k for indices in self.members for k in indices),
                           dtype=np.intp, count=sum(sizes))
        member = np.zeros((len(self.members), len(column)), dtype=bool)
        member[np.repeat(np.arange(len(sizes)), sizes), column[flat]] = True
        return member

    @cached_property
    def top_mass(self) -> np.ndarray:
        """``top_mass[j]``: the mass of the ``j`` most probable
        candidates."""
        return top_mass(self.sorted_probabilities[None, :])[0]

    @cached_property
    def template_top_mass(self) -> np.ndarray:
        """``template_top_mass[t, j]``: the mass of template ``t``'s ``j``
        most probable members (its whole mass once ``j`` passes them)."""
        return top_mass(self.member * self.sorted_probabilities)

    def columns(self, template: int) -> list[int]:
        """Template *template*'s candidates in :attr:`order`."""
        return self.order[self.member[template]].tolist()

    @cached_property
    def undominated(self) -> tuple[int, ...]:
        """Templates with room for a bar that no other template dominates.

        Template B dominates A when B's member set is a superset of A's
        and B's base width does not exceed A's: every plot over A can be
        rebuilt over B at equal cost-model value within equal space.
        Templates are taken larger member sets first, then narrower,
        then by title; each is kept unless one kept before dominates it.
        """
        entries = []
        for t, indices in enumerate(self.members):
            if self.capacity[t] <= 0:
                continue
            mask = 0
            for k in indices:
                mask |= 1 << k
            entries.append((-len(set(indices)), self.base_units[t],
                            self.titles[t], t, mask))
        entries.sort(key=lambda entry: entry[:3])
        kept: list[tuple[int, float, int]] = []
        for _, width, _, t, mask in entries:
            if not any(mask & k_mask == mask and k_width <= width
                       for _, k_width, k_mask in kept):
                kept.append((t, width, mask))
        return tuple(t for t, _, _ in kept)
