"""Exact multiplot selection on a one-row screen, without a MILP.

In a single row, width limits only the total bar count: plots over the
template set ``S`` with ``B`` bars fit exactly when ``base(S) + B <= W``
(a plot's own bar capacity follows from that).  A count tuple ``t``
(plots ``P``, red plots ``P_R``, bars ``B``, red bars ``B_R``) fixes the
reading costs, so each shown candidate is worth ``p_k * w`` with
``w_R = D_M - D_R(t)`` in red and ``w_V = D_M - D_V(t)`` in plain.  Once
``S`` and its red plots ``R`` are chosen too, what is left is a
rectangular assignment of candidates to ``B`` bar slots:

* one red slot per plot in ``R`` and one plain slot per other plot (each
  plot shows a bar, each red plot a red one);
* ``B_R - P_R`` free red slots over the members of ``R``'s templates;
* the remaining slots free and plain over the members of ``S``.

Any assignment places its candidates in plots of the right colour, and
every multiplot with these sets and counts is one, so the search is exact.
It runs in four steps:

1. **Tuples.** Count tuples whose bound beats the incumbent, as for the
   MILP (:func:`repro.core.ilp.translate.count_tuples`).
2. **Template sets.** Sets of at most ``P_max`` templates grow level by
   level, a template at a time, while the plots fit with one bar each.  A
   set is extended only while some extension can still beat the best
   plan: its union's top mass plus the largest masses later templates
   could add, within the width later templates leave.
3. **A bound per (S, t) pair.** Shown mass is at most ``U_S[B]``, the
   mass of the ``B`` most probable members of ``S``'s union; red mass at
   most the ``P_R`` largest single-template masses of ``B_R`` bars,
   capped by ``U_S[B_R]`` and the shown mass.  Because ``w_R >= w_V``,
   crediting that much red and the rest plain bounds the cost from
   below.
4. **Exact finish, best bound first.** A level's pairs are walked in
   bound order before the next level grows, so the best plan found cuts
   the deeper levels.  Each ``R`` of ``P_R`` templates whose own bound
   (``U_R[B_R]`` for the red mass) can still win costs one
   ``scipy.optimize.linear_sum_assignment``.  The walk stops when the
   next bound cannot beat the best plan by the relative gap, and the
   search is anytime: past its deadline it returns the best plan so far
   and the lowest bound it left unsearched.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.digest import top_mass
from repro.core.model import Bar, Multiplot, Plot
from repro.core.problem import MultiplotSelectionProblem

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.ilp.translate import CountTuples

#: Array cells one chunk of a level may allocate (its sets times their
#: widest per-set arrays), so memory stays a few MB however many sets a
#: level holds.
_CHUNK_CELLS = 1 << 18

#: Plot codes of the free bar slots (fixed slots name their template).
_FREE_RED = -1
_FREE_PLAIN = -2


@dataclass(frozen=True)
class RowSearch:
    """Outcome of :func:`search_row`.

    ``multiplot`` is the best plan found below the cutoff (``None`` when
    nothing beat it) and ``cost`` its objective.  ``pairs`` counts the
    (template set, count tuple) pairs whose bound beat the cutoff,
    ``assignments`` the assignment problems solved, and ``open_bound`` is
    the lowest bound left unsearched on a timeout (0 when the search
    finished, i.e. the result is proven).
    """

    multiplot: Multiplot | None
    cost: float
    timed_out: bool
    pairs: int
    assignments: int
    open_bound: float


class _Tuples:
    """Count-tuple fields as arrays, with the per-bar worths."""

    def __init__(self, tuples: CountTuples, d_m: float) -> None:
        self.plots = tuples.plots
        self.red_plots = tuples.red_plots
        self.bars = tuples.bars
        self.red_bars = tuples.red_bars
        self.w_red = d_m - tuples.d_red
        self.w_plain = d_m - tuples.d_visible
        self.bound = tuples.bound


def search_row(problem: MultiplotSelectionProblem,
               template_ids: list[int],
               tuples: CountTuples,
               cutoff: float,
               rel_gap: float,
               deadline: float | None) -> RowSearch:
    """The cheapest one-row multiplot costing below *cutoff*.

    *template_ids* (numbers in ``problem.digest``) are the plots a
    multiplot may use, *tuples* the count tuples whose bound is below
    *cutoff*.  *deadline* is a ``time.perf_counter()`` instant.
    """
    return _RowSearch(problem, template_ids, tuples, cutoff, rel_gap,
                      deadline).run()


class _RowSearch:
    """One search: the digest's candidate ranking, membership and widths
    of the usable templates, and the best plan so far."""

    def __init__(self, problem, template_ids, tuples, cutoff, rel_gap,
                 deadline) -> None:
        digest = problem.digest
        self.problem = problem
        self.templates = [digest.templates[t] for t in template_ids]
        self.rel_gap = rel_gap
        self.deadline = deadline
        d_m = problem.cost_model.miss_cost
        total = float(np.array(digest.probabilities).sum())
        # The empty multiplot's cost: every candidate and the residual
        # mass missed.
        self.miss_all = d_m * (total + max(0.0, 1.0 - total))
        # Candidates ranked by probability, so a union's most probable
        # members come first.
        self.order = digest.order
        self.p = digest.sorted_probabilities
        self.member = digest.member[template_ids]
        self.base = np.array(digest.base_units)[template_ids]
        self.width = problem.geometry.width_units + 1e-9
        self.single = digest.template_top_mass[template_ids]
        self.tuples = _Tuples(tuples, d_m)
        # Least base width of m templates after template j, and the
        # union of the templates after j.
        max_plots = int(self.tuples.plots.max(initial=0))
        count = len(template_ids)
        index = np.arange(count)
        later = np.sort(np.where(index[None, :] > index[:, None],
                                 self.base[None, :], np.inf), axis=1)
        extra = min(count, max_plots)
        self.cheapest_extra = np.full((count, max_plots + 1), np.inf)
        self.cheapest_extra[:, 0] = 0.0
        np.cumsum(later[:, :extra], axis=1,
                  out=self.cheapest_extra[:, 1:extra + 1])
        self.later_union = np.zeros_like(self.member)
        self.later_union[:-1] = np.logical_or.accumulate(
            self.member[:0:-1], axis=0)[::-1]
        self.best_cost = cutoff
        self.best: tuple | None = None
        self.pairs = 0
        self.assignments = 0

    # -- bounds ---------------------------------------------------------

    def _cost_bound(self, shown: np.ndarray, red: np.ndarray,
                    index: np.ndarray) -> np.ndarray:
        """Least cost with at most *shown* mass shown, *red* of it red."""
        t = self.tuples
        red = np.minimum(red, shown)
        w_red = np.maximum(t.w_red[index], 0.0)
        w_plain = np.maximum(t.w_plain[index], 0.0)
        return self.miss_all - (w_red * red + w_plain * (shown - red))

    def _pair_bounds(self, sets, widths, union_top, sizes, index):
        """Bounds of every (set, tuple) pair of one level; ``inf`` where
        the pair is infeasible."""
        t = self.tuples
        bars = t.bars[index]
        red_bars = t.red_bars[index]
        red_plots = t.red_plots[index]
        shown = union_top[:, bars]
        # Red mass: the P_R largest single-template masses of B_R bars,
        # at most the union's (exact for P_R == 1 and for R == S).
        single = self.single[sets][:, :, red_bars]        # (L, k, tuples)
        single = -np.sort(-single, axis=1)
        ranked = np.concatenate(
            [np.zeros((len(sets), 1, len(index))),
             np.cumsum(single, axis=1)], axis=1)
        red = np.take_along_axis(ranked, red_plots[None, None, :],
                                 axis=1)[:, 0, :]
        red = np.minimum(red, union_top[:, red_bars])
        bound = self._cost_bound(shown, red, index)
        feasible = ((widths[:, None] + bars[None, :] <= self.width)
                    & (sizes[:, None] >= bars[None, :]))
        return np.where(feasible, bound, np.inf)

    def _extension_bounds(self, sets, widths, unions, union_top, index,
                          level):
        """Per set, the least bound of a pair over any superset that adds
        later templates (tuples *index* have more plots than *level*)."""
        t = self.tuples
        last = sets[:, -1]
        extra = self.cheapest_extra[last][:, t.plots[index] - level]
        feasible = (widths[:, None] + extra + t.bars[index][None, :]
                    <= self.width)
        # Mass each later template adds to the union, the largest first.
        gains = np.where(self._later_fits(last, widths, level),
                         (~unions * self.p) @ self.member.T, 0.0)
        gains = top_mass(gains)[:, np.minimum(t.plots[index] - level,
                                               gains.shape[1])]
        reach = top_mass((unions | self.later_union[last]) * self.p)
        shown = np.minimum(union_top[:, t.bars[index]] + gains,
                           reach[:, t.bars[index]])
        red = reach[:, t.red_bars[index]]
        bound = self._cost_bound(shown, red, index)
        return np.where(feasible, bound, np.inf).min(axis=1)

    def _later_fits(self, last, widths, level):
        """Per set, which templates after its *last* one it can add with
        a bar per plot."""
        later = np.arange(len(self.base))[None, :] > last[:, None]
        return later & (widths[:, None] + self.base[None, :] + level + 1
                        <= self.width)

    # -- search ---------------------------------------------------------

    def run(self) -> RowSearch:
        t = self.tuples
        if not len(t.plots):
            return self._result(0.0)
        if (t.plots == 0).any() and self.miss_all < self.best_cost:
            self.best_cost = self.miss_all
            self.best = ((), (), [])
        fit = np.flatnonzero(self.base + 1.0 <= self.width)
        sets = fit[:, None]
        widths = self.base[fit]
        unions = self.member[fit]
        for level in range(1, int(t.plots.max()) + 1):
            if not len(sets):
                break
            at_level = np.flatnonzero(t.plots == level)
            if len(at_level):
                pairs = self._level_pairs(sets, widths, unions, at_level)
                if pairs is None:  # nothing this deep searched yet
                    return self._result(
                        float(t.bound[t.plots >= level].min()),
                        timed_out=True)
                next_bound = self._walk(sets, *pairs)
                if next_bound is not None:
                    deeper = t.bound[t.plots > level]
                    return self._result(
                        float(np.min(deeper, initial=next_bound)),
                        timed_out=True)
            deeper = np.flatnonzero(t.plots > level)
            if not len(deeper):
                break
            grown = self._next_level(sets, widths, unions, deeper, level)
            if grown is None:
                return self._result(float(t.bound[deeper].min()),
                                    timed_out=True)
            sets, widths, unions = grown
        return self._result(0.0)

    def _chunks(self, num_sets: int, num_tuples: int, level: int):
        """Slices of a level small enough that each chunk's (set x tuple),
        (set x template) and (set x candidate) arrays stay a few MB."""
        cells = (level * (num_tuples + len(self.p) + 1)
                 + len(self.base) * (num_tuples + 1))
        step = max(1, _CHUNK_CELLS // cells)
        for lo in range(0, num_sets, step):
            yield slice(lo, min(num_sets, lo + step))

    def _level_pairs(self, sets, widths, unions, index):
        """The (set, tuple) pairs of one level whose bound beats the best
        plan, as (bounds, set rows, tuple indices); ``None`` on a
        timeout."""
        cutoff = self.best_cost * (1 - self.rel_gap)
        found = []
        for chunk in self._chunks(len(sets), len(index), sets.shape[1]):
            if self._expired():
                return None
            bounds = self._pair_bounds(
                sets[chunk], widths[chunk], top_mass(unions[chunk] * self.p),
                unions[chunk].sum(axis=1), index)
            rows, cols = np.nonzero(bounds < cutoff)
            found.append((bounds[rows, cols], rows + chunk.start,
                          index[cols]))
        bounds = np.concatenate([b for b, _, _ in found])
        self.pairs += len(bounds)
        order = np.argsort(bounds, kind="stable")
        return (bounds[order],
                np.concatenate([r for _, r, _ in found])[order],
                np.concatenate([c for _, _, c in found])[order])

    def _next_level(self, sets, widths, unions, index, level):
        """The sets one level up: each set some extension may still beat
        the best plan with, plus one later template that fits with a bar
        per plot.  ``None`` on a timeout."""
        cutoff = self.best_cost * (1 - self.rel_gap)
        grown = []
        for chunk in self._chunks(len(sets), len(index), level):
            if self._expired():
                return None
            keep = self._extension_bounds(
                sets[chunk], widths[chunk], unions[chunk],
                top_mass(unions[chunk] * self.p), index, level) < cutoff
            kept_sets = sets[chunk][keep]
            kept_widths = widths[chunk][keep]
            rows, cols = np.nonzero(
                self._later_fits(kept_sets[:, -1], kept_widths, level))
            grown.append((
                np.concatenate([kept_sets[rows], cols[:, None]], axis=1),
                kept_widths[rows] + self.base[cols],
                unions[chunk][keep][rows] | self.member[cols]))
        return tuple(np.concatenate(parts) for parts in zip(*grown))

    def _walk(self, sets, bounds, rows, indices) -> float | None:
        """Solve one level's pairs best bound first; on a timeout, the
        lowest bound left unsearched."""
        t = self.tuples
        for bound, row, index in zip(bounds, rows, indices):
            if bound >= self.best_cost * (1 - self.rel_gap):
                break
            if self._expired():
                return float(bound)
            plots = [int(i) for i in sets[row]]
            for red in itertools.combinations(plots,
                                              int(t.red_plots[index])):
                self._solve_pair(plots, list(red), int(index))
        return None

    def _solve_pair(self, plots, red, index) -> None:
        """One assignment: the best multiplot over *plots* with exactly
        *red* red plots and tuple *index*'s counts."""
        from scipy.optimize import linear_sum_assignment
        t = self.tuples
        bars = int(t.bars[index])
        red_bars = int(t.red_bars[index])
        w_red = float(t.w_red[index])
        w_plain = float(t.w_plain[index])
        union = self.member[plots].any(axis=0)
        red_union = self.member[red].any(axis=0)
        # The pair's bound with R's own union for the red mass.
        if self._cost_bound(self.p[union][:bars].sum(),
                            self.p[red_union][:red_bars].sum(), index) \
                >= self.best_cost * (1 - self.rel_gap):
            return
        # (eligible members, worth, plot or free pool, red)
        others = [i for i in plots if i not in red]
        slots = ([(self.member[i], w_red, i, True) for i in red]
                 + [(self.member[i], w_plain, i, False) for i in others]
                 + [(red_union, w_red, _FREE_RED, True)]
                 * (red_bars - len(red))
                 + [(union, w_plain, _FREE_PLAIN, False)]
                 * (bars - red_bars - len(others)))
        rows = np.flatnonzero(union)
        allowed = np.stack([slot[0][rows] for slot in slots], axis=1)
        worth = np.array([slot[1] for slot in slots])
        cost = np.where(allowed, -self.p[rows][:, None] * worth[None, :],
                        np.inf)
        self.assignments += 1
        try:
            chosen, columns = linear_sum_assignment(cost)
        except ValueError:  # no assignment fills every slot
            return
        total = self.miss_all + float(cost[chosen, columns].sum())
        if total < self.best_cost * (1 - self.rel_gap):
            self.best_cost = total
            self.best = (tuple(plots), tuple(red),
                         [(int(rows[r]), slots[c][2], slots[c][3])
                          for r, c in zip(chosen, columns)])

    def _expired(self) -> bool:
        return (self.deadline is not None
                and time.perf_counter() > self.deadline)

    # -- result ---------------------------------------------------------

    def _result(self, open_bound: float,
                timed_out: bool = False) -> RowSearch:
        return RowSearch(
            multiplot=(self._multiplot() if self.best is not None
                       else None),
            cost=self.best_cost, timed_out=timed_out, pairs=self.pairs,
            assignments=self.assignments, open_bound=open_bound)

    def _multiplot(self) -> Multiplot:
        plots, red, bars = self.best
        if not plots:
            return Multiplot.empty(1)
        candidates = self.problem.candidates
        placed: dict[int, list[Bar]] = {i: [] for i in plots}
        for rank, slot, highlighted in bars:
            plot = slot
            if slot in (_FREE_RED, _FREE_PLAIN):
                # Any plot of the right colour that can show it.
                pool = red if slot == _FREE_RED else plots
                plot = next(i for i in pool if self.member[i, rank])
            candidate = candidates[int(self.order[rank])]
            placed[plot].append(Bar(
                query=candidate.query, probability=candidate.probability,
                label=self.templates[plot].x_label(candidate.query),
                highlighted=highlighted))
        row = []
        for i in plots:
            bars_i = sorted(placed[i],
                            key=lambda bar: (-bar.probability, bar.label))
            row.append(Plot(self.templates[i], tuple(bars_i)))
        return Multiplot((tuple(row),))
