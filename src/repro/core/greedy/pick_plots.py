"""Algorithm 4: select colored plots and assign them to rows.

Each (colored plot, row) combination is one item of a submodular
maximization problem; the item's weight vector is the plot's width on the
coordinate of its row (``p.width * e_r`` in the pseudo-code) and every
row's budget is the screen width.  The objective is the cost savings of
the induced multiplot (Definition 6), which Theorem 3 shows to be
submodular and Lemma 1 monotone.

One subtlety the paper's pseudo-code glosses over: the items are not
independent — the many colored/prefix *versions* of one template are
mutually exclusive (selecting two would duplicate query results).  A plain
density greedy therefore gets stuck after picking a small high-density
version of a template: it can never "upgrade" it to a version with more
bars.  We fix this with exchange moves: each step either adds a version
of an unselected template or *replaces* the selected version of a
template, always taking the feasible move with the largest
gain-in-savings (density-weighted for pure additions).

The greedy works on :class:`PlotVersions` summaries: a selection is a
list of version numbers, and plots are built only for the versions
picked.  An addition extends the current selection's running totals by
one plot's bars, in the order a rescan of the whole selection would add
them, so every float sum (and therefore every choice) is the one a
plot-by-plot evaluation makes.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet

from repro.core.cost_model import UserCostModel
from repro.core.greedy.coloring import PlotSummary, PlotVersions
from repro.core.model import Multiplot
from repro.core.problem import MultiplotSelectionProblem

#: Steps each exchange run takes at most.
MAX_EXCHANGE_STEPS = 64

#: A placed version: (version number, row).
Placement = tuple[int, int]


def selection_savings(versions: PlotVersions, selection: list[int],
                      cost_model: UserCostModel) -> float:
    """Cost savings of the versions in *selection*, in O(their bars).

    Equals ``cost_model.cost_savings`` of their multiplot when no
    candidate is shown twice.  A candidate shown by several selected
    versions counts its probability once, at its first occurrence in
    *selection* order (not row-major order).  Plans only carry such
    duplicates until the polish step removes them, before the served
    multiplot is costed.
    """
    return _Savings(cost_model).of(versions, selection)


def _tally(versions: PlotVersions, selection: list[int],
           start: tuple[float, float, AbstractSet[int]] = (
               0.0, 0.0, frozenset()),
           ) -> tuple[float, float, set[int]]:
    """(red mass, plain mass, candidates shown) of *selection*, continued
    from the tally *start* of the versions before it (left unchanged)."""
    r_red, r_visible, shown = start
    seen = set(shown)
    for version in selection:
        for candidate, probability in versions.red[version]:
            if candidate in seen:
                continue
            seen.add(candidate)
            r_red += probability
        for candidate, probability in versions.plain[version]:
            if candidate in seen:
                continue
            seen.add(candidate)
            r_visible += probability
    return r_red, r_visible, seen


def _counts(versions: PlotVersions, selection: list[int],
            ) -> tuple[int, int, int, int]:
    """(bars, red bars, plots, plots with a red bar) of *selection*."""
    bars = red_bars = red_plots = 0
    for version in selection:
        bars += versions.bars[version]
        highlighted = versions.highlighted[version]
        red_bars += highlighted
        red_plots += highlighted > 0
    return bars, red_bars, len(selection), red_plots


class _Savings:
    """Definition 6 from the six quantities the cost model reads: red
    and plain mass, and the counts ``(b, b_R, p, p_R)``.  The reading
    times ``D_R``/``D_V`` depend on the counts only and are memoised."""

    def __init__(self, cost_model: UserCostModel) -> None:
        self._model = cost_model
        self._miss = cost_model.miss_cost
        self._reading: dict[tuple[int, int, int, int],
                            tuple[float, float]] = {}

    def __call__(self, r_red: float, r_visible: float,
                 counts: tuple[int, int, int, int]) -> float:
        reading = self._reading.get(counts)
        if reading is None:
            bars, red_bars, plots, red_plots = counts
            reading = self._reading[counts] = (
                self._model.d_red(red_bars, red_plots),
                self._model.d_visible(bars, red_bars, plots, red_plots))
        d_red, d_visible = reading
        r_missing = 1.0 - r_red - r_visible
        if not r_missing > 0.0:  # max(0.0, r_missing), NaN included
            r_missing = 0.0
        miss = self._miss
        return miss - (r_red * d_red + r_visible * d_visible
                       + r_missing * miss)

    def of(self, versions: PlotVersions, selection: list[int]) -> float:
        """Savings of *selection*, summed from scratch."""
        r_red, r_visible, _ = _tally(versions, selection)
        return self(r_red, r_visible, _counts(versions, selection))


def pick_plots(problem: MultiplotSelectionProblem,
               versions: PlotVersions) -> Multiplot:
    """Select a feasible subset of *versions* maximizing cost savings."""
    return versions.multiplot(_exchange_greedy(problem, versions),
                              problem.geometry.num_rows)


def _exchange_greedy(problem: MultiplotSelectionProblem,
                     versions: PlotVersions) -> list[Placement]:
    """Best of: density-scored run, raw-gain run, best single item.

    Running under both addition-scoring rules and keeping the best single
    item mirrors the structure of knapsack-constrained submodular greedy
    guarantees (the density rule alone can be arbitrarily bad without the
    single-item fallback).  Both runs start from the empty selection, so
    they share the move values of every selection they both reach; the
    empty selection's moves are every fitting version on its own, which
    also gives the best single item.
    """
    savings = _Savings(problem.cost_model)
    moves = _MoveValues(problem, versions, savings)

    def savings_of(placed: list[Placement]) -> float:
        return savings.of(versions, [version for version, _ in placed])

    candidates = [
        _exchange_run(problem, versions, moves, by_density=True),
        _exchange_run(problem, versions, moves, by_density=False),
    ]
    # Every row gives a version the same savings, so the first maximum
    # sits in row 0.
    best_single: tuple[float, int] | None = None
    for value, version, _, _, _ in moves.of(
            {}, [0.0] * problem.geometry.num_rows):
        if best_single is None or value > best_single[0]:
            best_single = (value, version)
    if best_single is not None:
        candidates.append([(best_single[1], 0)])
    return max(candidates, key=savings_of)


#: A move's (savings, version, row, width, whether it adds a template).
Move = tuple[float, int, int, float, bool]


class _MoveValues:
    """The savings of every move from a selection, computed once per
    selection (and row load).

    A move adds a version of a template not yet selected, in the first
    row where it fits, or replaces the selected version of a template,
    in the first row where the swap is new and fits.  A version's savings
    do not depend on its row, so each is evaluated once.  Moves come in
    scan order (templates, then their versions), versions no wider than
    a row only.

    An addition appends the version to the selection, so its sums
    continue the selection's own in bar order, skipping candidates
    already shown.  Version ``k`` of a plot shows its first ``k`` members
    in red and the rest plain, so its red mass continues version
    ``k - 1``'s, and a plot whose members are its parent's plus one
    continues the parent's plain mass at each ``k``: every float is the
    one a rescan of the selection computes, in O(bars) per plot.  A
    replacement keeps the slot's position: the selection before the slot
    is summed once per template, and each version continues that sum
    with itself and the rest of the selection, in the rescan's order.
    """

    def __init__(self, problem: MultiplotSelectionProblem,
                 versions: PlotVersions, savings: _Savings) -> None:
        geometry = problem.geometry
        width = geometry.width_units
        self.versions = versions
        self.savings = savings
        self.rows = range(geometry.num_rows)
        self.limit = width + 1e-9
        # Each template's plots (a template's plots are consecutive),
        # with their positions in ``versions.plots``.
        self.groups: list[tuple[int, list[tuple[int, PlotSummary]]]] = []
        for index, plot in enumerate(versions.plots):
            if plot.units > width:
                continue
            if not self.groups or self.groups[-1][0] != plot.template:
                self.groups.append((plot.template, []))
            self.groups[-1][1].append((index, plot))
        self._memo: dict[tuple, list[Move]] = {}

    def of(self, slots: dict[int, Placement],
           row_used: list[float]) -> list[Move]:
        """The moves from the selection *slots* (template -> placement,
        in selection order) with rows loaded to *row_used*."""
        key = (tuple(slots.values()), tuple(row_used))
        moves = self._memo.get(key)
        if moves is None:
            moves = self._memo[key] = self._scan(slots, row_used)
        return moves

    def _scan(self, slots: dict[int, Placement],
              row_used: list[float]) -> list[Move]:
        versions = self.versions
        savings = self.savings
        rows = self.rows
        limit = self.limit
        selection = [version for version, _ in slots.values()]
        r_red, r_visible, seen = _tally(versions, selection)
        bars, red_bars, plots, red_plots = _counts(versions, selection)
        moves: list[Move] = []
        for template, group in self.groups:
            slot = slots.get(template)
            if slot is None:
                summed = -1  # the plot ``reds``/``plains`` are of
                reds = [r_red]
                plains = [r_visible]
                for index, (_, first, count, width, shown, parent) in group:
                    for row in rows:
                        if not row_used[row] + width > limit:
                            break
                    else:
                        continue
                    if parent != summed:
                        reds = [r_red]
                        plains = [r_visible]
                    for candidate, probability in shown[len(reds) - 1:]:
                        if candidate in seen:
                            reds.append(reds[-1])
                        else:
                            reds.append(reds[-1] + probability)
                            plains = [mass + probability for mass in plains]
                        plains.append(r_visible)
                    summed = index
                    num_bars = bars + len(shown)
                    for k in range(count):
                        moves.append((savings(reds[k], plains[k], (
                            num_bars, red_bars + k, plots + 1,
                            red_plots + (k > 0))), first + k, row, width,
                            True))
                continue
            old, old_row = slot
            # Every version of the template takes the slot's position, so
            # the selection before it is tallied once for all of them.
            position = selection.index(old)
            head = _tally(versions, selection[:position])
            tail = selection[position + 1:]
            old_width = versions.units[old]
            kept_bars = bars - versions.bars[old]
            kept_red_bars = red_bars - versions.highlighted[old]
            kept_red_plots = red_plots - (versions.highlighted[old] > 0)
            for _, (_, first, count, width, shown, _) in group:
                num_bars = kept_bars + len(shown)
                for version in range(first, first + count):
                    for row in rows:
                        if row == old_row:
                            if version != old and not (
                                    row_used[row] - old_width + width
                                    > limit):
                                break
                        elif not row_used[row] + width > limit:
                            break
                    else:
                        continue
                    red, visible, _ = _tally(versions, [version, *tail],
                                             head)
                    k = version - first
                    moves.append((savings(red, visible, (
                        num_bars, kept_red_bars + k, plots,
                        kept_red_plots + (k > 0))), version, row, width,
                        False))
        return moves


def _exchange_run(problem: MultiplotSelectionProblem,
                  versions: PlotVersions, moves: _MoveValues,
                  by_density: bool) -> list[Placement]:
    """One greedy pass with add/replace moves over template slots.

    Each step takes the move with the largest score; ties go to the
    earlier move in scan order.  Additions score their gain in savings,
    per unit of width when *by_density*; replacements always compete on
    raw gain (their width delta can be zero or negative).
    """
    units = versions.units
    slots: dict[int, Placement] = {}
    row_used = [0.0] * problem.geometry.num_rows
    current = moves.savings(0.0, 0.0, (0, 0, 0, 0))
    for _ in range(MAX_EXCHANGE_STEPS):
        best_move: Placement | None = None
        best_delta = 0.0
        best_score = 0.0
        for value, version, row, width, addition in moves.of(slots,
                                                             row_used):
            delta = value - current
            if delta <= 1e-9:
                continue
            score = (delta / max(width, 1e-9) if addition and by_density
                     else delta)
            if best_move is None or score > best_score:
                best_move = (version, row)
                best_delta = delta
                best_score = score
        if best_move is None:
            break
        version, row = best_move
        slot = slots.get(versions.template[version])
        if slot is not None:
            row_used[slot[1]] -= units[slot[0]]
        slots[versions.template[version]] = best_move
        row_used[row] += units[version]
        current += best_delta
    return list(slots.values())
