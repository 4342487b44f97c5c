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
bars.  Our ``knapsack`` variant fixes this with exchange moves: each step
either adds a version of an unselected template or *replaces* the selected
version of a template, always taking the feasible move with the largest
gain-in-savings (density-weighted for pure additions).  The
``cardinality`` variant is the paper's fixed-width alternative using the
classical Nemhauser greedy.

Both variants work on :class:`PlotVersions` summaries: a selection is a
list of version numbers, and plots are built only for the versions
picked.  An addition extends the current selection's running totals by
one plot's bars, in the order a rescan of the whole selection would add
them, so every float sum (and therefore every choice) is the one a
plot-by-plot evaluation makes.
"""

from __future__ import annotations

from repro.core.cost_model import UserCostModel
from repro.core.greedy.coloring import PlotVersions
from repro.core.greedy.submodular import maximize_cardinality
from repro.core.model import Multiplot
from repro.core.problem import MultiplotSelectionProblem

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
           ) -> tuple[float, float, set[int]]:
    """(red mass, plain mass, candidates shown) of *selection*."""
    r_red = 0.0
    r_visible = 0.0
    seen: set[int] = set()
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
               versions: PlotVersions,
               variant: str = "knapsack",
               max_plots: int | None = None,
               max_iterations: int = 64) -> Multiplot:
    """Select a feasible subset of *versions* maximizing cost savings."""
    if variant == "knapsack":
        placed = _exchange_greedy(problem, versions, max_iterations)
    elif variant == "cardinality":
        placed = _cardinality_greedy(problem, versions, max_plots)
    else:
        raise ValueError(f"unknown pick_plots variant {variant!r}")
    return versions.multiplot(placed, problem.geometry.num_rows)


def _fitting(problem: MultiplotSelectionProblem,
             versions: PlotVersions) -> list[int]:
    """Versions no wider than a row."""
    width = problem.geometry.width_units
    return [version for version in range(len(versions))
            if not versions.units[version] > width]


# ---------------------------------------------------------------------------
# Knapsack variant with exchange moves
# ---------------------------------------------------------------------------


def _exchange_greedy(problem: MultiplotSelectionProblem,
                     versions: PlotVersions,
                     max_iterations: int) -> list[Placement]:
    """Best of: density-scored run, raw-gain run, best single item.

    Running under both addition-scoring rules and keeping the best single
    item mirrors the structure of knapsack-constrained submodular greedy
    guarantees (the density rule alone can be arbitrarily bad without the
    single-item fallback).
    """
    savings = _Savings(problem.cost_model)
    fitting = _fitting(problem, versions)
    # Runs of consecutive versions of one template (all of a template's
    # versions are consecutive) share one slot lookup per step.
    groups: list[tuple[int, list[tuple]]] = []
    for version in fitting:
        template = versions.template[version]
        if not groups or groups[-1][0] != template:
            groups.append((template, []))
        groups[-1][1].append((
            version, versions.units[version], versions.bars[version],
            versions.highlighted[version], versions.red[version],
            versions.plain[version]))

    def savings_of(placed: list[Placement]) -> float:
        return savings.of(versions, [version for version, _ in placed])

    candidates = [
        _exchange_run(problem, versions, groups, savings, max_iterations,
                      by_density=True),
        _exchange_run(problem, versions, groups, savings, max_iterations,
                      by_density=False),
    ]
    if fitting:
        # Every row gives a version the same savings, so the first
        # maximum sits in row 0.
        best_single = max(fitting, key=lambda v: savings.of(versions, [v]))
        candidates.append([(best_single, 0)])
    return max(candidates, key=savings_of)


def _exchange_run(problem: MultiplotSelectionProblem,
                  versions: PlotVersions, groups: list[tuple[int, list]],
                  savings: _Savings, max_iterations: int,
                  by_density: bool) -> list[Placement]:
    """One greedy pass with add/replace moves over template slots.

    Each step takes the move with the largest score; ties go to the
    earlier (version, row) item.  A version's savings do not depend on
    its row, so each version is evaluated once, in the first row where
    the move is new and fits.  An addition appends the version to the
    selection, so its sums continue the selection's own; a replacement
    keeps the slot's position and is summed afresh.
    """
    geometry = problem.geometry
    rows = range(geometry.num_rows)
    limit = geometry.width_units + 1e-9
    units = versions.units

    slots: dict[int, Placement] = {}
    row_used = [0.0] * geometry.num_rows
    current = savings(0.0, 0.0, (0, 0, 0, 0))
    for _ in range(max_iterations):
        selection = [version for version, _ in slots.values()]
        r_red, r_visible, seen = _tally(versions, selection)
        bars, red_bars, plots, red_plots = _counts(versions, selection)
        best_move: Placement | None = None
        best_delta = 0.0
        best_score = 0.0
        for template, group in groups:
            slot = slots.get(template)
            if slot is not None:
                old, old_row = slot
                old_width = units[old]
                kept_bars = bars - versions.bars[old]
                kept_red_bars = red_bars - versions.highlighted[old]
                kept_red_plots = red_plots - (versions.highlighted[old] > 0)
            for version, width, num_bars, highlighted, red_bars_of, \
                    plain_bars_of in group:
                if slot is None:
                    for row in rows:
                        if not row_used[row] + width > limit:
                            break
                    else:
                        continue
                    red = r_red
                    for candidate, probability in red_bars_of:
                        if candidate not in seen:
                            red += probability
                    visible = r_visible
                    for candidate, probability in plain_bars_of:
                        if candidate not in seen:
                            visible += probability
                    value = savings(red, visible, (
                        bars + num_bars, red_bars + highlighted, plots + 1,
                        red_plots + (highlighted > 0)))
                else:
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
                    red, visible, _ = _tally(
                        versions, [version if v == old else v
                                   for v in selection])
                    value = savings(red, visible, (
                        kept_bars + num_bars, kept_red_bars + highlighted,
                        plots, kept_red_plots + (highlighted > 0)))
                delta = value - current
                if delta <= 1e-9:
                    continue
                # Replacements always compete on raw gain (their width
                # delta can be zero or negative); additions per the
                # scoring rule.
                if slot is None and by_density:
                    score = delta / max(width, 1e-9)
                else:
                    score = delta
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


# ---------------------------------------------------------------------------
# Cardinality variant (fixed-width plots, Nemhauser greedy)
# ---------------------------------------------------------------------------


def _cardinality_greedy(problem: MultiplotSelectionProblem,
                        versions: PlotVersions,
                        max_plots: int | None) -> list[Placement]:
    geometry = problem.geometry
    num_rows = geometry.num_rows
    limit = geometry.width_units + 1e-9
    items = [(version, row) for version in _fitting(problem, versions)
             for row in range(num_rows)]

    if max_plots is None:
        widest = max(versions.units, default=1.0)
        per_row = max(1, int(geometry.width_units // widest))
        max_plots = per_row * num_rows

    def gain(selection: tuple[Placement, ...]) -> float:
        templates = [versions.template[version] for version, _ in selection]
        if len(set(templates)) != len(templates):
            return float("-inf")
        used = [0] * num_rows
        for version, row in selection:
            used[row] += versions.units[version]
        if not all(total <= limit for total in used):
            return float("-inf")
        return savings.of(versions, [version for version, _ in selection])

    savings = _Savings(problem.cost_model)
    return maximize_cardinality(items, gain, max_plots)
