"""Multiplot selection as an integer linear program (Section 5).

Variables (binary unless noted):

* ``p[i][r]`` — template *i*'s plot is shown in row *r*.
* ``q[k][i][r]`` / ``h[k][i][r]`` — candidate *k*'s result is shown /
  highlighted in plot *i*, row *r* (introduced only for compatible pairs).
* ``s[i][r]`` — plot *i* in row *r* contains at least one highlighted bar.
* ``q_k`` / ``h_k`` / ``d_k`` (continuous, forced binary by equalities) —
  candidate *k* is displayed / highlighted / displayed-but-unhighlighted.

Constraints: ``q <= p``, ``h <= q``, each query shown at most once, row
width ``sum_i W_i p[i][r] + sum_(k,i) q[k][i][r] <= W``, and the
``s``-consistency constraints of Section 5.3.

Two deviations from the paper's *exposition*, both sanctioned by its
footnote 3 ("we use slightly different auxiliary variables ... compared to
our actual implementation"):

1. **Dominated-template pruning.**  The cost model never looks at which
   template a plot uses, only at bar/plot counts; so if template B can show
   a superset of template A's queries at no greater base width, any plot of
   A can be replaced by a plot of B.  Pruning dominated templates shrinks
   the model without changing the optimum.
2. **Count-tuple linearisation.**  The reading costs ``D_R``/``D_V``
   depend only on the counts (plots, red plots, bars, red bars).  Instead
   of ``O(n_q^2)`` pairwise binary products we enumerate every count
   tuple ``t`` a multiplot can have, pick one with a binary ``y_t`` linked
   to the counts by equalities, and split the shown probability mass over
   per-tuple variables ``m^R_t``/``m^V_t``, bounded by ``y_t`` times the
   most mass ``t``'s red bars (all bars) can carry.  The objective
   ``D_M - D_M sum r_k q_k + sum_t (D_R(t) m^R_t + D_V(t) m^V_t)`` is
   exact at integral points, and its LP relaxation is at least the
   smallest tuple bound (that mass shown at ``t``'s reading costs), so a
   known multiplot's cost cuts off every tuple that cannot beat it.

The processing-cost extension of Section 8.1 adds group variables ``g``
with coverage constraints ``q_k <= sum_(g in G(k)) g`` and either a budget
constraint or a weighted objective term over group costs.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.core.greedy import GreedySolver
from repro.core.ilp.bnb import solve_with_bnb
from repro.core.ilp.highs import solve_with_highs
from repro.core.ilp.modeling import LinExpr, Model, SolveResult, Variable
from repro.core.model import Bar, Multiplot, Plot
from repro.core.problem import MultiplotSelectionProblem
from repro.errors import ModelInfeasible, SolverError
from repro.nlq.templates import QueryTemplate

_BACKENDS = {
    "highs": solve_with_highs,
    "bnb": solve_with_bnb,
}


@dataclass(frozen=True)
class ProcessingGroup:
    """A set of candidates answerable by one (possibly merged) execution."""

    cost: float
    candidate_indices: frozenset[int]

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise SolverError("processing group cost must be non-negative")
        if not self.candidate_indices:
            raise SolverError("processing group covers no candidates")


@dataclass(frozen=True)
class IlpSolution:
    """Solver output with optimality/timeout metadata.

    ``from_incumbent`` marks the caller's (or the greedy seed's)
    multiplot coming back: proven optimal when ``optimal``, otherwise
    better than anything the solver found before its timeout.
    """

    multiplot: Multiplot
    expected_cost: float
    objective: float
    optimal: bool
    timed_out: bool
    elapsed_seconds: float
    num_variables: int
    num_constraints: int
    selected_groups: tuple[int, ...] = field(default=())
    processing_cost: float = 0.0
    from_incumbent: bool = False


#: Relative tolerance of every optimality claim (HiGHS's ``mip_rel_gap``).
_REL_GAP = 1e-6


class IlpSolver:
    """Builds and solves the Section 5 ILP.

    Parameters
    ----------
    backend:
        ``"highs"`` (scipy MILP) or ``"bnb"`` (pure-Python branch & bound).
    timeout_seconds:
        Wall-clock limit; on expiry the incumbent is returned with
        ``timed_out=True`` (matching the paper's behaviour under the one-
        second interactive budget).  ``None`` disables the limit.
    processing_weight:
        Weight of total processing-group cost added to the objective (the
        Figure 9 "ILP" method uses a small positive weight to prefer cheap
        multiplots among near-ties; zero ignores processing cost).
    prune_templates:
        Disable only for fidelity experiments; pruning preserves optima.
    """

    def __init__(self, backend: str = "highs",
                 timeout_seconds: float | None = 1.0,
                 processing_weight: float = 0.0,
                 prune_templates: bool = True) -> None:
        if backend not in _BACKENDS:
            raise SolverError(
                f"unknown backend {backend!r}; choose from "
                f"{sorted(_BACKENDS)}")
        self.backend = backend
        self.timeout_seconds = timeout_seconds
        self.processing_weight = processing_weight
        self.prune_templates = prune_templates

    def solve(self, problem: MultiplotSelectionProblem,
              processing_groups: list[ProcessingGroup] | None = None,
              timeout_seconds: float | None = None,
              incumbent: Multiplot | None = None) -> IlpSolution:
        """Solve *problem*, optionally with processing-cost machinery.

        *incumbent* is a feasible multiplot; every count tuple whose bound
        cannot beat its cost is dropped from the model.  When none is
        given the greedy plan seeds the cutoff, its time counted against
        the budget.  With *processing_groups* neither applies: the
        objective then includes group costs that neither a multiplot nor
        the greedy (which ignores processing budgets) accounts for.
        """
        start = time.perf_counter()
        timeout = (timeout_seconds if timeout_seconds is not None
                   else self.timeout_seconds)
        if processing_groups:
            incumbent = None
        elif incumbent is None:
            incumbent = GreedySolver().solve(problem).multiplot
        cutoff = (problem.evaluate(incumbent) if incumbent is not None
                  else None)
        formulation = _Formulation(problem, processing_groups,
                                   self.processing_weight,
                                   self.prune_templates, cutoff)

        def keep_incumbent(optimal: bool) -> IlpSolution:
            return IlpSolution(
                multiplot=incumbent, expected_cost=cutoff,
                objective=cutoff, optimal=optimal, timed_out=not optimal,
                elapsed_seconds=time.perf_counter() - start,
                num_variables=formulation.model.num_variables,
                num_constraints=formulation.model.num_constraints,
                from_incumbent=True)

        if not formulation.tuples:
            return keep_incumbent(optimal=True)
        compiled = formulation.model.compile()
        if timeout is not None:
            # Seeding and model construction count against the budget.
            timeout = max(1e-3, timeout - (time.perf_counter() - start))
        try:
            result = _BACKENDS[self.backend](compiled, timeout)
        except ModelInfeasible:
            # No tuple left can beat the cutoff.
            if incumbent is None:
                raise
            return keep_incumbent(optimal=True)
        except SolverError:
            if incumbent is None:
                raise
            return keep_incumbent(optimal=False)
        multiplot = formulation.extract_multiplot(result)
        expected_cost = problem.evaluate(multiplot)
        if cutoff is not None and expected_cost >= cutoff * (1 - _REL_GAP):
            return keep_incumbent(optimal=result.optimal)
        selected_groups = formulation.extract_groups(result)
        return IlpSolution(
            multiplot=multiplot,
            expected_cost=expected_cost,
            objective=result.objective,
            optimal=result.optimal,
            timed_out=result.timed_out,
            elapsed_seconds=time.perf_counter() - start,
            num_variables=formulation.model.num_variables,
            num_constraints=formulation.model.num_constraints,
            selected_groups=selected_groups,
            processing_cost=sum(
                formulation.groups[g].cost for g in selected_groups),
        )


@dataclass(frozen=True)
class CountTuple:
    """One combination of the counts the reading costs depend on.

    ``red_mass``/``shown_mass`` cap the probability a multiplot with
    these counts can show in red and in all; ``bound`` is the least
    expected cost such a multiplot can have.
    """

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
                 plot_shapes: list[tuple[float, int, list[float]]],
                 ) -> list[CountTuple]:
    """Every count tuple a multiplot can have, given each template's
    base width, bar capacity and member probabilities (descending).

    Each plot has a bar; a plot with a red bar needs one, one without
    needs a plain bar; a row holds at most as many plots as its
    narrowest plots allow, and the narrowest plots plus one unit per bar
    fit the screen.  The empty multiplot is the all-zero tuple.

    ``j`` bars show at most the ``j`` most probable candidates, and ``j``
    plots at most the ``j`` largest chunks of template mass (copy ``c``
    of a template in another row shows at most its ``c``-th ``capacity``
    members).  A tuple's bound shows that much mass in red and plain,
    where that lowers the cost.
    """
    geometry = problem.geometry
    cost_model = problem.cost_model
    d_m = cost_model.miss_cost
    num_rows = geometry.num_rows
    width = geometry.width_units
    top = [0.0, *itertools.accumulate(sorted(
        (c.probability for c in problem.candidates), reverse=True))]
    chunks = sorted((sum(members[c * capacity:(c + 1) * capacity])
                     for _, capacity, members in plot_shapes
                     for c in range(num_rows)), reverse=True)
    plot_mass = [0.0, *itertools.accumulate(chunks)]
    widths = sorted(base for base, _, _ in plot_shapes)
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


def prune_dominated_templates(
        problem: MultiplotSelectionProblem,
) -> list[tuple[QueryTemplate, list[int]]]:
    """Templates with their member candidate indices, dominated ones removed.

    Template B dominates A when B's member set is a superset of A's and
    B's base width does not exceed A's: every plot over A can be rebuilt
    over B at equal cost-model value within equal space.
    """
    geometry = problem.geometry
    candidate_index = {c.query: i for i, c in enumerate(problem.candidates)}
    entries: list[tuple[QueryTemplate, frozenset[int], float]] = []
    for template, members in problem.queries_by_template().items():
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


class _Formulation:
    """The variables/constraints/objective for one problem instance.

    Only count tuples whose bound is below *cutoff* enter the model; when
    none is left, nothing else is built.
    """

    def __init__(self, problem: MultiplotSelectionProblem,
                 processing_groups: list[ProcessingGroup] | None,
                 processing_weight: float,
                 prune_templates: bool,
                 cutoff: float | None) -> None:
        self.problem = problem
        self.groups = list(processing_groups or [])
        self.model = Model("multiplot-selection")
        self.templates: list[QueryTemplate] = []
        self.members: list[list[int]] = []
        self.capacities: list[int] = []
        self.p_vars: dict[tuple[int, int], Variable] = {}
        self.s_vars: dict[tuple[int, int], Variable] = {}
        self.q_vars: dict[tuple[int, int, int], Variable] = {}
        self.h_vars: dict[tuple[int, int, int], Variable] = {}
        self.q_any: list[Variable] = []
        self.h_any: list[Variable] = []
        self.d_any: list[Variable] = []
        self.g_vars: list[Variable] = []
        self._select_templates(prune_templates)
        probabilities = [c.probability for c in problem.candidates]
        self.tuples = [
            t for t in count_tuples(problem, [
                (problem.geometry.plot_base_units(template), capacity,
                 [probabilities[k] for k in members])
                for template, capacity, members in zip(
                    self.templates, self.capacities, self.members)])
            if cutoff is None or t.bound < cutoff * (1 - _REL_GAP)]
        if self.tuples:
            self._build(processing_weight)

    # -- construction ---------------------------------------------------

    def _select_templates(self, prune_templates: bool) -> None:
        problem = self.problem
        geometry = problem.geometry
        candidates = problem.candidates
        if prune_templates:
            template_members = prune_dominated_templates(problem)
        else:
            candidate_index = {c.query: i for i, c in enumerate(candidates)}
            template_members = []
            for template, members in problem.queries_by_template().items():
                if geometry.max_bars(template) <= 0:
                    continue
                template_members.append(
                    (template,
                     [candidate_index[m.query] for m in members]))

        for template, members in template_members:
            self.templates.append(template)
            self.members.append(members)
            self.capacities.append(geometry.max_bars(template))

    def _build(self, processing_weight: float) -> None:
        problem = self.problem
        model = self.model
        geometry = problem.geometry
        candidates = problem.candidates
        num_rows = geometry.num_rows

        # Plot and bar-assignment variables.
        for i in range(len(self.templates)):
            for r in range(num_rows):
                self.p_vars[i, r] = model.binary(f"p[{i},{r}]")
                self.s_vars[i, r] = model.binary(f"s[{i},{r}]")
                for k in self.members[i]:
                    self.q_vars[k, i, r] = model.binary(f"q[{k},{i},{r}]")
                    self.h_vars[k, i, r] = model.binary(f"h[{k},{i},{r}]")

        # q <= p, h <= q.
        for (k, i, r), q_var in self.q_vars.items():
            model.add_le(LinExpr({q_var.index: 1.0,
                                  self.p_vars[i, r].index: -1.0}))
            h_var = self.h_vars[k, i, r]
            model.add_le(LinExpr({h_var.index: 1.0, q_var.index: -1.0}))

        # Placement lists per candidate.
        placements: list[list[tuple[int, int]]] = [
            [] for _ in range(len(candidates))]
        for (k, i, r) in self.q_vars:
            placements[k].append((i, r))

        # Each query shown at most once; q_k/h_k/d_k aggregates (exact
        # equalities so reading costs cannot be understated).
        for k in range(len(candidates)):
            q_k = model.continuous(f"qAny[{k}]")
            h_k = model.continuous(f"hAny[{k}]")
            d_k = model.continuous(f"dAny[{k}]")
            self.q_any.append(q_k)
            self.h_any.append(h_k)
            self.d_any.append(d_k)
            sum_q = LinExpr({q_k.index: -1.0})
            sum_h = LinExpr({h_k.index: -1.0})
            for (i, r) in placements[k]:
                sum_q.add_term(self.q_vars[k, i, r], 1.0)
                sum_h.add_term(self.h_vars[k, i, r], 1.0)
            model.add_eq(sum_q)
            model.add_eq(sum_h)
            model.add_le(LinExpr({q_k.index: 1.0}, constant=-1.0))
            model.add_eq(LinExpr({d_k.index: -1.0, q_k.index: 1.0,
                                  h_k.index: -1.0}))

        # A selected plot shows a bar (p <= sum q), so the plot count is
        # the extracted multiplot's; s-consistency: s <= p, s <= sum h,
        # n_i * s >= sum h.
        highlight_by_slot: dict[tuple[int, int], list[Variable]] = {}
        shown = {slot: LinExpr({p_var.index: 1.0})
                 for slot, p_var in self.p_vars.items()}
        for (k, i, r), h_var in self.h_vars.items():
            highlight_by_slot.setdefault((i, r), []).append(h_var)
            shown[i, r].add_term(self.q_vars[k, i, r], -1.0)
        for expr in shown.values():
            model.add_le(expr)
        for (i, r), s_var in self.s_vars.items():
            model.add_le(LinExpr({s_var.index: 1.0,
                                  self.p_vars[i, r].index: -1.0}))
            slot_vars = highlight_by_slot.get((i, r), [])
            if not slot_vars:
                model.add_le(LinExpr({s_var.index: 1.0}))
                continue
            upper = LinExpr({s_var.index: 1.0})
            lower = LinExpr({s_var.index: float(self.capacities[i])})
            for h_var in slot_vars:
                upper.add_term(h_var, -1.0)
                lower.add_term(h_var, -1.0)
            model.add_le(upper)   # s <= sum h
            model.add_ge(lower)   # n_i * s >= sum h

        # Row width constraints.
        width = geometry.width_units
        row_exprs: list[LinExpr] = []
        for r in range(num_rows):
            row_width = LinExpr(constant=-width)
            for i, template in enumerate(self.templates):
                row_width.add_term(self.p_vars[i, r],
                                   geometry.plot_base_units(template))
            for (k, i, rr), q_var in self.q_vars.items():
                if rr == r:
                    row_width.add_term(q_var, 1.0)
            model.add_le(row_width, name=f"width[{r}]")
            row_exprs.append(row_width)

        # Symmetry breaking: rows are interchangeable, so order them by
        # decreasing load (bar count) to prune mirrored branches.
        for r in range(num_rows - 1):
            ordering = LinExpr()
            for (k, i, rr), q_var in self.q_vars.items():
                if rr == r:
                    ordering.add_term(q_var, -1.0)
                elif rr == r + 1:
                    ordering.add_term(q_var, 1.0)
            model.add_le(ordering, name=f"row-order[{r}]")

        self._build_objective()
        self._build_processing(processing_weight)

    def _build_objective(self) -> None:
        """Pick one count tuple and charge its reading costs to the
        probability mass shown in red and plain."""
        model = self.model
        candidates = self.problem.candidates
        d_m = self.problem.cost_model.miss_cost

        one = LinExpr(constant=-1.0)
        red_bars = LinExpr()
        plain_bars = LinExpr()
        red_plots = LinExpr()
        plain_plots = LinExpr()
        for k in range(len(candidates)):
            red_bars.add_term(self.h_any[k], 1.0)
            plain_bars.add_term(self.d_any[k], 1.0)
        for slot, s_var in self.s_vars.items():
            red_plots.add_term(s_var, 1.0)
            plain_plots.add_term(s_var, -1.0)
            plain_plots.add_term(self.p_vars[slot], 1.0)
        red_mass = LinExpr({k_var.index: -c.probability
                            for k_var, c in zip(self.h_any, candidates)})
        plain_mass = LinExpr({k_var.index: -c.probability
                              for k_var, c in zip(self.d_any, candidates)})

        objective = LinExpr()
        residual = max(0.0, 1.0 - sum(c.probability for c in candidates))
        objective.add_constant(residual * d_m)
        for k, candidate in enumerate(candidates):
            objective.add_constant(candidate.probability * d_m)
            objective.add_term(self.q_any[k], -candidate.probability * d_m)
        for index, t in enumerate(self.tuples):
            y = model.binary(f"y[{index}]")
            m_red = model.continuous(f"mR[{index}]", upper=t.shown_mass)
            m_plain = model.continuous(f"mV[{index}]", upper=t.shown_mass)
            one.add_term(y, 1.0)
            red_bars.add_term(y, -t.red_bars)
            plain_bars.add_term(y, -(t.bars - t.red_bars))
            red_plots.add_term(y, -t.red_plots)
            plain_plots.add_term(y, -(t.plots - t.red_plots))
            red_mass.add_term(m_red, 1.0)
            plain_mass.add_term(m_plain, 1.0)
            model.add_le(LinExpr({m_red.index: 1.0,
                                  y.index: -t.red_mass}))
            model.add_le(LinExpr({m_red.index: 1.0, m_plain.index: 1.0,
                                  y.index: -t.shown_mass}))
            objective.add_term(m_red, t.d_red)
            objective.add_term(m_plain, t.d_visible)
        for expr in (one, red_bars, plain_bars, red_plots, plain_plots,
                     red_mass, plain_mass):
            model.add_eq(expr)
        self._objective = objective
        model.minimize(objective)

    def _build_processing(self, processing_weight: float) -> None:
        if not self.groups:
            return
        model = self.model
        problem = self.problem
        covering: dict[int, list[Variable]] = {}
        for g_index, group in enumerate(self.groups):
            g_var = model.binary(f"g[{g_index}]")
            self.g_vars.append(g_var)
            for k in group.candidate_indices:
                covering.setdefault(k, []).append(g_var)
        for k, q_k in enumerate(self.q_any):
            expr = LinExpr({q_k.index: 1.0})
            for g_var in covering.get(k, []):
                expr.add_term(g_var, -1.0)
            model.add_le(expr, name=f"coverage[{k}]")
        if problem.processing_budget is not None:
            budget = LinExpr(constant=-problem.processing_budget)
            for g_var, group in zip(self.g_vars, self.groups):
                budget.add_term(g_var, group.cost)
            model.add_le(budget, name="processing-budget")
        if processing_weight > 0.0:
            for g_var, group in zip(self.g_vars, self.groups):
                self._objective.add_term(g_var,
                                         processing_weight * group.cost)
            model.minimize(self._objective)

    # -- extraction -------------------------------------------------------

    def extract_multiplot(self, result: SolveResult) -> Multiplot:
        problem = self.problem
        num_rows = problem.geometry.num_rows
        candidates = problem.candidates
        rows: list[list[Plot]] = [[] for _ in range(num_rows)]
        for (i, r), p_var in self.p_vars.items():
            if not result.is_one(p_var):
                continue
            bars: list[Bar] = []
            for k in self.members[i]:
                q_var = self.q_vars[k, i, r]
                if not result.is_one(q_var):
                    continue
                candidate = candidates[k]
                bars.append(Bar(
                    query=candidate.query,
                    probability=candidate.probability,
                    label=self.templates[i].x_label(candidate.query),
                    highlighted=result.is_one(self.h_vars[k, i, r]),
                ))
            if not bars:
                continue  # an empty selected plot carries no information
            bars.sort(key=lambda bar: (-bar.probability, bar.label))
            rows[r].append(Plot(self.templates[i], tuple(bars)))
        return Multiplot(tuple(tuple(row) for row in rows))

    def extract_groups(self, result: SolveResult) -> tuple[int, ...]:
        return tuple(index for index, g_var in enumerate(self.g_vars)
                     if result.is_one(g_var))
