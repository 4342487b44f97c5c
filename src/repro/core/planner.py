"""The visualization planner façade.

Chooses between the ILP and greedy solvers (or races them under the
interactive budget) and normalises their outputs into one result type —
this is the "Visualization Planner" box of Figure 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.greedy import GreedySolver
from repro.core.ilp import IlpSolver, load_backends
from repro.core.model import Multiplot
from repro.core.problem import MultiplotSelectionProblem
from repro.errors import DeadlineExceeded, PlanningError, SolverError
from repro.observability import current_span, trace_span
from repro.resilience import (
    EXECUTION_PRESSURE_FRACTION,
    current_deadline,
    deadline_grace,
    exception_reason,
    record_degradation,
)
from repro.testing.faults import FaultError, active_fault_plan, fault_point

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.caching import PlanCache


@dataclass(frozen=True)
class PlannerResult:
    """A planned multiplot plus solver metadata.

    ``greedy_cost`` / ``ilp_cost`` carry the expected cost of each
    solver when it ran for this plan (the "best" strategy runs both);
    ``None`` means that solver was not consulted.  ``open_bound`` is the
    exact solver's lowest cost bound left unsearched (0 once the plan is
    proven optimal; ``None`` when no exact solver ran), so quality
    telemetry can report how far the served plan may sit above the
    optimum.
    """

    multiplot: Multiplot
    expected_cost: float
    solver_name: str
    elapsed_seconds: float
    optimal: bool
    timed_out: bool
    greedy_cost: float | None = None
    ilp_cost: float | None = None
    open_bound: float | None = None


class VisualizationPlanner:
    """Plans multiplots with a configurable strategy.

    ``strategy`` is one of:

    * ``"greedy"`` — Section 6 greedy only (never times out).
    * ``"ilp"`` — Section 5 ILP only, honouring ``timeout_seconds``.
    * ``"best"`` — run greedy, then the ILP cut off at greedy's cost, and
      keep the lower-cost multiplot (greedy's when the ILP proves it
      optimal, finds nothing better in time, or fails outright).

    The planner holds no per-request state, so one instance may plan for
    many threads concurrently.  An optional ``plan_cache``
    (:class:`~repro.caching.PlanCache`) memoises undegraded results per
    problem identity — repeated candidate distributions (the common case
    for repeated questions) skip both solvers entirely.
    """

    def __init__(self, strategy: str = "best",
                 timeout_seconds: float = 1.0,
                 ilp_backend: str = "highs",
                 plan_cache: "PlanCache | None" = None) -> None:
        if strategy not in ("greedy", "ilp", "best"):
            raise PlanningError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self.timeout_seconds = timeout_seconds
        self.plan_cache = plan_cache
        self._greedy = GreedySolver()
        self._ilp = IlpSolver(backend=ilp_backend,
                              timeout_seconds=timeout_seconds)
        if strategy != "greedy":
            load_backends()  # at set-up, not inside the first plan

    def plan(self, problem: MultiplotSelectionProblem) -> PlannerResult:
        """Plan a multiplot for *problem* (through the cache when set).

        The cache rule: look up, plan on a miss, and store only a plan
        whose planning took no degradation rung, so a later
        pressure-free request is never served a degraded multiplot.
        Under an active fault plan the cache is bypassed outright, so
        injected faults fire regardless of cache warmth.
        """
        with trace_span("planner.plan") as span:
            span.set_attribute("strategy", self.strategy)
            span.set_attribute("candidates", len(problem.candidates))
            cache = self.plan_cache
            if cache is None or active_fault_plan() is not None:
                result, _ = self._plan_uncached(problem)
                span.set_attribute("cache",
                                   "off" if cache is None else "bypass")
            else:
                key = (self.strategy, self.timeout_seconds,
                       self._ilp.backend, cache.problem_key(problem))
                result = cache.get(key)
                if result is not None:
                    span.set_attribute("cache", "hit")
                else:
                    result, degraded = self._plan_uncached(problem)
                    if not degraded:
                        cache.put(key, result)
                    span.set_attribute(
                        "cache", "miss-uncacheable" if degraded else "miss")
            span.set_attribute("solver", result.solver_name)
            span.set_attribute("expected_cost",
                               round(result.expected_cost, 3))
            return result

    def _plan_uncached(self, problem: MultiplotSelectionProblem,
                       ) -> tuple[PlannerResult, bool]:
        """The plan with the configured strategy, and whether a
        degradation rung fired.  Deadline exhaustion, solver failure
        or an injected fault degrade to greedy-only (the ILP→lazy-greedy
        rung of the resilience ladder).  The fallback runs in deadline
        grace: greedy is the cheapest plan we can produce, so an
        already-expired budget still gets an answer instead of an
        error."""
        try:
            fault_point("planner.solve")
            deadline = current_deadline()
            if deadline is not None:
                deadline.check("planner.solve")
            return self._plan_primary(problem, deadline)
        except (DeadlineExceeded, SolverError, FaultError) as exc:
            record_degradation("planner", "ilp_to_greedy",
                               exception_reason(exc),
                               detail=f"strategy={self.strategy}")
            current_span().set_attribute("decision", "greedy (degraded)")
            with deadline_grace():
                return self._plan_greedy(problem), True

    def _plan_primary(self, problem: MultiplotSelectionProblem,
                      deadline) -> tuple[PlannerResult, bool]:
        if self.strategy == "greedy":
            return self._plan_greedy(problem), False
        if self.strategy == "ilp":
            return self._plan_ilp(problem)[0], False
        greedy_result = self._plan_greedy(problem)
        budget = self.timeout_seconds
        if deadline is not None:
            remaining = deadline.remaining_ms() / 1000.0
            if self._ilp.searches_row(problem):
                # The row search is anytime, so it gets what the deadline
                # leaves once execution's share is kept back; a short
                # budget still serves greedy's plan at worst.
                reserve = (EXECUTION_PRESSURE_FRACTION
                           * deadline.budget_ms / 1000.0)
                budget = min(budget, max(0.0, remaining - reserve))
            elif remaining < budget:
                # Not enough budget left for the MILP's own timeout: keep
                # the greedy incumbent rather than start work we cannot
                # finish.
                record_degradation(
                    "planner", "ilp_to_greedy", "deadline_pressure",
                    detail=f"remaining {remaining * 1000:.0f} ms < "
                           f"ilp budget {budget * 1000:.0f} ms")
                current_span().set_attribute("decision",
                                             "greedy (deadline pressure)")
                return greedy_result, True
        try:
            ilp_result, from_greedy = self._plan_ilp(
                problem, greedy_result.multiplot, budget)
        except SolverError as exc:
            record_degradation("planner", "ilp_to_greedy",
                               exception_reason(exc))
            current_span().set_attribute("decision",
                                         "greedy (ilp failed)")
            return greedy_result, True
        budget_cut = ilp_result.timed_out and budget < self.timeout_seconds
        if budget_cut:
            # The deadline cut the row search's budget and it did not
            # finish in it: recorded as a degradation, so the plan is not
            # cached as what the full budget would have served.
            record_degradation(
                "planner", "ilp_budget_cut", "deadline_pressure",
                detail=f"ilp budget {budget * 1000:.0f} ms < "
                       f"{self.timeout_seconds * 1000:.0f} ms")
        # Both solvers ran: whichever wins, the result carries both
        # costs and the exact solver's open bound, so telemetry can
        # report the live optimality gap.
        both = {"greedy_cost": greedy_result.expected_cost,
                "ilp_cost": ilp_result.expected_cost,
                "open_bound": ilp_result.open_bound}
        if from_greedy:
            # The ILP handed greedy's plan back: proven optimal, or
            # nothing better found within the budget.
            current_span().set_attribute(
                "decision", "greedy proven optimal" if ilp_result.optimal
                else "greedy kept")
            return replace(greedy_result, optimal=ilp_result.optimal,
                           **both), budget_cut
        if ilp_result.expected_cost <= greedy_result.expected_cost:
            # The "best" strategy upgrade: the ILP beat (or matched) the
            # greedy incumbent within its budget.
            current_span().set_attribute("decision", "ilp upgrade")
            return replace(ilp_result, **both), budget_cut
        current_span().set_attribute("decision", "greedy kept")
        return replace(greedy_result, **both), budget_cut

    def _plan_greedy(self, problem: MultiplotSelectionProblem,
                     ) -> PlannerResult:
        with trace_span("planner.greedy") as span:
            solution = self._greedy.solve(problem)
            span.set_attribute("expected_cost",
                               round(solution.expected_cost, 3))
            return PlannerResult(
                multiplot=solution.multiplot,
                expected_cost=solution.expected_cost,
                solver_name="greedy",
                elapsed_seconds=solution.elapsed_seconds,
                optimal=False,
                timed_out=False,
                greedy_cost=solution.expected_cost,
            )

    def _plan_ilp(self, problem: MultiplotSelectionProblem,
                  incumbent: Multiplot | None = None,
                  timeout_seconds: float | None = None,
                  ) -> tuple[PlannerResult, bool]:
        """The ILP's plan, and whether it is *incumbent*'s multiplot
        handed back (the solver cuts the model off at its cost)."""
        backend = ("rowsearch" if self._ilp.searches_row(problem)
                   else self._ilp.backend)
        with trace_span("planner.ilp", backend=backend) as span:
            start = time.perf_counter()
            solution = self._ilp.solve(
                problem, timeout_seconds=timeout_seconds,
                incumbent=incumbent)
            span.set_attribute("expected_cost",
                               round(solution.expected_cost, 3))
            span.set_attribute("optimal", solution.optimal)
            span.set_attribute("timed_out", solution.timed_out)
            # The certificate: why this plan was served.
            span.set_attribute("tuples_left", solution.tuples_left)
            span.set_attribute("pairs_left", solution.pairs_left)
            span.set_attribute("assignments", solution.assignments)
            span.set_attribute("open_bound", round(solution.open_bound, 3))
            return PlannerResult(
                multiplot=solution.multiplot,
                expected_cost=solution.expected_cost,
                solver_name=f"ilp-{self._ilp.backend}",
                elapsed_seconds=time.perf_counter() - start,
                optimal=solution.optimal,
                timed_out=solution.timed_out,
                ilp_cost=solution.expected_cost,
                open_bound=solution.open_bound,
            ), solution.from_incumbent
