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
from repro.core.ilp import IlpSolver, ProcessingGroup
from repro.core.model import Multiplot
from repro.core.problem import MultiplotSelectionProblem
from repro.errors import DeadlineExceeded, PlanningError, SolverError
from repro.observability import current_span, trace_span
from repro.resilience import (
    current_deadline,
    deadline_grace,
    degradation_count,
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
    solver when it ran for this plan (the "best" strategy runs both), so
    quality telemetry can report the live greedy-vs-ILP optimality gap;
    ``None`` means that solver was not consulted.
    """

    multiplot: Multiplot
    expected_cost: float
    solver_name: str
    elapsed_seconds: float
    optimal: bool
    timed_out: bool
    greedy_cost: float | None = None
    ilp_cost: float | None = None


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
    (:class:`~repro.caching.PlanCache`) memoises results per problem
    identity — repeated candidate distributions (the common case for
    repeated questions) skip both solvers entirely.
    """

    def __init__(self, strategy: str = "best",
                 timeout_seconds: float = 1.0,
                 ilp_backend: str = "highs",
                 greedy_epsilon: float = 0.1,
                 processing_weight: float = 0.0,
                 plan_cache: "PlanCache | None" = None) -> None:
        if strategy not in ("greedy", "ilp", "best"):
            raise PlanningError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self.timeout_seconds = timeout_seconds
        self.plan_cache = plan_cache
        self._greedy = GreedySolver(epsilon=greedy_epsilon)
        self._ilp = IlpSolver(backend=ilp_backend,
                              timeout_seconds=timeout_seconds,
                              processing_weight=processing_weight)

    def plan(self, problem: MultiplotSelectionProblem,
             processing_groups: list[ProcessingGroup] | None = None,
             ) -> PlannerResult:
        """Plan a multiplot for *problem* (through the cache when set)."""
        with trace_span("planner.plan") as span:
            span.set_attribute("strategy", self.strategy)
            span.set_attribute("candidates", len(problem.candidates))
            # A deadline or an active fault plan can degrade this plan,
            # and degraded plans must never be cached (a later
            # pressure-free request would be served the degraded
            # multiplot).  Under an active fault plan the cache is
            # bypassed outright so injected faults fire deterministically
            # regardless of cache warmth.  Under a deadline alone, hits
            # are served (only proven-undegraded plans are ever stored,
            # and a cached optimal plan beats anything pressure would
            # produce) and the miss path stores only when no degradation
            # rung fired during planning.
            guarded = current_deadline() is not None
            if self.plan_cache is None or active_fault_plan() is not None:
                result = self._plan_uncached(problem, processing_groups)
                span.set_attribute(
                    "cache", "off" if self.plan_cache is None
                    else "bypass")
            else:
                key = (self.strategy, self.timeout_seconds,
                       self._ilp.backend, self._greedy.epsilon,
                       self.plan_cache.problem_key(problem,
                                                   processing_groups))
                if guarded:
                    result = self.plan_cache.get(key)
                    if result is not None:
                        span.set_attribute("cache", "hit")
                    else:
                        before = degradation_count()
                        result = self._plan_uncached(problem,
                                                     processing_groups)
                        clean = (before is not None
                                 and degradation_count() == before)
                        if clean:
                            self.plan_cache.put(key, result)
                        span.set_attribute(
                            "cache",
                            "miss" if clean else "miss-uncacheable")
                else:
                    computed = False

                    def compute() -> PlannerResult:
                        nonlocal computed
                        computed = True
                        return self._plan_uncached(problem,
                                                   processing_groups)

                    result = self.plan_cache.get_or_plan(key, compute)
                    span.set_attribute("cache",
                                       "miss" if computed else "hit")
            span.set_attribute("solver", result.solver_name)
            span.set_attribute("expected_cost",
                               round(result.expected_cost, 3))
            return result

    def _plan_uncached(self, problem: MultiplotSelectionProblem,
                       processing_groups: list[ProcessingGroup] | None,
                       ) -> PlannerResult:
        """Plan with the configured strategy, degrading to greedy-only
        on deadline exhaustion, solver failure, or an injected fault
        (the ILP→lazy-greedy rung of the resilience ladder).  The
        fallback runs in deadline grace: greedy is the cheapest plan we
        can produce, so an already-expired budget still gets an answer
        instead of an error."""
        try:
            fault_point("planner.solve")
            deadline = current_deadline()
            if deadline is not None:
                deadline.check("planner.solve")
            return self._plan_primary(problem, processing_groups,
                                      deadline)
        except (DeadlineExceeded, SolverError, FaultError) as exc:
            record_degradation("planner", "ilp_to_greedy",
                               exception_reason(exc),
                               detail=f"strategy={self.strategy}")
            current_span().set_attribute("decision", "greedy (degraded)")
            with deadline_grace():
                return self._plan_greedy(problem)

    def _plan_primary(self, problem: MultiplotSelectionProblem,
                      processing_groups: list[ProcessingGroup] | None,
                      deadline) -> PlannerResult:
        if self.strategy == "greedy":
            return self._plan_greedy(problem)
        if self.strategy == "ilp":
            return self._plan_ilp(problem, processing_groups)[0]
        greedy_result = self._plan_greedy(problem)
        if deadline is not None and \
                deadline.remaining_ms() < self.timeout_seconds * 1000.0:
            # Not enough budget left for the ILP's own timeout: keep the
            # greedy incumbent rather than start work we cannot finish.
            record_degradation(
                "planner", "ilp_to_greedy", "deadline_pressure",
                detail=f"remaining {deadline.remaining_ms():.0f} ms < "
                       f"ilp budget {self.timeout_seconds * 1000:.0f} ms")
            current_span().set_attribute("decision",
                                         "greedy (deadline pressure)")
            return greedy_result
        try:
            ilp_result, from_greedy = self._plan_ilp(
                problem, processing_groups, greedy_result.multiplot)
        except SolverError as exc:
            record_degradation("planner", "ilp_to_greedy",
                               exception_reason(exc))
            current_span().set_attribute("decision",
                                         "greedy (ilp failed)")
            return greedy_result
        # Both solvers ran: whichever wins, the result carries both
        # costs so telemetry can report the live optimality gap.
        both = {"greedy_cost": greedy_result.expected_cost,
                "ilp_cost": ilp_result.expected_cost}
        if from_greedy:
            # The ILP handed greedy's plan back: proven optimal, or
            # nothing better found within the budget.
            current_span().set_attribute(
                "decision", "greedy proven optimal" if ilp_result.optimal
                else "greedy kept")
            return replace(greedy_result, optimal=ilp_result.optimal,
                           **both)
        if ilp_result.expected_cost <= greedy_result.expected_cost:
            # The "best" strategy upgrade: the ILP beat (or matched) the
            # greedy incumbent within its budget.
            current_span().set_attribute("decision", "ilp upgrade")
            return replace(ilp_result, **both)
        current_span().set_attribute("decision", "greedy kept")
        return replace(greedy_result, **both)

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
                  processing_groups: list[ProcessingGroup] | None,
                  incumbent: Multiplot | None = None,
                  ) -> tuple[PlannerResult, bool]:
        """The ILP's plan, and whether it is *incumbent*'s multiplot
        handed back (the solver cuts the model off at its cost)."""
        with trace_span("planner.ilp", backend=self._ilp.backend) as span:
            start = time.perf_counter()
            solution = self._ilp.solve(
                problem, processing_groups=processing_groups,
                incumbent=incumbent)
            span.set_attribute("expected_cost",
                               round(solution.expected_cost, 3))
            span.set_attribute("optimal", solution.optimal)
            span.set_attribute("timed_out", solution.timed_out)
            return PlannerResult(
                multiplot=solution.multiplot,
                expected_cost=solution.expected_cost,
                solver_name=f"ilp-{self._ilp.backend}",
                elapsed_seconds=time.perf_counter() - start,
                optimal=solution.optimal,
                timed_out=solution.timed_out,
                ilp_cost=solution.expected_cost,
            ), solution.from_incumbent
