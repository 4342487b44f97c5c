"""Execution orchestration: planned multiplot -> visualization updates."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.core.ilp import IlpSolver, incremental_solve
from repro.core.model import Multiplot
from repro.core.problem import MultiplotSelectionProblem
from repro.execution.progressive import (
    DefaultProcessing,
    ProcessingStrategy,
    _fill_values,
)
from repro.execution.merging import plan_execution
from repro.observability import trace_span
from repro.sqldb.database import Database
from repro.sqldb.query import AggregateQuery

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.caching import QueryResultCache


@dataclass(frozen=True)
class VisualizationUpdate:
    """One visualization state shown to the user while processing runs."""

    elapsed_seconds: float
    multiplot: Multiplot
    final: bool
    approximate: bool
    description: str

    def value_of(self, query: AggregateQuery) -> float | None:
        bar = self.multiplot.bar_for(query)
        return None if bar is None else bar.value

    def shows_result_for(self, query: AggregateQuery) -> bool:
        """True when the update displays a (possibly approximate) value for
        *query* — the event F-Time measures in Figure 11."""
        bar = self.multiplot.bar_for(query)
        return bar is not None and bar.value is not None


class MuveExecutor:
    """Runs the queries behind a planned multiplot with a chosen strategy.

    One executor instance may serve many threads: it holds no per-request
    state, and the optional ``result_cache`` (a thread-safe
    :class:`~repro.caching.QueryResultCache`) lets concurrent requests
    share the results of identical merged-group statements.
    """

    def __init__(self, database: Database, merge: bool = True,
                 result_cache: "QueryResultCache | None" = None) -> None:
        self._database = database
        self._merge = merge
        self.result_cache = result_cache

    def run(self, multiplot: Multiplot,
            strategy: ProcessingStrategy | None = None,
            ) -> list[VisualizationUpdate]:
        """Execute and collect all updates (the common non-streaming path).

        The whole execution runs inside one ``executor.run`` span (the
        streaming path is left unspanned: a span may not stay open
        across ``yield`` without risking cross-context teardown)."""
        strategy = strategy or DefaultProcessing()
        with trace_span("executor.run") as span:
            span.set_attribute("strategy", strategy.name)
            updates = list(self.stream(multiplot, strategy))
            span.set_attribute("updates", len(updates))
            span.set_attribute(
                "queries", len(list(multiplot.displayed_queries())))
            return updates

    def stream(self, multiplot: Multiplot,
               strategy: ProcessingStrategy | None = None,
               ) -> Iterator[VisualizationUpdate]:
        """Yield updates as the strategy produces them."""
        strategy = strategy or DefaultProcessing()
        yield from strategy.updates(self._database, multiplot,
                                    merge=self._merge,
                                    cache=self.result_cache)

    def run_incremental_ilp(self, problem: MultiplotSelectionProblem,
                            solver: IlpSolver | None = None,
                            initial_timeout: float = 0.0625,
                            growth_factor: float = 2.0,
                            total_budget: float = 4.0,
                            ) -> list[VisualizationUpdate]:
        """The ILP-Inc method of Figure 9: re-optimize under exponentially
        growing timeouts, executing and re-rendering after every step.

        Each improved multiplot is executed in full (results for queries
        seen in earlier steps are cached), so later steps mostly pay
        optimisation time.
        """
        from repro.execution.batch import request_context
        with trace_span("executor.ilp_inc") as span:
            start = time.perf_counter()
            updates: list[VisualizationUpdate] = []
            cache: dict[AggregateQuery, float | None] = {}
            # All per-step plans of one incremental solve share one
            # request context (one mask cache): successive steps
            # mostly re-select queries over the same predicates.
            ctx = request_context(self._database)
            steps = list(incremental_solve(
                problem, solver=solver, initial_timeout=initial_timeout,
                growth_factor=growth_factor, total_budget=total_budget))
            for index, step in enumerate(steps):
                if not step.improved and index < len(steps) - 1:
                    continue
                multiplot = step.solution.multiplot
                missing = [q for q in multiplot.displayed_queries()
                           if q not in cache]
                if missing:
                    plan = plan_execution(self._database, missing,
                                          merge=self._merge)
                    cache.update(plan.run(self._database,
                                          cache=self.result_cache,
                                          request_ctx=ctx))
                updates.append(VisualizationUpdate(
                    elapsed_seconds=time.perf_counter() - start,
                    multiplot=_fill_values(multiplot, cache),
                    final=index == len(steps) - 1,
                    approximate=False,
                    description=(f"ilp-inc step {step.step} "
                                 f"(timeout {step.timeout_seconds * 1000:.0f} ms)"),
                ))
            span.set_attribute("steps", len(steps))
            span.set_attribute("updates", len(updates))
            return updates
