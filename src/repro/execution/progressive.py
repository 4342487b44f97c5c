"""Progressive presentation strategies (Section 8.2 and Figure 5).

Every strategy turns a planned multiplot into a sequence of
:class:`~repro.execution.engine.VisualizationUpdate` events:

* :class:`DefaultProcessing` — run everything (merged), emit one final
  visualization.
* :class:`IncrementalPlotting` — execute and emit plot by plot; users may
  see the correct result before the full multiplot exists.
* :class:`ApproximateProcessing` — run on a Bernoulli sample first (scaled
  estimates, emitted as approximate), then refine on the full data.  The
  fixed variants App-1%/App-5% pin the sample fraction; the dynamic
  variant (App-D) sizes the sample so the estimated sample-scan cost fits
  the interactivity threshold.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Iterator

from repro.core.model import Multiplot, Plot
from repro.errors import ExecutionError
from repro.execution.merging import plan_execution
from repro.observability import trace_span
from repro.sqldb.database import Database
from repro.sqldb.query import AggregateQuery
from repro.sqldb.sampling import scale_aggregate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.caching import QueryResultCache
    from repro.execution.engine import VisualizationUpdate


def _fill_values(multiplot: Multiplot,
                 results: dict[AggregateQuery, float | None],
                 only_plots: set[int] | None = None) -> Multiplot:
    """A copy of *multiplot* with bar values from *results*.

    ``only_plots`` restricts filling (and inclusion) to the given row-major
    plot indices — incremental plotting uses this to emit partial
    multiplots.
    """
    rows = []
    plot_index = 0
    for row in multiplot.rows:
        new_row = []
        for plot in row:
            if only_plots is not None and plot_index not in only_plots:
                plot_index += 1
                continue
            bars = tuple(bar.with_value(results.get(bar.query))
                         for bar in plot.bars)
            new_row.append(Plot(plot.template, bars))
            plot_index += 1
        rows.append(tuple(new_row))
    return Multiplot(tuple(rows))


def _plan_with_span(database: Database, queries: list[AggregateQuery],
                    merge: bool):
    """``plan_execution`` inside an ``executor.merge_plan`` span carrying
    the merge decision summary (group counts, estimated costs)."""
    with trace_span("executor.merge_plan") as span:
        plan = plan_execution(database, queries, merge=merge)
        span.set_attribute("queries", len(queries))
        span.set_attribute("groups", len(plan.groups))
        span.set_attribute("merged_groups",
                           sum(1 for g in plan.groups if g.is_merged))
        span.set_attribute("estimated_cost",
                           round(plan.estimated_cost, 3))
        return plan


class ProcessingStrategy:
    """Interface: yield visualization updates for a planned multiplot.

    Strategies are stateless per call (any instance may serve many threads
    at once); ``cache`` optionally short-circuits group execution through a
    shared :class:`~repro.caching.QueryResultCache`.
    """

    name = "abstract"

    def updates(self, database: Database, multiplot: Multiplot,
                merge: bool = True,
                cache: "QueryResultCache | None" = None,
                ) -> Iterator["VisualizationUpdate"]:
        raise NotImplementedError


class DefaultProcessing(ProcessingStrategy):
    """Process all queries, then show the finished multiplot once."""

    name = "default"

    def updates(self, database: Database, multiplot: Multiplot,
                merge: bool = True,
                cache: "QueryResultCache | None" = None,
                ) -> Iterator["VisualizationUpdate"]:
        from repro.execution.batch import request_context
        from repro.execution.engine import VisualizationUpdate
        start = time.perf_counter()
        queries = list(multiplot.displayed_queries())
        plan = _plan_with_span(database, queries, merge)
        ctx = request_context(database)
        # The span closes before the yield: an open span across a yield
        # would tear down in the consumer's context.
        with trace_span("executor.update", final=True) as span:
            results = plan.run(database, cache=cache, request_ctx=ctx)
            update = VisualizationUpdate(
                elapsed_seconds=time.perf_counter() - start,
                multiplot=_fill_values(multiplot, results),
                final=True,
                approximate=False,
                description="default: all queries processed",
            )
            span.set_attribute("groups", len(plan.groups))
        yield update


class IncrementalPlotting(ProcessingStrategy):
    """Generate single plots sequentially, updating after each.

    ``order="probability"`` (the default) processes plots by decreasing
    covered probability mass, so the plot most likely to contain the
    correct result appears first — minimising expected F-Time.
    ``order="layout"`` keeps the multiplot's row-major order (what a
    naive implementation would do; kept for comparison).
    """

    def __init__(self, order: str = "probability") -> None:
        if order not in ("probability", "layout"):
            raise ExecutionError(
                f"unknown incremental plotting order {order!r}")
        self.order = order

    name = "inc-plot"

    def updates(self, database: Database, multiplot: Multiplot,
                merge: bool = True,
                cache: "QueryResultCache | None" = None,
                ) -> Iterator["VisualizationUpdate"]:
        from repro.execution.batch import request_context
        from repro.execution.engine import VisualizationUpdate
        start = time.perf_counter()
        plots = list(enumerate(multiplot.plots()))
        if self.order == "probability":
            plots.sort(key=lambda pair: -pair[1].probability_mass())
        results: dict[AggregateQuery, float | None] = {}
        shown: set[int] = set()
        # One request context for every per-plot plan: plots of one
        # multiplot share fixed predicates, so later plots reuse the
        # leaf masks (and factorisations) the first plot scanned.
        ctx = request_context(database)
        for step, (index, plot) in enumerate(plots):
            with trace_span("executor.update",
                            step=step + 1, of=len(plots)) as span:
                queries = [bar.query for bar in plot.bars
                           if bar.query not in results]
                if queries:
                    plan = _plan_with_span(database, queries, merge)
                    results.update(plan.run(database, cache=cache,
                                            request_ctx=ctx))
                span.set_attribute("new_queries", len(queries))
                shown.add(index)
                update = VisualizationUpdate(
                    elapsed_seconds=time.perf_counter() - start,
                    multiplot=_fill_values(multiplot, results, shown),
                    final=step == len(plots) - 1,
                    approximate=False,
                    description=(f"incremental: plot "
                                 f"{step + 1}/{len(plots)}"),
                )
            yield update
        if not plots:
            yield VisualizationUpdate(
                elapsed_seconds=time.perf_counter() - start,
                multiplot=multiplot,
                final=True,
                approximate=False,
                description="incremental: empty multiplot",
            )


class ApproximateProcessing(ProcessingStrategy):
    """Sample-first processing: approximate update, then the precise one.

    ``fraction=None`` activates the dynamic variant (App-D): the sample
    fraction is chosen so that the *estimated* scan effort fits
    ``target_seconds``, using a calibrated rows-per-second throughput for
    the engine (measured lazily on first use and cached per database).
    """

    def __init__(self, fraction: float | None = 0.01,
                 target_seconds: float = 0.5,
                 min_fraction: float = 0.001) -> None:
        if fraction is not None and not 0.0 < fraction <= 1.0:
            raise ExecutionError(
                f"sample fraction {fraction} outside (0, 1]")
        self.fraction = fraction
        self.target_seconds = target_seconds
        self.min_fraction = min_fraction

    @property
    def name(self) -> str:
        if self.fraction is None:
            return "app-d"
        return f"app-{self.fraction * 100:g}%"

    _throughput_cache: dict[int, float] = {}
    _throughput_lock = threading.Lock()

    def _dynamic_fraction(self, database: Database,
                          queries: list[AggregateQuery]) -> float:
        """Pick the largest fraction whose estimated runtime fits the
        interactivity target."""
        if not queries:
            return 1.0
        table = database.table(queries[0].table)
        throughput = self._calibrate(database, table)
        budget_rows = throughput * self.target_seconds
        scanned_rows = float(table.num_rows) * len(
            plan_execution(database, queries).groups)
        if scanned_rows <= budget_rows:
            return 1.0
        return max(self.min_fraction, budget_rows / scanned_rows)

    def _calibrate(self, database: Database, table) -> float:
        """Rows/second of a filtered scan on this engine (cached).

        The measurement is serialised process-wide so concurrent App-D
        requests against one database calibrate once and agree on the
        throughput figure afterwards.
        """
        key = id(database)
        cached = self._throughput_cache.get(key)
        if cached is not None:
            return cached
        probe_rows = min(table.num_rows, 50_000)
        if probe_rows == 0:
            return 1e6
        with self._throughput_lock:
            cached = self._throughput_cache.get(key)
            if cached is not None:
                return cached
            start = time.perf_counter()
            percent = 100.0 * probe_rows / max(table.num_rows, 1)
            database.execute(
                f"SELECT COUNT(*) FROM {table.schema.name} "
                f"TABLESAMPLE BERNOULLI ({percent:.4f})")
            elapsed = max(time.perf_counter() - start, 1e-6)
            throughput = probe_rows / elapsed
            self._throughput_cache[key] = throughput
        return throughput

    def updates(self, database: Database, multiplot: Multiplot,
                merge: bool = True,
                cache: "QueryResultCache | None" = None,
                ) -> Iterator["VisualizationUpdate"]:
        from repro.execution.batch import request_context
        from repro.execution.engine import VisualizationUpdate
        start = time.perf_counter()
        queries = list(multiplot.displayed_queries())
        plan = _plan_with_span(database, queries, merge)
        if self.fraction is None:
            fraction = self._dynamic_fraction(database, queries)
        else:
            fraction = self.fraction

        # The sampled and the precise pass share one request context:
        # the WHERE masks are identical (sampling ANDs a Bernoulli draw
        # on top), so the refinement pass reuses every leaf scan.
        ctx = request_context(database)
        if fraction < 1.0:
            with trace_span("executor.update", approximate=True) as span:
                span.set_attribute("sample_fraction", round(fraction, 6))
                raw = plan.run(database, sample_fraction=fraction,
                               cache=cache, request_ctx=ctx)
                scaled = {
                    query: (None if value is None else
                            scale_aggregate(query.aggregate.func, value,
                                            fraction))
                    for query, value in raw.items()
                }
                update = VisualizationUpdate(
                    elapsed_seconds=time.perf_counter() - start,
                    multiplot=_fill_values(multiplot, scaled),
                    final=False,
                    approximate=True,
                    description=(f"approximate: "
                                 f"{fraction * 100:.2f}% sample"),
                )
            yield update
        with trace_span("executor.update", final=True) as span:
            results = plan.run(database, cache=cache, request_ctx=ctx)
            update = VisualizationUpdate(
                elapsed_seconds=time.perf_counter() - start,
                multiplot=_fill_values(multiplot, results),
                final=True,
                approximate=False,
                description="precise results",
            )
            span.set_attribute("groups", len(plan.groups))
        yield update
