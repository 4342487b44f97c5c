"""The MUVE system façade: voice/text in, answered multiplot out.

Wires the full Figure 1 pipeline: (simulated) speech recognition ->
text-to-SQL -> text-to-multi-SQL candidate generation -> visualization
planning -> (merged / progressive) query execution -> rendering.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro.caching import PlanCache, QueryResultCache, register_cache_metrics
from repro.core.model import Multiplot, ScreenGeometry
from repro.core.planner import PlannerResult, VisualizationPlanner
from repro.core.problem import MultiplotSelectionProblem
from repro.errors import DeadlineExceeded, ReproError, TransientError
from repro.execution.engine import MuveExecutor, VisualizationUpdate
from repro.execution.progressive import ProcessingStrategy
from repro.nlq.candidates import (
    CandidateGenerator,
    CandidateQuery,
    index_bundle,
    index_bundle_cache,
)
from repro.nlq.speech import SpeechSimulator
from repro.nlq.text_to_sql import TextToSql
from repro.observability import (
    MetricsRegistry,
    QualityRecord,
    SloEngine,
    assess_response,
    current_trace_id,
    get_registry,
    get_slo_engine,
    get_workload_analytics,
    record_quality,
    register_trace_log_metrics,
    trace_span,
)
from repro.observability.quality import assess_trend_response
from repro.observability.slo import (
    default_coverage_floor,
    default_latency_slo_ms,
)
from repro.observability.workload import template_signature
from repro.resilience import (
    CANDIDATE_PRESSURE_FRACTION,
    EXECUTION_PRESSURE_FRACTION,
    DegradationEvent,
    current_deadline,
    current_degradations,
    deadline_grace,
    deadline_scope,
    default_deadline_ms,
    degradation_scope,
    exception_reason,
    record_degradation,
)
from repro.sqldb.database import Database
from repro.sqldb.query import AggregateQuery
from repro.testing.faults import fault_point
from repro.viz.svg import render_svg
from repro.viz.text import render_text


@dataclass(frozen=True)
class TrendResponse:
    """MUVE's answer to a trend question (the line-plot extension)."""

    utterance: str
    transcript: str
    seed_query: AggregateQuery
    x_column: str
    candidates: tuple[CandidateQuery, ...]
    multiplot: object  # SeriesMultiplot (duck-typed like Multiplot)
    expected_cost: float
    degradations: tuple[DegradationEvent, ...] = ()
    quality: QualityRecord | None = None

    @property
    def degraded(self) -> bool:
        """True when any resilience rung fired while answering."""
        return bool(self.degradations)

    def to_text(self) -> str:
        from repro.timeseries.render import render_series_text
        return render_series_text(
            self.multiplot,
            headline=f"{self.seed_query.aggregate.to_sql()} BY "
                     f"{self.x_column}")

    def to_svg(self) -> str:
        from repro.timeseries.render import render_series_svg
        return render_series_svg(
            self.multiplot,
            headline=f"{self.seed_query.aggregate.to_sql()} BY "
                     f"{self.x_column}")


@dataclass(frozen=True)
class MuveResponse:
    """Everything MUVE produced for one query."""

    utterance: str
    transcript: str
    seed_query: AggregateQuery
    candidates: tuple[CandidateQuery, ...]
    planning: PlannerResult
    updates: tuple[VisualizationUpdate, ...]
    headline: str
    geometry: ScreenGeometry = field(default_factory=ScreenGeometry)
    degradations: tuple[DegradationEvent, ...] = ()
    quality: QualityRecord | None = None

    @property
    def degraded(self) -> bool:
        """True when any resilience rung fired while answering (the
        response is still well-formed, just computed the cheap way)."""
        return bool(self.degradations)

    @property
    def multiplot(self) -> Multiplot:
        """The final multiplot with query results filled in."""
        if not self.updates:
            raise ReproError(
                "response carries no visualization updates (the "
                "processing strategy produced none), so there is no "
                "multiplot to show")
        return self.updates[-1].multiplot

    def to_text(self) -> str:
        return render_text(self.multiplot, headline=self.headline)

    def to_svg(self) -> str:
        return render_svg(self.multiplot, self.geometry,
                          headline=self.headline)


class Muve:
    """Voice querying over one table of a database.

    Parameters
    ----------
    database / table_name:
        The data being queried.
    geometry:
        Output screen constraints for the visualization planner.
    planner:
        A configured :class:`VisualizationPlanner`; defaults to the "best"
        strategy (greedy, upgraded by ILP when it wins within budget).
    max_candidates:
        Size of the candidate distribution ("typically, we set k to 20").
    word_error_rate / seed:
        Noise level of the simulated speech channel and its RNG seed.
    enable_caching:
        Attach a shared :class:`~repro.caching.QueryResultCache` to the
        executor and a :class:`~repro.caching.PlanCache` to the planner
        (unless the planner already carries one).  Repeated questions then
        skip query execution and multiplot planning.  Disable for
        benchmarks that must measure cold work every time.
    metrics:
        The :class:`~repro.observability.MetricsRegistry` receiving
        request counters/latency histograms and the cache gauges;
        defaults to the process-wide registry.
    slo:
        The :class:`~repro.observability.SloEngine` scoring every
        request against the serving objectives (latency, error rate,
        truth coverage); defaults to the process-wide engine
        (``GET /api/slo``).  Thresholds come from ``MUVE_SLO_LATENCY_MS``
        and ``MUVE_SLO_COVERAGE``.
    deadline_ms:
        Per-request latency budget.  Every ask runs under a
        :class:`~repro.resilience.Deadline` of this many milliseconds;
        pipeline stages that would blow the budget degrade (see
        DESIGN.md, "Resilience") instead of running long.  ``None``
        (the default) reads ``MUVE_DEADLINE_MS`` from the environment;
        unset/non-positive means no deadline.  Callers that already
        opened a :func:`~repro.resilience.deadline_scope` (the demo
        server's per-request ``deadline_ms``) win — the instance
        default only applies when no deadline is active.

    Nothing here goes stale when the table changes: query results key
    on the database's ``data_version``, the speech, text-to-SQL and
    candidate indexes on its ``vocabulary_version`` (through the shared
    index bundle), so ``insert_rows`` and DDL need no call on this
    object.

    One instance is safe to share across threads: the pipeline components
    hold no per-request state, randomness is derived per call, and the
    caches are thread-safe.  See DESIGN.md, "Concurrency model".

    Every ask is traced (see DESIGN.md, "Observability"): the pipeline
    stages run inside nested :func:`~repro.observability.trace_span`
    blocks, so callers that open a root span around an ask get the full
    per-stage breakdown in their trace.
    """

    def __init__(self, database: Database, table_name: str,
                 geometry: ScreenGeometry | None = None,
                 planner: VisualizationPlanner | None = None,
                 max_candidates: int = 20,
                 word_error_rate: float = 0.15,
                 seed: int = 0,
                 enable_caching: bool = True,
                 metrics: MetricsRegistry | None = None,
                 slo: SloEngine | None = None,
                 deadline_ms: float | None = None) -> None:
        self.database = database
        self.deadline_ms = (deadline_ms if deadline_ms is not None
                            else default_deadline_ms())
        self.table_name = database.table(table_name).schema.name
        self.geometry = geometry or ScreenGeometry()
        self.planner = planner or VisualizationPlanner(strategy="best")
        self.max_candidates = max_candidates
        # All three resolve the table's index bundle per call (the
        # translator warms it here), so they follow DDL and inserts.
        self._text_to_sql = TextToSql(database, table_name)
        self._candidate_generator = CandidateGenerator(database, table_name)
        self._speech = SpeechSimulator(
            lambda: index_bundle(database, self.table_name).speech,
            word_error_rate=word_error_rate, seed=seed)
        self.result_cache = QueryResultCache() if enable_caching else None
        if enable_caching and self.planner.plan_cache is None:
            self.planner.plan_cache = PlanCache()
        self._executor = MuveExecutor(database,
                                      result_cache=self.result_cache)
        self.metrics = metrics if metrics is not None else get_registry()
        self.slo = slo if slo is not None else get_slo_engine()
        from repro.observability.slo import default_objectives
        for objective in default_objectives():
            self.slo.ensure(objective)
        self._slo_latency_ms = default_latency_slo_ms()
        self._slo_coverage_floor = default_coverage_floor()
        register_trace_log_metrics(self.metrics)
        if self.result_cache is not None:
            register_cache_metrics(self.metrics, "query_results",
                                   self.result_cache)
        if self.planner.plan_cache is not None:
            register_cache_metrics(self.metrics, "plans",
                                   self.planner.plan_cache)
        from repro.caching.phonetic import phonetic_probe_cache
        from repro.phonetics.index import register_phonetic_metrics
        from repro.sqldb.index import register_index_metrics
        register_index_metrics(self.metrics)
        register_cache_metrics(self.metrics, "phonetic_probes",
                               phonetic_probe_cache())
        register_cache_metrics(self.metrics, "phonetic_indexes",
                               index_bundle_cache())
        register_phonetic_metrics(self.metrics)

    # ------------------------------------------------------------------

    def cache_stats(self) -> dict[str, dict[str, float]]:
        """Hit/miss/eviction counters of the serving-path caches."""
        stats: dict[str, dict[str, float]] = {}
        if self.result_cache is not None:
            snapshot = self.result_cache.stats
            stats["query_results"] = {
                "hits": snapshot.hits, "misses": snapshot.misses,
                "evictions": snapshot.evictions, "size": snapshot.size,
                "hit_rate": snapshot.hit_rate}
        if self.planner.plan_cache is not None:
            snapshot = self.planner.plan_cache.stats
            stats["plans"] = {
                "hits": snapshot.hits, "misses": snapshot.misses,
                "evictions": snapshot.evictions, "size": snapshot.size,
                "hit_rate": snapshot.hit_rate}
        from repro.caching.phonetic import phonetic_probe_cache
        for name, snapshot in (
                ("statements", self.database.statement_cache_stats),
                ("plan_costs", self.database.cost_cache_stats),
                ("phonetic_probes", phonetic_probe_cache().stats),
                ("phonetic_indexes", index_bundle_cache().stats)):
            stats[name] = {
                "hits": snapshot.hits, "misses": snapshot.misses,
                "evictions": snapshot.evictions, "size": snapshot.size,
                "hit_rate": snapshot.hit_rate}
        # Leaf selections (see Database.selection_cache_stats).
        selections = self.database.selection_cache_stats
        lookups = selections["hits"] + selections["misses"]
        stats["selections"] = {
            "hits": selections["hits"], "misses": selections["misses"],
            "evictions": selections["clears"],
            "size": selections["entries"],
            "hit_rate": selections["hits"] / lookups if lookups else 0.0}
        return stats

    def invalidate_caches(self) -> None:
        """Drop cached query results and plans, to free memory or to
        make the next asks miss (benchmarks do).  Never needed for
        correctness: neither cache can serve a stale answer."""
        if self.result_cache is not None:
            self.result_cache.clear()
        if self.planner.plan_cache is not None:
            self.planner.plan_cache.clear()

    # ------------------------------------------------------------------

    @contextmanager
    def _request(self, name: str):
        """Wrap one ask: a (root-or-nested) span plus request metrics.

        The latency histogram and request/error counters are recorded
        unconditionally — they are the serving SLO signal and must work
        with ``MUVE_TRACING=off``; only the span tree is gated on the
        tracer.

        Also opens the resilience scopes: a fresh degradation-event
        collector (so the response reports exactly its own rungs) and —
        unless the caller already set one — the instance deadline."""
        begin = time.perf_counter()
        error_type: str | None = None
        budget = (None if current_deadline() is not None
                  else self.deadline_ms)
        with trace_span(name) as span:
            try:
                with degradation_scope(), deadline_scope(budget):
                    yield span
            except Exception as exc:
                error_type = type(exc).__name__
                raise
            finally:
                # Recorded while the span is still open, so a trace
                # accounts for this time and the exemplar carries the
                # request's trace id.
                self._record_request(name, begin, error_type)

    def _record_request(self, name: str, begin: float,
                        error_type: str | None) -> None:
        elapsed_ms = (time.perf_counter() - begin) * 1000.0
        request = name.removeprefix("muve.")
        self.metrics.histogram("muve_request_ms", request=request).observe(
            elapsed_ms, exemplar=current_trace_id())
        status = "error" if error_type is not None else "ok"
        self.metrics.counter("muve_requests", request=request,
                             status=status).inc()
        if error_type is not None:
            self.metrics.counter("errors", where="muve",
                                 type=error_type).inc()
        self.slo.record("latency_p95", elapsed_ms <= self._slo_latency_ms)
        self.slo.record("error_rate", error_type is None)

    def ask_voice(self, utterance: str,
                  strategy: ProcessingStrategy | None = None,
                  intended: AggregateQuery | None = None,
                  ) -> MuveResponse:
        """Answer a spoken query: noisy transcription, then the shared
        text pipeline (what :meth:`ask` runs).

        *intended* is the ground-truth query when the caller knows it
        (the workload generator speaks a query it chose, so it does);
        quality telemetry then reports the intended query's candidate
        rank and whether the answer highlighted, showed, or missed it.
        """
        with self._request("muve.ask_voice") as span:
            with trace_span("muve.speech") as speech_span:
                try:
                    transcript = self._speech.transcribe(utterance)
                except (DeadlineExceeded, TransientError) as exc:
                    # Identity-transcript rung: with the recogniser down
                    # the utterance itself is the best transcript guess —
                    # the candidate generator downstream handles the
                    # (now absent) recognition noise anyway.
                    record_degradation("speech", "identity_transcript",
                                       exception_reason(exc))
                    transcript = utterance
                speech_span.set_attribute("words",
                                          len(utterance.split()))
                speech_span.set_attribute("exact",
                                          transcript == utterance)
            span.set_attribute("transcript", transcript)
            return self._run_pipeline(transcript, strategy, utterance,
                                      intended=intended,
                                      request="ask_voice")

    def ask(self, text: str,
            strategy: ProcessingStrategy | None = None,
            utterance: str | None = None,
            intended: AggregateQuery | None = None) -> MuveResponse:
        """Answer a typed (or already transcribed) query.  *intended*
        is the ground-truth query when known (see :meth:`ask_voice`)."""
        with self._request("muve.ask"):
            return self._run_pipeline(text, strategy, utterance,
                                      intended=intended)

    def _run_pipeline(self, text: str,
                      strategy: ProcessingStrategy | None,
                      utterance: str | None,
                      intended: AggregateQuery | None = None,
                      request: str = "ask") -> MuveResponse:
        """Translate -> candidates -> plan -> execute, stage by stage."""
        with trace_span("muve.translate") as span:
            seed_query = self._text_to_sql.translate(text)
            span.set_attribute("sql", seed_query.to_sql())
        candidates = self._candidate_distribution(seed_query)
        problem = MultiplotSelectionProblem(candidates,
                                            geometry=self.geometry)
        planning = self.planner.plan(problem)
        shown, updates = self._execute_resilient(planning.multiplot,
                                                 strategy)
        response = MuveResponse(
            utterance=utterance if utterance is not None else text,
            transcript=text,
            seed_query=seed_query,
            candidates=candidates,
            planning=planning,
            updates=updates,
            headline=self._headline(shown),
            geometry=self.geometry,
            degradations=current_degradations(),
        )
        record = self._assess(response, assess_response, intended,
                              request)
        return replace(response, quality=record)

    def _assess(self, response, assess, intended, request,
                ) -> QualityRecord:
        """Score the finished answer: quality record -> ``quality_*``
        instruments, workload analytics, and the truth-coverage SLO.
        Pure arithmetic over the response, so it costs microseconds and
        works with tracing off."""
        get_workload_analytics().record_template(
            template_signature(response.seed_query))
        record = assess(response, intended=intended)
        record_quality(record, self.metrics, request=request,
                       exemplar=current_trace_id())
        self.slo.record("truth_coverage",
                        record.truth_coverage
                        >= self._slo_coverage_floor)
        return record

    def _candidate_distribution(self, seed_query: AggregateQuery,
                                ) -> tuple[CandidateQuery, ...]:
        """The candidate stage with its two degradation rungs.

        On failure or an already-blown budget the distribution collapses
        to the seed query alone (probability 1); under deadline pressure
        (less than half the budget left before planning even starts) the
        full distribution is truncated to its top-m prefix and
        renormalised — candidates come out of the generator best-first,
        so the prefix is the m most likely interpretations."""
        with trace_span("muve.candidates") as span:
            try:
                fault_point("candidates.generate")
                deadline = current_deadline()
                if deadline is not None:
                    deadline.check("candidates.generate")
                candidates = tuple(self._candidate_generator.candidates(
                    seed_query, self.max_candidates))
            except (DeadlineExceeded, TransientError) as exc:
                record_degradation("candidates", "seed_only",
                                   exception_reason(exc))
                span.set_attribute("count", 1)
                span.set_attribute("degraded", "seed_only")
                return (CandidateQuery(seed_query, 1.0),)
            deadline = current_deadline()
            if (deadline is not None
                    and deadline.remaining_fraction()
                    < CANDIDATE_PRESSURE_FRACTION):
                top_m = max(3, self.max_candidates // 4)
                if top_m < len(candidates):
                    kept = candidates[:top_m]
                    total = sum(c.probability for c in kept)
                    record_degradation(
                        "candidates", "top_m", "deadline_pressure",
                        detail=f"{len(candidates)} -> {len(kept)}")
                    span.set_attribute("degraded", "top_m")
                    candidates = tuple(
                        CandidateQuery(c.query, c.probability / total)
                        for c in kept)
            span.set_attribute("count", len(candidates))
            return candidates

    def _execute_resilient(self, multiplot: Multiplot,
                           strategy: ProcessingStrategy | None,
                           ) -> tuple[Multiplot,
                                      tuple[VisualizationUpdate, ...]]:
        """Execute *multiplot*, shrinking it to its single most likely
        plot when the budget is (nearly) gone.

        The shrink prunes the *already planned* multiplot, so the
        degraded plot set is a subset of what the full response would
        have shown (the differential-test invariant).  The single-plot
        rerun executes in deadline grace: it is the cheapest answer we
        can still render, so it must not be interrupted again."""
        deadline = current_deadline()
        if (deadline is not None and multiplot.num_plots > 1
                and deadline.remaining_fraction()
                < EXECUTION_PRESSURE_FRACTION):
            # Pre-emptive shrink: not enough budget left to fill every
            # plot, so don't start work we would abandon half-way.
            record_degradation(
                "executor", "single_plot", "deadline_pressure",
                detail=f"{multiplot.num_plots} -> 1 plots")
            multiplot = _best_single_plot(multiplot)
            with deadline_grace():
                return multiplot, tuple(
                    self._executor.run(multiplot, strategy=strategy))
        try:
            return multiplot, tuple(
                self._executor.run(multiplot, strategy=strategy))
        except (DeadlineExceeded, TransientError) as exc:
            if (not isinstance(exc, DeadlineExceeded)
                    and multiplot.num_plots <= 1):
                # A transient failure with nothing left to shed: the
                # rerun would hit the same fault, so surface it (the
                # session retry layer handles transience).
                raise
            record_degradation("executor", "single_plot",
                               exception_reason(exc),
                               detail=f"{multiplot.num_plots} -> 1 plots")
            multiplot = _best_single_plot(multiplot)
            with deadline_grace():
                return multiplot, tuple(
                    self._executor.run(multiplot, strategy=strategy))

    def ask_trend(self, text: str,
                  utterance: str | None = None,
                  intended: AggregateQuery | None = None,
                  ) -> TrendResponse:
        """Answer a trend question ("average arr delay by month ...")
        with a line-plot multiplot (the Section 11 extension)."""
        from repro.timeseries import (
            SeriesPlanner,
            SeriesQuery,
            execute_series_multiplot,
            series_candidates,
        )
        with self._request("muve.ask_trend"):
            with trace_span("muve.translate") as span:
                base, x_column = self._text_to_sql.translate_trend(text)
                span.set_attribute("sql", base.to_sql())
                span.set_attribute("x_column", x_column)
            seed = SeriesQuery(base, x_column)
            with trace_span("muve.candidates") as span:
                candidates = series_candidates(
                    self.database, seed,
                    max_candidates=min(self.max_candidates, 12),
                    generator=self._candidate_generator)
                span.set_attribute("count", len(candidates))
            with trace_span("planner.plan", planner="series") as span:
                planner = SeriesPlanner(geometry=self.geometry)
                solution = planner.plan(self.database, seed, candidates)
                span.set_attribute("expected_cost",
                                   round(solution.expected_cost, 3))
            with trace_span("executor.run", strategy="series"):
                filled = execute_series_multiplot(self.database,
                                                  solution.multiplot)
            response = TrendResponse(
                utterance=utterance if utterance is not None else text,
                transcript=text,
                seed_query=base,
                x_column=x_column,
                candidates=tuple(candidates),
                multiplot=filled,
                expected_cost=solution.expected_cost,
                degradations=current_degradations(),
            )
            record = self._assess(response, assess_trend_response,
                                  intended, "ask_trend")
            return replace(response, quality=record)

    # ------------------------------------------------------------------

    def _headline(self, multiplot: Multiplot) -> str:
        """The common-elements line above the plots (Figure 2b): the
        predicates and aggregate shared by every displayed query."""
        queries = list(multiplot.displayed_queries())
        if not queries:
            return f"No interpretations found on {self.table_name}"
        shared_aggregate = {q.aggregate for q in queries}
        shared_predicates = set(queries[0].predicates)
        for query in queries[1:]:
            shared_predicates &= set(query.predicates)
        parts = []
        if len(shared_aggregate) == 1:
            parts.append(next(iter(shared_aggregate)).to_sql())
        parts.append(f"FROM {self.table_name}")
        if shared_predicates:
            ordered = sorted(shared_predicates,
                             key=lambda p: p.sort_key())
            parts.append("WHERE " + " AND ".join(p.to_sql()
                                                 for p in ordered))
        return " ".join(parts)


def _best_single_plot(multiplot: Multiplot) -> Multiplot:
    """The one plot carrying the most candidate probability mass.

    Ties break on plot title so the choice is deterministic.  Used by
    the single-plot degradation rung: the result's plot set is by
    construction a subset of *multiplot*'s.
    """
    plots = list(multiplot.plots())
    if len(plots) <= 1:
        return multiplot
    best = max(plots, key=lambda plot: (plot.probability_mass(),
                                        plot.template.title()))
    return Multiplot(((best,),))
