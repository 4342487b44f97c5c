"""Each rung of the degradation ladder, deterministically triggered.

The ladder (DESIGN.md, "Resilience"):

    planner     ILP / best      -> lazy greedy
    executor    one-pass batch  -> per-group loop
    executor    full multiplot  -> single most-likely plot
    candidates  full expansion  -> top-m prefix / seed only
    phonetics   k-NN lookup     -> element skipped / tail truncated
    speech      noisy channel   -> identity transcript
"""

from __future__ import annotations

import time

import pytest

from repro.observability import get_registry
from repro.resilience import deadline_scope
from repro.testing.faults import inject_faults

from tests.resilience.conftest import QUESTION


def degraded_counter_total() -> float:
    return sum(value for name, labels, value
               in get_registry().iter_counters()
               if name == "resilience_degraded")


def events(response) -> set[tuple[str, str]]:
    return {(e.site, e.action) for e in response.degradations}


class TestPlannerRung:
    def test_stall_at_planner_degrades_to_greedy_within_budget(self, muve):
        """The ISSUE acceptance core: a 100% stall at planner.solve under
        a 500 ms deadline still answers — greedy-planned, within 2x the
        deadline, carrying the DegradationEvent — and the degradation is
        visible in the metrics registry."""
        before = degraded_counter_total()
        with inject_faults("planner.solve:stall"):
            begin = time.perf_counter()
            with deadline_scope(500):
                response = muve.ask(QUESTION)
            elapsed_ms = (time.perf_counter() - begin) * 1000.0
        assert elapsed_ms < 2 * 500
        assert response.degraded
        assert ("planner", "ilp_to_greedy") in events(response)
        assert response.planning.solver_name == "greedy"
        assert response.multiplot.num_plots >= 1
        assert degraded_counter_total() > before

    def test_solver_error_degrades_to_greedy(self, muve):
        with inject_faults("planner.solve:error=SolverError"):
            response = muve.ask(QUESTION)
        assert ("planner", "ilp_to_greedy") in events(response)
        planner_events = [e for e in response.degradations
                          if e.site == "planner"]
        assert planner_events[0].reason == "error:SolverError"

    def test_ilp_strategy_degrades_instead_of_failing(self, muve):
        from repro.core.planner import VisualizationPlanner
        from repro.core.problem import MultiplotSelectionProblem
        planner = VisualizationPlanner(strategy="ilp")
        problem = MultiplotSelectionProblem(
            muve.ask(QUESTION).candidates, geometry=muve.geometry)
        with inject_faults("planner.solve:error=SolverError"):
            result = planner.plan(problem)
        assert result.solver_name == "greedy"


    def test_deadline_on_a_two_row_screen_keeps_the_full_multiplot(
            self, muve):
        """A two-row screen routes the ILP to the MILP, whose 1 s limit
        a 500 ms deadline cannot fit: the planner keeps greedy's plan
        without starting the MILP, so execution still has its share of
        the budget and the whole multiplot is served."""
        from repro import Muve, VisualizationPlanner
        greedy = muve.ask(QUESTION)
        best = Muve(muve.database, "nyc311", seed=1,
                    geometry=muve.geometry,
                    planner=VisualizationPlanner(strategy="best"),
                    enable_caching=False)
        with deadline_scope(500):
            response = best.ask(QUESTION)
        assert [(e.site, e.action, e.reason)
                for e in response.degradations] == [
            ("planner", "ilp_to_greedy", "deadline_pressure")]
        assert response.multiplot == greedy.multiplot
        assert response.multiplot.num_plots > 1


class TestExecutorRungs:
    def test_batch_failure_falls_back_to_per_group(self, muve):
        baseline = muve.ask(QUESTION)
        with inject_faults("executor.batch:error") as plan:
            degraded = muve.ask(QUESTION)
        assert plan.fired("executor.batch") >= 1
        assert ("executor", "batch_to_per_group") in events(degraded)
        # The per-group loop computes bit-identical results.
        assert _bar_values(degraded) == _bar_values(baseline)

    def test_exhausted_deadline_shrinks_to_single_plot(self, muve):
        baseline = muve.ask(QUESTION)
        assert baseline.multiplot.num_plots > 1  # rung must have work
        with inject_faults("executor.batch:exhaust_deadline"):
            with deadline_scope(60_000):
                degraded = muve.ask(QUESTION)
        assert ("executor", "single_plot") in events(degraded)
        assert degraded.multiplot.num_plots == 1
        # The one surviving plot is one of the baseline's plots.
        baseline_plots = {_plot_key(p)
                          for p in baseline.multiplot.plots()}
        (kept,) = degraded.multiplot.plots()
        assert _plot_key(kept) in baseline_plots

    def test_single_plot_carries_the_most_probability(self, muve):
        baseline = muve.ask(QUESTION)
        with inject_faults("executor.batch:exhaust_deadline"):
            with deadline_scope(60_000):
                degraded = muve.ask(QUESTION)
        (kept,) = degraded.multiplot.plots()
        best_mass = max(p.probability_mass()
                        for p in baseline.multiplot.plots())
        assert kept.probability_mass() == pytest.approx(best_mass)


class TestCandidateRungs:
    def test_candidate_failure_collapses_to_seed(self, muve):
        with inject_faults("candidates.generate:error"):
            response = muve.ask(QUESTION)
        assert ("candidates", "seed_only") in events(response)
        assert len(response.candidates) == 1
        assert response.candidates[0].query == response.seed_query
        assert response.candidates[0].probability == 1.0

    def test_deadline_pressure_truncates_to_top_m(self, muve):
        baseline = muve.ask(QUESTION)
        # Burn >half the budget before candidate generation even runs:
        # the post-generation pressure check must truncate to top-m.
        with inject_faults("candidates.generate:delay=300"):
            with deadline_scope(450):
                response = muve.ask(QUESTION)
        assert ("candidates", "top_m") in events(response)
        top_m = max(3, muve.max_candidates // 4)
        assert len(response.candidates) == top_m
        # Prefix of the same best-first ranking, renormalised.
        assert ([c.query for c in response.candidates]
                == [c.query for c in baseline.candidates[:top_m]])
        assert sum(c.probability for c in response.candidates) \
            == pytest.approx(1.0)


class TestPhoneticsRungs:
    def test_lookup_failure_skips_element_not_request(self, muve):
        baseline = muve.ask(QUESTION)
        with inject_faults("phonetics.lookup:error"):
            response = muve.ask(QUESTION)
        assert ("phonetics", "alternatives_skipped") in events(response)
        # The seed interpretation survives and the answer still renders.
        assert response.candidates[0].query == response.seed_query
        assert len(response.candidates) <= len(baseline.candidates)
        assert response.to_text()

    def test_expired_deadline_truncates_alternative_collection(self, muve):
        # exhaust fires at the *first* phonetic probe, which then fails
        # its own deadline check (-> skipped); every element after it
        # sees the expired deadline at the loop head (-> truncated).
        with inject_faults("phonetics.lookup:exhaust_deadline#1"):
            with deadline_scope(60_000):
                response = muve.ask(QUESTION)
        actions = events(response)
        assert ("phonetics", "alternatives_skipped") in actions
        assert ("phonetics", "alternatives_truncated") in actions
        # The seed interpretation still answers the question.
        assert response.candidates[0].query == response.seed_query

    def test_exhaust_at_candidates_probe_collapses_to_seed(self, muve):
        # At the stage boundary the exhaust is seen by the stage's own
        # check, so the whole stage takes the seed-only rung.
        with inject_faults("candidates.generate:exhaust_deadline"):
            with deadline_scope(60_000):
                response = muve.ask(QUESTION)
        assert ("candidates", "seed_only") in events(response)
        assert len(response.candidates) == 1


class TestSpeechRung:
    def test_speech_failure_means_identity_transcript(self, muve):
        utterance = QUESTION
        with inject_faults("speech.transcribe:error"):
            response = muve.ask_voice(utterance)
        assert ("speech", "identity_transcript") in events(response)
        assert response.transcript == utterance
        assert response.to_text()


class TestIsolationAndCaches:
    def test_degradations_do_not_leak_between_requests(self, muve):
        with inject_faults("planner.solve:error=SolverError"):
            degraded = muve.ask(QUESTION)
        assert degraded.degraded
        clean = muve.ask(QUESTION)
        assert not clean.degraded
        assert clean.degradations == ()

    def test_degraded_plan_not_served_from_plan_cache(self, muve):
        """A deadline-pressure single-plot answer must not poison the
        plan/response path for later pressure-free asks."""
        with inject_faults("executor.batch:exhaust_deadline"):
            with deadline_scope(60_000):
                degraded = muve.ask(QUESTION)
        assert degraded.multiplot.num_plots == 1
        clean = muve.ask(QUESTION)
        assert clean.multiplot.num_plots > 1

    def test_degrade_spans_emitted(self, muve):
        from repro.observability import get_trace_log, trace_span
        with inject_faults("planner.solve:error=SolverError"):
            with trace_span("request"):
                muve.ask(QUESTION)
        trace = get_trace_log().tail(1)[0]
        names = [span.name for span in _walk(trace.root)]
        assert "resilience.degrade" in names


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


def _plot_key(plot) -> tuple:
    return tuple(sorted(bar.query.to_sql() for bar in plot.bars))


def _bar_values(response) -> dict[str, float | None]:
    return {bar.query.to_sql(): bar.value
            for plot in response.multiplot.plots()
            for bar in plot.bars}
