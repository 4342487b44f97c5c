"""Quality telemetry: assessment, recording, and the summary."""

import pytest

from repro.muve import Muve
from repro.observability.metrics import MetricsRegistry
from repro.observability.quality import (
    QualityRecord,
    assess_response,
    assess_trend_response,
    quality_summary,
    record_quality,
    render_quality,
)
from repro.observability.slo import SloEngine
from repro.sqldb.query import AggregateQuery


@pytest.fixture()
def muve(nyc_db):
    return Muve(nyc_db, "nyc311", metrics=MetricsRegistry(),
                slo=SloEngine(), enable_caching=False)


def intended_query():
    return AggregateQuery.build(
        "nyc311", "avg", "resolution_hours",
        {"borough": "Brooklyn", "complaint_type": "Noise"})


class TestAssessResponse:
    def test_response_carries_its_quality_record(self, muve):
        response = muve.ask(
            "average resolution hours where borough brooklyn")
        record = response.quality
        assert record is not None
        assert 0.0 <= record.highlight_coverage \
            <= record.truth_coverage <= 1.0
        assert record.realized_cost_ms > 0.0

    def test_undegraded_answer_has_zero_drift(self, muve):
        response = muve.ask(
            "average resolution hours where borough brooklyn")
        record = response.quality
        assert record.degradation_depth == 0
        assert record.cost_drift_ms == pytest.approx(0.0, abs=1e-6)

    def test_intended_query_rank_and_outcome(self, muve):
        intended = intended_query()
        response = muve.ask(
            "average resolution hours where borough brooklyn "
            "and complaint noise", intended=intended)
        record = response.quality
        assert record.intended_rank == 1
        assert record.intended_outcome == "highlighted"
        # Coverage counts the intended candidate's probability.
        assert record.truth_coverage > 0.0

    def test_unknown_intent_reports_unknown(self, muve):
        response = muve.ask(
            "average resolution hours where borough brooklyn")
        assert response.quality.intended_outcome == "unknown"
        assert response.quality.intended_rank is None

    def test_missing_intent_reports_missing(self, muve):
        # A ground truth from another shape entirely: not a candidate.
        intended = AggregateQuery.build("nyc311", "count", None,
                                        {"status": "Open"})
        response = muve.ask(
            "average resolution hours where borough brooklyn",
            intended=intended)
        assert response.quality.intended_outcome == "missing"
        assert response.quality.intended_rank is None

    def test_best_strategy_reports_optimality_gap(self, muve):
        response = muve.ask(
            "average resolution hours where borough brooklyn")
        gap = response.quality.optimality_gap
        # The default planner runs the exact search, so the gap is known
        # (a proven bound: never negative).
        assert gap is not None
        assert gap >= -1.0

    def test_proven_plan_reports_zero_gap(self, muve):
        # One row: the exact search finishes, so the plan is proven.
        response = muve.ask(
            "average resolution hours where borough brooklyn")
        assert response.planning.optimal
        assert response.planning.open_bound == 0.0
        assert response.quality.optimality_gap == 0.0

    def test_timed_out_milp_gap_comes_from_least_tuple_bound(
            self, small_problem, monkeypatch):
        """Two rows take the MILP; a backend out of time before any
        incumbent keeps greedy's plan, and the gap is its distance to
        the least bound of the tuples that could still beat it."""
        from dataclasses import replace

        from repro.core.greedy import GreedySolver
        from repro.core.ilp import translate
        from repro.core.model import ScreenGeometry
        from repro.core.planner import VisualizationPlanner
        from repro.errors import SolverError
        from repro.observability.quality import _optimality_gap

        def out_of_time(model, timeout):
            raise SolverError("time limit before any incumbent")

        monkeypatch.setitem(translate._BACKENDS, "highs", out_of_time)
        problem = replace(small_problem,
                          geometry=ScreenGeometry(num_rows=2))
        planning = VisualizationPlanner(strategy="best").plan(problem)
        greedy_cost = GreedySolver().solve(problem).expected_cost
        template_ids, tuples = translate._templates_and_tuples(
            problem, prune_templates=True, cutoff=greedy_cost)
        assert len(tuples) > 0
        least = float(tuples.bound.min())
        assert not planning.optimal
        assert planning.expected_cost == greedy_cost
        assert planning.open_bound == least
        gap = _optimality_gap(planning)
        assert gap == max(0.0, greedy_cost - least) / greedy_cost
        assert gap >= 0.0

    def test_assess_matches_attached_record(self, muve):
        intended = intended_query()
        response = muve.ask(
            "average resolution hours where borough brooklyn",
            intended=intended)
        again = assess_response(response, intended=intended)
        assert again == response.quality

    def test_trend_response_quality(self, muve):
        response = muve.ask_trend(
            "average resolution hours by month where borough brooklyn")
        record = response.quality
        assert record is not None
        assert record.optimality_gap is None  # single-solver path
        assert record == assess_trend_response(response)


class TestDegradedQuality:
    def test_degradation_depth_and_drift_are_visible(self, nyc_db):
        from repro.testing.faults import inject_faults
        muve = Muve(nyc_db, "nyc311", metrics=MetricsRegistry(),
                    slo=SloEngine(), enable_caching=False)
        with inject_faults("planner.solve:error"):
            response = muve.ask(
                "average resolution hours where borough brooklyn")
        record = response.quality
        assert record.degradation_depth == len(response.degradations)
        assert record.degradation_depth >= 1


class TestRecordAndSummary:
    def make_record(self, **overrides):
        base = dict(truth_coverage=0.9, highlight_coverage=0.8,
                    expected_cost_ms=2000.0, realized_cost_ms=2500.0,
                    optimality_gap=0.05, degradation_depth=1,
                    intended_rank=2, intended_outcome="shown")
        base.update(overrides)
        return QualityRecord(**base)

    def test_record_quality_populates_instruments(self):
        registry = MetricsRegistry()
        record_quality(self.make_record(), registry, request="ask")
        summary = quality_summary(registry)
        assert summary["requests"] == 1.0
        assert summary["degraded_rate"] == 1.0
        assert summary["intended_outcomes"] == {"shown": 1.0}
        assert summary["histograms"]["truth_coverage.ask"][
            "count"] == 1

    def test_cost_drift_is_realized_minus_expected(self):
        record = self.make_record()
        assert record.cost_drift_ms == pytest.approx(500.0)
        assert record.to_dict()["cost_drift_ms"] == \
            pytest.approx(500.0)

    def test_highlighted_rate_ignores_unknown(self):
        registry = MetricsRegistry()
        record_quality(self.make_record(
            intended_outcome="highlighted"), registry)
        record_quality(self.make_record(
            intended_outcome="unknown", intended_rank=None), registry)
        summary = quality_summary(registry)
        assert summary["intended_highlighted_rate"] == 1.0

    def test_exemplar_reaches_the_coverage_histogram(self):
        registry = MetricsRegistry()
        record_quality(self.make_record(), registry, request="ask",
                       exemplar="t00000042")
        snap = registry.histogram(
            "quality_truth_coverage",
            (0.1, 0.25, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0),
            request="ask").snapshot()
        refs = {entry["trace_id"]
                for entry in snap.get("exemplars", {}).values()}
        assert refs == {"t00000042"}

    def test_render_quality_mentions_requests(self):
        registry = MetricsRegistry()
        assert "no requests" in render_quality(registry)
        record_quality(self.make_record(), registry)
        text = render_quality(registry)
        assert "1 requests" in text
        assert "truth_coverage" in text
