"""Tests for the line-plot (time-series) extension."""

import pytest

from repro.core.model import ScreenGeometry
from repro.errors import CandidateGenerationError, PlanningError
from repro.sqldb.database import Database
from repro.sqldb.query import AggregateQuery
from repro.datasets import make_flights_table
from repro.timeseries import (
    SeriesPlanner,
    SeriesQuery,
    execute_series_multiplot,
    render_series_svg,
    render_series_text,
    series_candidates,
)
from repro.nlq.templates import QueryTemplate
from repro.sqldb.expressions import AggregateCall, AggregateFunction
from repro.sqldb.query import Predicate
from repro.timeseries.model import Series, SeriesMultiplot, SeriesPlot


@pytest.fixture(scope="module")
def flights_db() -> Database:
    db = Database(seed=0)
    db.register_table(make_flights_table(num_rows=8000, seed=3))
    return db


@pytest.fixture(scope="module")
def seed_series() -> SeriesQuery:
    base = AggregateQuery.build("flights", "avg", "arr_delay",
                                {"carrier": "Delta"})
    return SeriesQuery(base, "month")


@pytest.fixture(scope="module")
def planned(flights_db, seed_series):
    candidates = series_candidates(flights_db, seed_series, 10)
    planner = SeriesPlanner(
        geometry=ScreenGeometry(width_pixels=2400, num_rows=2))
    solution = planner.plan(flights_db, seed_series, candidates)
    return candidates, solution


class TestSeriesQuery:
    def test_sql_shape(self, seed_series):
        sql = seed_series.to_sql()
        assert sql.startswith("SELECT month, AVG(arr_delay)")
        assert "GROUP BY month ORDER BY month" in sql

    def test_x_column_cannot_be_predicated(self):
        base = AggregateQuery.build("flights", "avg", "arr_delay",
                                    {"month": "May"})
        with pytest.raises(PlanningError):
            SeriesQuery(base, "month")


class TestSeriesCandidates:
    def test_normalised_and_seed_first(self, flights_db, seed_series):
        candidates = series_candidates(flights_db, seed_series, 10)
        assert sum(c.probability for c in candidates) == pytest.approx(1.0)
        assert candidates[0].query == seed_series.base

    def test_x_axis_collisions_dropped(self, flights_db, seed_series):
        for candidate in series_candidates(flights_db, seed_series, 15):
            assert all(p.column != "month"
                       for p in candidate.query.predicates)

    def test_continuous_x_rejected(self, flights_db):
        base = AggregateQuery.build("flights", "count", None,
                                    {"carrier": "Delta"})
        with pytest.raises(CandidateGenerationError):
            series_candidates(flights_db,
                              SeriesQuery(base, "dep_delay"), 10)


class TestSeriesPlanner:
    def test_fits_budget(self, planned):
        _, solution = planned
        assert solution.multiplot.num_plots >= 1
        assert len(solution.multiplot.rows) == 2

    def test_seed_query_shown(self, planned, seed_series):
        _, solution = planned
        assert solution.multiplot.shows(seed_series.base)

    def test_series_cap_respected(self, planned):
        _, solution = planned
        for plot in solution.multiplot.plots():
            assert plot.num_bars <= 4

    def test_no_duplicate_series(self, planned):
        _, solution = planned
        assert not solution.multiplot.duplicate_queries()

    def test_prefix_highlighting(self, planned):
        _, solution = planned
        for plot in solution.multiplot.plots():
            flags = [line.highlighted for line in plot.series]
            seen_false = False
            for flag in flags:
                if not flag:
                    seen_false = True
                assert not (flag and seen_false)

    def test_cost_beats_empty(self, planned):
        candidates, solution = planned
        planner = SeriesPlanner()
        empty_cost = planner.cost_model.expected_cost(
            SeriesMultiplot.empty(1), candidates)
        assert solution.expected_cost < empty_cost

    def test_too_narrow_screen_rejected(self, flights_db, seed_series):
        candidates = series_candidates(flights_db, seed_series, 5)
        planner = SeriesPlanner(
            geometry=ScreenGeometry(width_pixels=150))
        with pytest.raises(PlanningError):
            planner.plan(flights_db, seed_series, candidates)


class TestSeriesExecution:
    def test_points_filled_and_sorted(self, flights_db, planned):
        _, solution = planned
        filled = execute_series_multiplot(flights_db, solution.multiplot)
        filled_series = [line for plot in filled.plots()
                         for line in plot.series if line.points]
        assert filled_series
        for line in filled_series:
            keys = [repr(x) for x, _ in line.points]
            assert keys == sorted(keys)

    def test_merged_matches_single_execution(self, flights_db, planned,
                                             seed_series):
        """The per-plot merged GROUP BY must agree with executing the
        seed's series alone."""
        _, solution = planned
        filled = execute_series_multiplot(flights_db, solution.multiplot)
        merged_points = dict(filled.bar_for(seed_series.base).points)
        direct = flights_db.execute(seed_series.to_sql())
        for row in direct.rows:
            assert merged_points[row[0]] == pytest.approx(row[1])

    def test_line_repeating_anchor_runs_alone(self, flights_db):
        """A line filtering the anchor column twice cannot be read off the
        merged ``GROUP BY x, anchor`` statement (its row would be looked
        up by its first anchor predicate); it must show what its own
        GROUP BY returns — here no rows."""
        template = QueryTemplate(
            "pred_value", "flights", AggregateFunction.AVG, "arr_delay",
            (Predicate("carrier", "Alaska"),), anchor="carrier")
        lines = tuple(
            Series(AggregateQuery(
                "flights", AggregateCall(AggregateFunction.AVG, "arr_delay"),
                (Predicate("carrier", "Alaska"),
                 Predicate("carrier", other))), 0.5, other)
            for other in ("Allegiant", "American"))
        plot = SeriesPlot(template, "month", lines)
        filled = execute_series_multiplot(flights_db,
                                          SeriesMultiplot(((plot,),)))
        for line in next(filled.plots()).series:
            direct = flights_db.execute(
                SeriesQuery(line.query, "month").to_sql())
            assert line.points == tuple(direct.rows) == ()

    def test_structure_preserved(self, flights_db, planned):
        _, solution = planned
        filled = execute_series_multiplot(flights_db, solution.multiplot)
        assert filled.num_plots == solution.multiplot.num_plots
        assert filled.num_bars == solution.multiplot.num_bars
        assert filled.num_highlighted_bars == \
            solution.multiplot.num_highlighted_bars


class TestSeriesRendering:
    def test_text_contains_sparkline(self, flights_db, planned):
        _, solution = planned
        filled = execute_series_multiplot(flights_db, solution.multiplot)
        text = render_series_text(filled, headline="H")
        assert "H" in text
        assert any(ch in text for ch in "▁▂▃▄▅▆▇█")

    def test_empty_multiplot_text(self):
        assert "empty" in render_series_text(SeriesMultiplot.empty(1))

    def test_svg_well_formed(self, flights_db, planned):
        import xml.etree.ElementTree as ET
        _, solution = planned
        filled = execute_series_multiplot(flights_db, solution.multiplot)
        svg = render_series_svg(filled, headline="lines")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "polyline" in svg

    def test_highlight_color_used(self, flights_db, planned):
        _, solution = planned
        filled = execute_series_multiplot(flights_db, solution.multiplot)
        if filled.num_highlighted_bars:
            assert "#d62728" in render_series_svg(filled)


class TestDuckTypedCostModel:
    def test_cost_model_counts_series_like_bars(self):
        from repro.core.cost_model import UserCostModel
        from repro.nlq.candidates import CandidateQuery
        from repro.nlq.templates import templates_of
        base = AggregateQuery.build("flights", "avg", "arr_delay",
                                    {"carrier": "Delta"})
        template = next(t for t in templates_of(base)
                        if t.kind == "pred_value")
        line = Series(query=base, probability=1.0, label="Delta",
                      highlighted=True)
        plot = SeriesPlot(template, "month", (line,))
        multiplot = SeriesMultiplot(((plot,),))
        model = UserCostModel(bar_cost=100, plot_cost=500,
                              miss_cost=10_000)
        cost = model.expected_cost(multiplot,
                                   [CandidateQuery(base, 1.0)])
        assert cost == pytest.approx(model.d_red(1, 1))


class TestMergedSeriesEquivalenceProperty:
    def test_all_plots_match_per_series_execution(self, flights_db,
                                                  planned):
        """Every series' merged points must equal executing that series'
        own GROUP BY query directly — across every plot kind the planner
        produced (pred_value, agg_func/agg_column, singleton)."""
        _, solution = planned
        filled = execute_series_multiplot(flights_db, solution.multiplot)
        checked = 0
        for plot in filled.plots():
            for line in plot.series:
                sql = (f"SELECT {plot.x_column}, "
                       f"{line.query.aggregate.to_sql()} "
                       f"FROM {line.query.table}")
                if line.query.predicates:
                    conditions = " AND ".join(
                        p.to_sql() for p in line.query.predicates)
                    sql += f" WHERE {conditions}"
                sql += f" GROUP BY {plot.x_column}"
                direct = {row[0]: row[1]
                          for row in flights_db.execute(sql).rows}
                merged = dict(line.points)
                for key, value in merged.items():
                    assert direct[key] == pytest.approx(value)
                checked += 1
        assert checked >= 2
