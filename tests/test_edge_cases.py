"""Cross-cutting edge cases and failure paths."""

import pytest

from repro import Database, Muve, ScreenGeometry, VisualizationPlanner
from repro.core.model import Multiplot
from repro.errors import (
    CandidateGenerationError,
    CatalogError,
    ExecutionError,
    PlanningError,
    ReproError,
    SolverError,
    SolverTimeout,
    SqlError,
    SqlSyntaxError,
    TypeMismatchError,
    VisualizationError,
)
from repro.sqldb.types import DataType


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for exc_type in (SqlError, SqlSyntaxError, CatalogError,
                         TypeMismatchError, ExecutionError, PlanningError,
                         SolverError, SolverTimeout,
                         CandidateGenerationError, VisualizationError):
            assert issubclass(exc_type, ReproError)

    def test_sql_errors_grouped(self):
        for exc_type in (SqlSyntaxError, CatalogError, TypeMismatchError,
                         ExecutionError):
            assert issubclass(exc_type, SqlError)

    def test_syntax_error_position(self):
        error = SqlSyntaxError("bad token", position=17)
        assert error.position == 17
        assert "17" in str(error)

    def test_solver_timeout_carries_incumbent(self):
        sentinel = object()
        error = SolverTimeout("deadline", incumbent=sentinel)
        assert error.incumbent is sentinel


class TestEmptyAndTinyTables:
    def test_count_on_empty_table(self):
        db = Database()
        db.create_table("t", [("a", DataType.TEXT),
                              ("v", DataType.INT)])
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0.0

    def test_group_by_on_empty_table(self):
        db = Database()
        db.create_table("t", [("a", DataType.TEXT),
                              ("v", DataType.INT)])
        result = db.execute("SELECT a, COUNT(*) FROM t GROUP BY a")
        assert result.rows == ()

    def test_statistics_on_empty_table(self):
        db = Database()
        db.create_table("t", [("a", DataType.TEXT)])
        stats = db.statistics("t")
        assert stats.num_rows == 0
        assert stats.column("a").n_distinct == 0

    def test_single_row_table_queryable(self):
        db = Database()
        db.create_table("t", [("a", DataType.TEXT),
                              ("v", DataType.FLOAT)])
        db.insert_rows("t", [("only", 2.5)])
        assert db.execute("SELECT AVG(v) FROM t").scalar() == 2.5


class TestMuveEdgeCases:
    @pytest.fixture()
    def tiny_muve(self) -> Muve:
        db = Database(seed=0)
        db.create_table("shop", [("product", DataType.TEXT),
                                 ("price", DataType.FLOAT)])
        db.insert_rows("shop", [("apple", 1.0), ("banana", 2.0),
                                ("cherry", 3.0)] * 5)
        return Muve(db, "shop", seed=1,
                    planner=VisualizationPlanner(strategy="greedy"))

    def test_tiny_vocabulary_still_answers(self, tiny_muve):
        response = tiny_muve.ask("average price for product apple")
        assert response.multiplot.num_bars > 0
        assert response.updates[-1].final

    def test_fewer_candidates_than_requested(self, tiny_muve):
        # The vocabulary only supports a handful of distinct candidates;
        # the distribution must still normalise.
        response = tiny_muve.ask("average price for product apple")
        assert sum(c.probability
                   for c in response.candidates) == pytest.approx(1.0)

    def test_headline_for_empty_multiplot(self, tiny_muve):
        headline = tiny_muve._headline(Multiplot.empty(1))
        assert "No interpretations" in headline

    def test_extremely_narrow_screen(self):
        db = Database(seed=0)
        db.create_table("shop", [("product", DataType.TEXT),
                                 ("price", DataType.FLOAT)])
        db.insert_rows("shop", [("apple", 1.0), ("banana", 2.0)] * 3)
        muve = Muve(db, "shop", seed=1,
                    geometry=ScreenGeometry(width_pixels=90,
                                            bar_width_pixels=60),
                    planner=VisualizationPlanner(strategy="greedy"))
        # Nothing fits: planning must degrade to an empty multiplot, not
        # crash; the response then reports a miss-only visualization.
        response = muve.ask("average price for product apple")
        assert response.multiplot.num_bars == 0


class TestRenderersOnEmptyInput:
    def test_svg_of_empty_multiplot(self):
        from repro.viz.svg import render_svg
        svg = render_svg(Multiplot.empty(2), ScreenGeometry(num_rows=2))
        assert svg.startswith("<svg")

    def test_text_of_empty_multiplot(self):
        from repro.viz.text import render_text
        assert "empty" in render_text(Multiplot.empty(1))


class TestPhoneticIndexPruned:
    def test_pruned_lookup_still_ranks(self):
        from repro.phonetics.index import PhoneticIndex
        from tests.phonetics.scan_oracle import exhaustive_scan
        terms = [f"term{i:03d}" for i in range(200)] + ["brooklyn"]
        index = PhoneticIndex(terms)
        top = index.most_similar("bruklin", k=3)
        assert top[0].term == "brooklyn"
        assert top == exhaustive_scan(index, "bruklin", 3)

    def test_exhaustive_flag_is_gone(self):
        from repro.phonetics.index import PhoneticIndex
        index = PhoneticIndex(["brooklyn"])
        with pytest.raises(TypeError):
            index.most_similar("bruklin", k=3, exhaustive=False)
