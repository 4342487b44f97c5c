"""Tests for progressive presentation strategies and the executor."""

import gc

import pytest

from repro.core.greedy import GreedySolver
from repro.core.model import ScreenGeometry
from repro.core.problem import MultiplotSelectionProblem
from repro.execution.engine import MuveExecutor
from repro.execution.progressive import (
    ApproximateProcessing,
    DefaultProcessing,
    IncrementalPlotting,
)
from repro.errors import ExecutionError


@pytest.fixture()
def planned(nyc_db, nyc_candidates):
    problem = MultiplotSelectionProblem(
        nyc_candidates,
        geometry=ScreenGeometry(width_pixels=1500, num_rows=2))
    return problem, GreedySolver().solve(problem).multiplot


class TestDefaultProcessing:
    def test_single_final_update(self, nyc_db, planned):
        _, multiplot = planned
        updates = MuveExecutor(nyc_db).run(multiplot, DefaultProcessing())
        assert len(updates) == 1
        assert updates[0].final
        assert not updates[0].approximate

    def test_all_bars_get_values(self, nyc_db, planned):
        _, multiplot = planned
        update = MuveExecutor(nyc_db).run(multiplot,
                                          DefaultProcessing())[0]
        for plot in update.multiplot.plots():
            for bar in plot.bars:
                # value may legitimately be None (e.g. AVG over an empty
                # group), but the common case must be filled.
                pass
        filled = sum(1 for p in update.multiplot.plots()
                     for b in p.bars if b.value is not None)
        assert filled >= update.multiplot.num_bars * 0.5

    def test_values_match_direct_execution(self, nyc_db, planned):
        _, multiplot = planned
        update = MuveExecutor(nyc_db).run(multiplot,
                                          DefaultProcessing())[0]
        checked = 0
        for plot in update.multiplot.plots():
            for bar in plot.bars[:2]:
                if bar.value is None:
                    continue
                direct = nyc_db.execute(bar.query).scalar()
                assert bar.value == pytest.approx(direct)
                checked += 1
        assert checked > 0

    def test_structure_preserved(self, nyc_db, planned):
        _, multiplot = planned
        update = MuveExecutor(nyc_db).run(multiplot,
                                          DefaultProcessing())[0]
        assert update.multiplot.num_bars == multiplot.num_bars
        assert update.multiplot.num_highlighted_bars == \
            multiplot.num_highlighted_bars


class TestIncrementalPlotting:
    def test_one_update_per_plot(self, nyc_db, planned):
        _, multiplot = planned
        updates = MuveExecutor(nyc_db).run(multiplot,
                                           IncrementalPlotting())
        assert len(updates) == multiplot.num_plots
        assert updates[-1].final
        assert all(not u.final for u in updates[:-1])

    def test_plot_counts_grow(self, nyc_db, planned):
        _, multiplot = planned
        updates = MuveExecutor(nyc_db).run(multiplot,
                                           IncrementalPlotting())
        counts = [u.multiplot.num_plots for u in updates]
        assert counts == sorted(counts)
        assert counts[-1] == multiplot.num_plots

    def test_elapsed_monotone(self, nyc_db, planned):
        _, multiplot = planned
        updates = MuveExecutor(nyc_db).run(multiplot,
                                           IncrementalPlotting())
        times = [u.elapsed_seconds for u in updates]
        assert times == sorted(times)

    def test_empty_multiplot_single_update(self, nyc_db):
        from repro.core.model import Multiplot
        updates = MuveExecutor(nyc_db).run(Multiplot.empty(1),
                                           IncrementalPlotting())
        assert len(updates) == 1
        assert updates[0].final


class TestApproximateProcessing:
    def test_two_updates_approximate_then_final(self, nyc_db, planned):
        _, multiplot = planned
        updates = MuveExecutor(nyc_db).run(
            multiplot, ApproximateProcessing(fraction=0.05))
        assert len(updates) == 2
        assert updates[0].approximate and not updates[0].final
        assert updates[1].final and not updates[1].approximate

    def test_counts_scaled_to_full_data(self, nyc_db):
        """A sampled COUNT must be extrapolated, not reported raw."""
        from repro.sqldb.query import AggregateQuery
        from repro.core.greedy import GreedySolver
        from repro.nlq.candidates import CandidateQuery

        query = AggregateQuery.build("nyc311", "count", None,
                                     {"borough": "Brooklyn"})
        problem = MultiplotSelectionProblem(
            (CandidateQuery(query, 1.0),),
            geometry=ScreenGeometry(width_pixels=1200))
        multiplot = GreedySolver().solve(problem).multiplot
        updates = MuveExecutor(nyc_db).run(
            multiplot, ApproximateProcessing(fraction=0.2))
        approx = updates[0].value_of(query)
        exact = updates[1].value_of(query)
        assert approx is not None and exact is not None
        assert approx == pytest.approx(exact, rel=0.5)

    def test_dynamic_variant_runs(self, nyc_db, planned):
        _, multiplot = planned
        updates = MuveExecutor(nyc_db).run(
            multiplot, ApproximateProcessing(fraction=None,
                                             target_seconds=0.2))
        assert updates[-1].final

    def test_each_database_calibrates_its_own_throughput(self):
        """``id()`` is reused once a database is collected, so a figure
        keyed on it would hand one database's rows/second to the next
        database, whatever its size."""
        from repro.datasets import make_nyc311_table
        from repro.sqldb.database import Database
        strategy = ApproximateProcessing(fraction=None)
        probed = []
        for rows in (200, 3000) * 4:
            database = Database()
            database.register_table(make_nyc311_table(rows, seed=1))
            executed = []
            execute = database.execute
            database.execute = (
                lambda query, rng=None, execute=execute, executed=executed:
                executed.append(query) or execute(query, rng))
            strategy._calibrate(database, database.table("nyc311"))
            probed.append(bool(executed))
            del database, execute
            gc.collect()
        assert probed == [True] * 8

    def test_invalid_fraction(self):
        with pytest.raises(ExecutionError):
            ApproximateProcessing(fraction=0.0)
        with pytest.raises(ExecutionError):
            ApproximateProcessing(fraction=1.5)

    def test_strategy_names(self):
        assert ApproximateProcessing(fraction=0.01).name == "app-1%"
        assert ApproximateProcessing(fraction=0.05).name == "app-5%"
        assert ApproximateProcessing(fraction=None).name == "app-d"


class TestIlpIncremental:
    def test_updates_produced_and_final(self, nyc_db, nyc_candidates):
        problem = MultiplotSelectionProblem(
            nyc_candidates[:10],
            geometry=ScreenGeometry(width_pixels=900))
        updates = MuveExecutor(nyc_db).run_incremental_ilp(
            problem, total_budget=2.0)
        assert updates
        assert updates[-1].final

    def test_shows_result_for_helper(self, nyc_db, planned):
        _, multiplot = planned
        update = MuveExecutor(nyc_db).run(multiplot,
                                          DefaultProcessing())[0]
        shown = [b.query for p in update.multiplot.plots()
                 for b in p.bars if b.value is not None]
        if shown:
            assert update.shows_result_for(shown[0])
        from repro.sqldb.query import AggregateQuery
        ghost = AggregateQuery.build("nyc311", "count", None,
                                     {"borough": "Nowhere"})
        assert not update.shows_result_for(ghost)


class TestIncrementalOrdering:
    def test_probability_order_shows_likely_plot_first(self, nyc_db,
                                                       planned):
        _, multiplot = planned
        if multiplot.num_plots < 2:
            pytest.skip("needs at least two plots")
        updates = MuveExecutor(nyc_db).run(
            multiplot, IncrementalPlotting(order="probability"))
        # The first update contains the plot with the highest mass.
        first_plots = list(updates[0].multiplot.plots())
        best_mass = max(p.probability_mass() for p in multiplot.plots())
        assert any(abs(p.probability_mass() - best_mass) < 1e-12
                   for p in first_plots)

    def test_layout_order_preserved(self, nyc_db, planned):
        _, multiplot = planned
        updates = MuveExecutor(nyc_db).run(
            multiplot, IncrementalPlotting(order="layout"))
        assert len(updates) == multiplot.num_plots
        assert updates[-1].final

    def test_invalid_order_rejected(self):
        with pytest.raises(ExecutionError):
            IncrementalPlotting(order="random")
