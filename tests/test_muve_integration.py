"""End-to-end integration tests of the MUVE façade (the Figure 1 pipeline)."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro import Database, Muve, ScreenGeometry, VisualizationPlanner
from repro.datasets import make_nyc311_table
from repro.execution.progressive import (
    ApproximateProcessing,
    IncrementalPlotting,
)


@pytest.fixture(scope="module")
def muve() -> Muve:
    db = Database(seed=0)
    db.register_table(make_nyc311_table(num_rows=3000, seed=5))
    return Muve(db, "nyc311", seed=1,
                geometry=ScreenGeometry(width_pixels=1125, num_rows=1),
                planner=VisualizationPlanner(strategy="greedy"))


UTTERANCE = ("what is the average resolution hours for borough Brooklyn "
             "and complaint type Noise")


class TestAskText:
    def test_response_structure(self, muve):
        response = muve.ask(UTTERANCE)
        assert response.seed_query.table == "nyc311"
        assert len(response.candidates) == 20
        assert response.updates
        assert response.updates[-1].final

    def test_probabilities_normalised(self, muve):
        response = muve.ask(UTTERANCE)
        assert sum(c.probability
                   for c in response.candidates) == pytest.approx(1.0)

    def test_multiplot_fits_geometry(self, muve):
        response = muve.ask(UTTERANCE)
        assert muve.geometry.fits(response.multiplot)

    def test_seed_query_displayed(self, muve):
        response = muve.ask(UTTERANCE)
        assert response.multiplot.shows(response.seed_query)

    def test_final_multiplot_has_values(self, muve):
        response = muve.ask(UTTERANCE)
        values = [bar.value for plot in response.multiplot.plots()
                  for bar in plot.bars]
        assert any(v is not None for v in values)

    def test_headline_shows_common_elements(self, muve):
        response = muve.ask(UTTERANCE)
        assert "nyc311" in response.headline

    def test_text_rendering(self, muve):
        text = muve.ask(UTTERANCE).to_text()
        assert "row 0" in text

    def test_svg_rendering(self, muve):
        import xml.etree.ElementTree as ET
        svg = muve.ask(UTTERANCE).to_svg()
        ET.fromstring(svg)  # must be well-formed


class TestAskVoice:
    def test_noisy_transcription_still_answers(self, muve):
        response = muve.ask_voice(UTTERANCE)
        assert response.utterance == UTTERANCE
        assert response.updates[-1].final

    def test_transcript_recorded(self, muve):
        response = muve.ask_voice(UTTERANCE)
        assert response.transcript  # may or may not equal the utterance

    def test_recovery_from_misrecognition(self):
        """The headline robustness property: under word-level ASR noise
        the correct interpretation is still displayed most of the time.

        MUVE's candidate generation recovers *element-level* confusions
        (mis-heard values/columns); corruptions of structural words
        ("for", the aggregate keyword) are out of its scope — hence the
        moderate noise level and the majority (not unanimity) threshold.
        """
        db = Database(seed=0)
        db.register_table(make_nyc311_table(num_rows=3000, seed=5))
        muve = Muve(db, "nyc311", seed=7, word_error_rate=0.15,
                    planner=VisualizationPlanner(strategy="greedy"))
        from repro.sqldb.query import AggregateQuery
        intended = AggregateQuery.build(
            "nyc311", "avg", "resolution_hours", {"borough": "Brooklyn"})
        hits = 0
        trials = 10
        for _ in range(trials):
            response = muve.ask_voice(
                "average resolution hours for borough Brooklyn")
            if response.multiplot.shows(intended):
                hits += 1
        assert hits > trials // 2


class TestStrategies:
    def test_incremental_strategy(self, muve):
        response = muve.ask(UTTERANCE, strategy=IncrementalPlotting())
        assert len(response.updates) == response.multiplot.num_plots

    def test_approximate_strategy(self, muve):
        response = muve.ask(
            UTTERANCE, strategy=ApproximateProcessing(fraction=0.1))
        assert response.updates[0].approximate
        assert response.updates[-1].final


# Runs in a fresh interpreter (the test process has long imported
# scipy): builds a Muve with the planner strategy in argv[1], then asks
# one voice question, printing the scipy solver modules loaded after
# each step.
_SOLVER_IMPORTS = textwrap.dedent("""
    import sys
    from repro import Database, Muve, VisualizationPlanner
    from repro.datasets import make_nyc311_table

    def loaded():
        return ",".join(name for name in ("scipy.optimize", "scipy.sparse")
                        if name in sys.modules) or "none"

    db = Database(seed=0)
    db.register_table(make_nyc311_table(num_rows=1000, seed=5))
    muve = Muve(db, "nyc311", seed=1,
                planner=VisualizationPlanner(strategy=sys.argv[1]))
    print(loaded())
    response = muve.ask_voice("count of requests for borough Queens")
    assert response.multiplot.num_plots >= 1
    print(loaded())
""")


def _solver_imports(strategy: str) -> list[str]:
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _SOLVER_IMPORTS, strategy],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


class TestLazySolverImports:
    def test_greedy_muve_never_loads_scipy_solvers(self):
        assert _solver_imports("greedy") == ["none", "none"]

    def test_best_planner_loads_them_at_set_up(self):
        both = "scipy.optimize,scipy.sparse"
        assert _solver_imports("best") == [both, both]


class TestOtherDatasets:
    @pytest.mark.parametrize("maker, table, question", [
        ("make_dob_table", "dob",
         "average initial cost for borough Queens"),
        ("make_ads_table", "ads",
         "total clicks for channel Email and region Midwest"),
        ("make_flights_table", "flights",
         "average arr delay for carrier Delta"),
    ])
    def test_pipeline_on_each_dataset(self, maker, table, question):
        import repro.datasets as datasets
        db = Database(seed=0)
        db.register_table(getattr(datasets, maker)(num_rows=2000, seed=3))
        muve = Muve(db, table, seed=2,
                    planner=VisualizationPlanner(strategy="greedy"))
        response = muve.ask(question)
        assert response.updates[-1].final
        assert response.multiplot.num_bars > 0


class TestEmptyUpdates:
    def test_multiplot_on_empty_updates_raises_repro_error(self, muve):
        """A response without visualization updates must fail with a
        clear domain error, not a bare IndexError (regression)."""
        import dataclasses

        from repro.errors import ReproError

        response = muve.ask(UTTERANCE)
        empty = dataclasses.replace(response, updates=())
        with pytest.raises(ReproError, match="no visualization updates"):
            empty.multiplot
        with pytest.raises(ReproError):
            empty.to_text()
