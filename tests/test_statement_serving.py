"""The serving path hands the engine statements, never SQL text.

With ``repro.sqldb.database.parse`` patched to raise, voice asks (under
the default, incremental and fixed-fraction approximate strategies) and
trend asks must still answer, and their bars must equal the per-group
oracle's, which renders every group to SQL text and runs it through the
parser (:mod:`tests.execution.oracle`).
"""

from __future__ import annotations

import pytest

from repro import Database, Muve, ScreenGeometry
from repro.core.planner import VisualizationPlanner
from repro.datasets import make_flights_table, make_nyc311_table
from repro.execution.progressive import (
    ApproximateProcessing,
    DefaultProcessing,
    IncrementalPlotting,
)
from repro.sqldb import database as database_module
from repro.timeseries import SeriesQuery
from tests.execution.oracle import per_group_plans

QUESTIONS = (
    "average resolution hours for borough Brooklyn",
    "count of requests for borough Queens and agency NYPD",
    "total num calls for complaint type Noise",
)


def _refuse_parse(sql):
    raise AssertionError(f"serving path parsed SQL text: {sql!r}")


def _muve(database, table, **kwargs) -> Muve:
    return Muve(database, table, seed=5,
                planner=VisualizationPlanner(strategy="greedy"), **kwargs)


def _fingerprint(response):
    return [
        (update.final, update.approximate, update.description,
         tuple((bar.query.to_sql(), bar.value, bar.highlighted)
               for plot in update.multiplot.plots()
               for bar in plot.bars))
        for update in response.updates
    ]


@pytest.mark.parametrize("make_strategy", [
    DefaultProcessing,
    IncrementalPlotting,
    lambda: ApproximateProcessing(fraction=0.25),
], ids=["default", "incremental", "approximate"])
def test_ask_voice_never_parses(make_strategy, monkeypatch):
    database = Database(seed=0)
    database.register_table(make_nyc311_table(num_rows=3000, seed=7))
    served = _muve(database, "nyc311")
    with monkeypatch.context() as patch:
        patch.setattr(database_module, "parse", _refuse_parse)
        answers = [served.ask_voice(q, strategy=make_strategy())
                   for q in QUESTIONS]

    reference = Database(seed=0)
    reference.register_table(make_nyc311_table(num_rows=3000, seed=7))
    oracle = _muve(reference, "nyc311")
    with per_group_plans(monkeypatch):
        expected = [oracle.ask_voice(q, strategy=make_strategy())
                    for q in QUESTIONS]
    for answer, reference_answer in zip(answers, expected):
        assert answer.multiplot.num_bars > 0
        assert _fingerprint(answer) == _fingerprint(reference_answer)


def test_ask_trend_never_parses(monkeypatch):
    database = Database(seed=0)
    database.register_table(make_flights_table(num_rows=6000, seed=3))
    muve = _muve(database, "flights",
                 geometry=ScreenGeometry(width_pixels=2400, num_rows=2))
    with monkeypatch.context() as patch:
        patch.setattr(database_module, "parse", _refuse_parse)
        response = muve.ask_trend(
            "average arr delay for carrier Delta by month")
    lines = [line for plot in response.multiplot.plots()
             for line in plot.series]
    assert len(lines) >= 2
    for line in lines:
        sql = SeriesQuery(line.query, response.x_column).to_sql()
        direct = {row[0]: row[1] for row in database.execute(sql).rows
                  if row[1] is not None}
        assert dict(line.points) == pytest.approx(direct), sql
