"""Progressive strategies emit the same updates as the per-group oracle.

IncrementalPlotting and ApproximateProcessing route their per-plot (or
per-pass) plans through one shared request context — one mask cache —
instead of independent ``run`` calls.  The user-visible contract: the
*sequence* of emitted updates (structure, flags, descriptions and every
bar value, bit for bit) is the one the per-group oracle in
:mod:`tests.execution.oracle` produces; only wall-clock timing may
differ.
"""

from __future__ import annotations

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
from repro.sqldb import executor as _kernels
from tests.execution.oracle import per_group_plans


@pytest.fixture(scope="module", autouse=True)
def _small_chunks():
    # Shrink the SUM/AVG chunks so the 4000-row fixture table spans
    # several of them.
    original = _kernels.MORSEL_ROWS
    _kernels.MORSEL_ROWS = 512
    yield
    _kernels.MORSEL_ROWS = original


@pytest.fixture()
def planned(nyc_db, nyc_candidates):
    problem = MultiplotSelectionProblem(
        nyc_candidates,
        geometry=ScreenGeometry(width_pixels=1500, num_rows=2))
    return GreedySolver().solve(problem).multiplot


def _fingerprint(updates):
    """Everything user-visible about an update sequence except timing."""
    return [
        (update.final, update.approximate, update.description,
         update.multiplot.num_plots,
         tuple((bar.query.to_sql(), bar.value, bar.highlighted)
               for plot in update.multiplot.plots()
               for bar in plot.bars))
        for update in updates
    ]


@pytest.mark.parametrize("make_strategy", [
    DefaultProcessing,
    IncrementalPlotting,
    lambda: IncrementalPlotting(order="probability"),
    lambda: ApproximateProcessing(fraction=0.25),
], ids=["default", "incremental", "incremental-prob", "approximate"])
def test_updates_identical_to_per_group_oracle(nyc_db, planned,
                                               make_strategy, monkeypatch):
    shared = MuveExecutor(nyc_db).run(planned, make_strategy())
    with per_group_plans(monkeypatch):
        oracle = MuveExecutor(nyc_db).run(planned, make_strategy())
    assert _fingerprint(shared) == _fingerprint(oracle)


def test_approximate_passes_share_one_context(nyc_db, planned):
    """Sampled and precise passes reuse the shared WHERE masks; the
    approximate update must still differ from the final one only in the
    documented ways (flags and sampled values)."""
    updates = MuveExecutor(nyc_db).run(
        planned, ApproximateProcessing(fraction=0.25))
    assert len(updates) == 2
    assert updates[0].approximate and not updates[0].final
    assert updates[1].final and not updates[1].approximate
    exact = MuveExecutor(nyc_db).run(planned, DefaultProcessing())
    assert _fingerprint(updates[-1:])[0][4] == _fingerprint(exact)[0][4]
