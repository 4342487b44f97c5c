"""Progressive strategies emit identical updates with parallelism on/off.

IncrementalPlotting and ApproximateProcessing now route their per-plot
(or per-pass) plans through one shared request context — one mask cache,
one worker pool — instead of independent ``run`` calls.  The user-visible
contract: the *sequence* of emitted updates (structure, flags,
descriptions and every bar value, bit for bit) is unchanged from the
serial engine; only wall-clock timing may differ.
"""

from __future__ import annotations

import pytest

from repro.core.greedy import GreedySolver
from repro.core.model import ScreenGeometry
from repro.core.problem import MultiplotSelectionProblem
from repro.execution.engine import MuveExecutor
from repro.execution.parallel import (
    configure_pool,
    reset_pool,
    set_parallel_enabled,
)
from repro.execution.progressive import (
    ApproximateProcessing,
    DefaultProcessing,
    IncrementalPlotting,
)
from repro.sqldb import executor as _kernels
from tests.execution.oracle import per_group_plans


@pytest.fixture(scope="module", autouse=True)
def _small_morsels():
    # Shrink morsels so the 4000-row fixture table actually scatters,
    # and size the pool past one worker so auto mode (the serving
    # default the strategies follow) really uses it on any host.
    original = _kernels.MORSEL_ROWS
    _kernels.MORSEL_ROWS = 512
    configure_pool(4)
    yield
    _kernels.MORSEL_ROWS = original
    reset_pool()


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


def _run(nyc_db, multiplot, strategy, parallel):
    set_parallel_enabled(parallel)
    try:
        return MuveExecutor(nyc_db).run(multiplot, strategy)
    finally:
        set_parallel_enabled(True)


@pytest.mark.parametrize("make_strategy", [
    DefaultProcessing,
    IncrementalPlotting,
    lambda: IncrementalPlotting(order="probability"),
    lambda: ApproximateProcessing(fraction=0.25),
], ids=["default", "incremental", "incremental-prob", "approximate"])
def test_updates_identical_with_and_without_parallelism(
        nyc_db, planned, make_strategy):
    parallel = _run(nyc_db, planned, make_strategy(), parallel=True)
    serial = _run(nyc_db, planned, make_strategy(), parallel=False)
    assert _fingerprint(parallel) == _fingerprint(serial)


@pytest.mark.parametrize("batch", [True, False],
                         ids=["batch", "per-group"])
def test_parallel_matches_both_batch_modes(nyc_db, planned, batch,
                                           monkeypatch):
    """The pooled shared path must agree update for update with the
    serial shared path and with the test-side per-group oracle."""
    strategy = IncrementalPlotting()
    set_parallel_enabled(True)
    try:
        pooled = MuveExecutor(nyc_db).run(planned, strategy)
    finally:
        set_parallel_enabled(False)
    try:
        if batch:
            oracle = MuveExecutor(nyc_db).run(planned, strategy)
        else:
            with per_group_plans(monkeypatch):
                oracle = MuveExecutor(nyc_db).run(planned, strategy)
    finally:
        set_parallel_enabled(True)
    assert _fingerprint(pooled) == _fingerprint(oracle)


def test_approximate_passes_share_one_context(nyc_db, planned):
    """Sampled and precise passes reuse the shared WHERE masks; the
    approximate update must still differ from the final one only in the
    documented ways (flags and sampled values)."""
    updates = _run(nyc_db, planned,
                   ApproximateProcessing(fraction=0.25), parallel=True)
    assert len(updates) == 2
    assert updates[0].approximate and not updates[0].final
    assert updates[1].final and not updates[1].approximate
    exact = _run(nyc_db, planned, DefaultProcessing(), parallel=False)
    assert _fingerprint(updates[-1:])[0][4] == _fingerprint(exact)[0][4]
