"""Shared fixtures for the benchmark suite.

Databases are session-scoped (building synthetic tables once) and sized so
the full suite runs in minutes on a laptop while preserving the paper's
qualitative trends.  Every benchmark prints its result table (run pytest
with ``-s`` to see them live) and saves it under the git-ignored
``.benchmarks/results/``, so a run never touches the tracked files.  The
tables under ``benchmarks/results/`` are the committed snapshot; refresh
one by copying its run output over it (see README).
"""

from __future__ import annotations

import os

import pytest

from repro.datasets import (
    make_ads_table,
    make_dob_table,
    make_nyc311_table,
)
from repro.sqldb.database import Database

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                           ".benchmarks", "results")


@pytest.fixture(scope="session")
def results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def nyc_bench_db() -> Database:
    db = Database(seed=0)
    db.register_table(make_nyc311_table(num_rows=20_000, seed=7))
    return db


@pytest.fixture(scope="session")
def dob_bench_db() -> Database:
    """DOB with simulated page I/O — the paper's Figure 7 runs against a
    1 GB disk-resident Postgres table, where scans dominate per query."""
    db = Database(seed=0, io_millis_per_page=0.02)
    db.register_table(make_dob_table(num_rows=50_000, seed=11))
    return db


@pytest.fixture(scope="session")
def multi_bench_db() -> Database:
    """Ads + DOB in one database (the Figure 12 setting)."""
    db = Database(seed=0)
    db.register_table(make_ads_table(num_rows=10_000, seed=2))
    db.register_table(make_dob_table(num_rows=10_000, seed=3))
    return db


def emit(table, results_dir: str, name: str) -> None:
    """Print and persist an ExperimentTable."""
    print()
    print(table.render())
    table.save(results_dir, name)
