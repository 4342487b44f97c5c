"""The full-scan reference the secondary indexes must reproduce.

Production resolves every index-servable WHERE tree through the table's
secondary indexes (:func:`repro.sqldb.index.resolve_selection`).  The
reference those answers must match bit for bit is the scan path: every
leaf predicate built as a boolean mask over its whole column, combined
with the engine's AND/OR/NOT.  :func:`scan_only` makes the one executor
take its mask path for every statement by resolving no WHERE tree
through the indexes, and :func:`full_scan` runs a callable that way on
a twin of the database that keeps no leaf selection (:func:`memo_free`),
so the reference never reads the memo it checks::

    full_scan(database, lambda db: db.execute(query))
    full_scan(database, plan.run)
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.sqldb import executor
from repro.sqldb.database import Database


@contextmanager
def scan_only():
    """Inside the block, every WHERE tree is answered by scanning."""
    original = executor.resolve_selection
    executor.resolve_selection = lambda where, table, leaf_cache=None: None
    try:
        yield
    finally:
        executor.resolve_selection = original


def memo_free(database: Database) -> Database:
    """A database over *database*'s tables, with its sampling seed, that
    keeps no leaf selection (``mask_cache_bytes=0``)."""
    twin = Database(seed=database._seed, mask_cache_bytes=0)
    for name in sorted(database.catalog.table_names()):
        twin.register_table(database.table(name))
    return twin


def full_scan(database: Database, fn):
    """``fn(twin)`` on a :func:`memo_free` twin of *database*, every
    WHERE tree answered by scanning."""
    with scan_only():
        return fn(memo_free(database))
