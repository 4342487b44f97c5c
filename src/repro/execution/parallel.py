"""Cache warming, and the execution thread count.

Execution is single-threaded: one request's plan runs its groups in
order on the calling thread (concurrent requests still run on
concurrent server threads).  This module remains because the benchmark
harness (``perfbench/run.py``) imports :func:`warm_database` and
:func:`default_workers` from it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.sqldb.database import Database

__all__ = ["default_workers", "warm_database"]


def default_workers() -> int:
    """Threads one request's execution uses: always 1."""
    return 1


def warm_database(database: "Database",
                  table_names: Sequence[str] | None = None) -> int:
    """Build table statistics and secondary indexes up front.

    One build per structure — the statistics object (a snapshot of the
    table; each column is analyzed when an estimate first reads it), one
    inverted index per column, one sorted projection per numeric column
    — so a cold table pays its lazy builds before serving instead of on
    the first unlucky request.  Returns the number of structures built.
    """
    from repro.sqldb.types import DataType
    if table_names is None:
        table_names = sorted(database.catalog.table_names())
    thunks: list[Callable[[], object]] = []
    for name in table_names:
        table = database.table(name)
        thunks.append(
            lambda table_name=name: database.statistics(table_name))
        for column in table.schema.columns:
            thunks.append(lambda t=table, c=column.name:
                          t.indexes().inverted(c))
            if column.dtype in (DataType.INT, DataType.FLOAT):
                thunks.append(lambda t=table, c=column.name:
                              t.indexes().sorted_projection(c))
    for thunk in thunks:
        thunk()
    return len(thunks)
