"""The full-scan reference the secondary indexes must reproduce.

Production resolves every index-servable WHERE tree through the table's
secondary indexes (:func:`repro.sqldb.index.resolve_selection`).  The
reference those answers must match bit for bit is the scan path: every
leaf predicate built as a boolean mask over its whole column, combined
with the engine's AND/OR/NOT.  :class:`ScanContext` is a request context
whose ``selection`` resolves nothing, so the one executor takes its mask
path for every statement.  Pass it where the engine already accepts
request-shared work::

    database.execute(query, shared=ScanContext(database))
    plan.run(database, request_ctx=ScanContext(database))
"""

from __future__ import annotations

from repro.execution.batch import _RequestContext


class ScanContext(_RequestContext):
    """A request context that answers every predicate by scanning."""

    def selection(self, where, table):
        return None
