"""The linear-scan matcher text-to-SQL used before it looked phrases up
in :class:`PhoneticIndex` — kept as the oracle the differential suite
compares the index against.

:class:`ScanTextToSql` runs the production translation logic unchanged
and only swaps its three matching hooks for a scan that scores every
vocabulary entry with ``phonetic_similarity`` and keeps the first
maximum in vocabulary order.
"""

from __future__ import annotations

from repro.nlq.text_to_sql import _AGG_KEYWORDS, TextToSql
from repro.phonetics.index import ScoredTerm, phonetic_similarity


def best_match(phrase: str, vocabulary: list[str]) -> ScoredTerm | None:
    """Best phonetic match of *phrase* against *vocabulary* entries.

    Entries are normalised (underscores become spaces, lowercase) before
    comparison, so spoken "resolution hours" hits ``resolution_hours``.
    """
    if not phrase or not vocabulary:
        return None
    best_target: str | None = None
    best_score = -1.0
    for entry in vocabulary:
        normalised = str(entry).replace("_", " ").lower()
        score = phonetic_similarity(phrase, normalised)
        if score > best_score:
            best_score = score
            best_target = entry
    if best_target is None:
        return None
    return ScoredTerm(best_score, best_target)


class ScanTextToSql(TextToSql):
    """:class:`TextToSql` with every lookup answered by :func:`best_match`
    over the full vocabulary (column names in schema order, a column's
    distinct values ascending, keywords in declaration order)."""

    def _match_column(self, phrase, columns):
        return best_match(phrase, columns.names)

    def _match_value(self, phrase, column):
        table = self._database.table(self._table_name)
        return best_match(phrase, table.sorted_values(column))

    def _match_keyword(self, token):
        return best_match(token, list(_AGG_KEYWORDS))
