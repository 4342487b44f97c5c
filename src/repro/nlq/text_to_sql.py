"""Deterministic keyword-pattern text-to-SQL — the SQLova stand-in.

MUVE treats text-to-SQL as a black box that yields the single most likely
query for a transcript; ambiguity handling happens downstream in candidate
generation.  This translator covers the supported query class (one aggregate
plus equality predicates on one table) with a transparent algorithm:

1. an aggregate keyword ("average", "total", "count", "highest"...) picks
   the function,
2. the tokens after it are fuzzily matched against numeric column names to
   pick the aggregation column,
3. clauses after "for"/"where"/"with", split on "and", are matched as
   ``<column phrase> [is] <value phrase>`` pairs against text columns and
   their distinct values.

All fuzzy matching uses the same phonetic similarity as candidate
generation, so a noisy transcript still resolves to a plausible seed query.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import CandidateGenerationError
from repro.phonetics.index import phonetic_similarity
from repro.sqldb.database import Database
from repro.sqldb.expressions import AggregateCall, AggregateFunction
from repro.sqldb.query import AggregateQuery, Predicate

_AGG_KEYWORDS = {
    "average": AggregateFunction.AVG,
    "avg": AggregateFunction.AVG,
    "mean": AggregateFunction.AVG,
    "total": AggregateFunction.SUM,
    "sum": AggregateFunction.SUM,
    "count": AggregateFunction.COUNT,
    "number": AggregateFunction.COUNT,
    "many": AggregateFunction.COUNT,
    "maximum": AggregateFunction.MAX,
    "max": AggregateFunction.MAX,
    "highest": AggregateFunction.MAX,
    "largest": AggregateFunction.MAX,
    "minimum": AggregateFunction.MIN,
    "min": AggregateFunction.MIN,
    "lowest": AggregateFunction.MIN,
    "smallest": AggregateFunction.MIN,
}

_CLAUSE_SPLITTERS = ("for", "where", "with", "when")
_NOISE_WORDS = frozenset({
    "what", "whats", "is", "the", "of", "show", "me", "a", "an", "in",
    "rows", "records", "entries", "how",
})
_EQUALS_WORDS = frozenset({"is", "equals", "equal", "being", "of"})

_MIN_MATCH_SIMILARITY = 0.55


@dataclass(frozen=True)
class _Match:
    """A fuzzy match of a token span against a vocabulary entry."""

    target: str
    score: float


class TextToSql:
    """Translates one natural-language request into one AggregateQuery."""

    def __init__(self, database: Database, table_name: str,
                 max_values_per_column: int = 2000) -> None:
        self._database = database
        self._table_name = database.table(table_name).schema.name
        table = database.table(table_name)
        self._numeric_columns = [c.name
                                 for c in table.schema.numeric_columns()]
        self._text_columns = [c.name for c in table.schema.text_columns()]
        self._max_values_per_column = max_values_per_column
        # (vocabulary_version, text column -> sorted distinct values).
        self._values: tuple[int, dict[str, list[str]]] | None = None

    @property
    def _values_by_column(self) -> dict[str, list[str]]:
        """Each text column's distinct values, ascending, re-read from
        the table's dictionaries whenever the vocabulary version moves —
        so values added by an insert are matched like the others."""
        version = self._database.vocabulary_version
        values = self._values
        if values is None or values[0] != version:
            table = self._database.table(self._table_name)
            values = (version, {
                name: table.sorted_values(name)[:self._max_values_per_column]
                for name in self._text_columns})
            self._values = values
        return values[1]

    # ------------------------------------------------------------------

    def translate_trend(self, text: str) -> tuple[AggregateQuery, str]:
        """Translate a trend question ("... by month" / "... per month").

        Splits off the trailing ``by/per <column>`` phrase, resolves it
        against all columns, and translates the remainder as usual.
        Raises :class:`CandidateGenerationError` when no grouping phrase
        is present or it matches no column.
        """
        tokens = _tokenize(text)
        split_at = None
        for index in range(len(tokens) - 1, 0, -1):
            if tokens[index] in ("by", "per"):
                split_at = index
                break
        if split_at is None or split_at == len(tokens) - 1:
            raise CandidateGenerationError(
                "trend questions need a trailing 'by <column>' phrase")
        group_phrase = " ".join(tokens[split_at + 1:])
        all_columns = self._text_columns + self._numeric_columns
        match = _best_match(group_phrase, all_columns)
        if match is None or match.score < _MIN_MATCH_SIMILARITY:
            raise CandidateGenerationError(
                f"cannot resolve grouping phrase {group_phrase!r} to a "
                "column")
        head_text = " ".join(tokens[:split_at])
        return self.translate(head_text), match.target

    def translate(self, text: str) -> AggregateQuery:
        """Translate *text*; raises CandidateGenerationError if hopeless."""
        tokens = _tokenize(text)
        if not tokens:
            raise CandidateGenerationError("empty input text")

        func, func_index = self._find_aggregate(tokens)
        head, clauses = _split_clauses(tokens)

        column: str | None = None
        if func != AggregateFunction.COUNT:
            column = self._find_aggregate_column(head, func_index)
            if column is None:
                if not self._numeric_columns:
                    raise CandidateGenerationError(
                        f"table {self._table_name!r} has no numeric column "
                        f"to aggregate")
                column = self._numeric_columns[0]

        predicates = tuple(self._parse_clause(clause) for clause in clauses)
        predicates = tuple(p for p in predicates if p is not None)
        return AggregateQuery(self._table_name,
                              AggregateCall(func, column), predicates)

    # ------------------------------------------------------------------

    def _find_aggregate(self, tokens: list[str],
                        ) -> tuple[AggregateFunction, int]:
        for index, token in enumerate(tokens):
            if token in _AGG_KEYWORDS:
                return _AGG_KEYWORDS[token], index
        # No keyword: fuzzy-match each token against the keyword list.
        best: tuple[float, AggregateFunction, int] | None = None
        for index, token in enumerate(tokens):
            for keyword, func in _AGG_KEYWORDS.items():
                score = phonetic_similarity(token, keyword)
                if score >= 0.85 and (best is None or score > best[0]):
                    best = (score, func, index)
        if best is not None:
            return best[1], best[2]
        return AggregateFunction.COUNT, -1

    def _find_aggregate_column(self, head_tokens: list[str],
                               func_index: int) -> str | None:
        """Match spans after the aggregate keyword to numeric columns."""
        start = func_index + 1 if 0 <= func_index < len(head_tokens) else 0
        candidates = [t for t in head_tokens[start:]
                      if t not in _NOISE_WORDS]
        best: _Match | None = None
        for span in _spans(candidates, max_len=3):
            match = _best_match(span, self._numeric_columns)
            if match and (best is None or match.score > best.score):
                best = match
        if best and best.score >= _MIN_MATCH_SIMILARITY:
            return best.target
        return None

    def _parse_clause(self, clause: list[str]) -> Predicate | None:
        """Interpret one ``<column> [is] <value>`` clause."""
        tokens = [t for t in clause if t]
        if not tokens:
            return None
        best: tuple[float, Predicate] | None = None
        for split in range(1, len(tokens)):
            column_tokens = tokens[:split]
            value_tokens = tokens[split:]
            if value_tokens and value_tokens[0] in _EQUALS_WORDS:
                value_tokens = value_tokens[1:]
            if not value_tokens:
                continue
            column_match = _best_match(" ".join(column_tokens),
                                       self._text_columns)
            if column_match is None:
                continue
            values = self._values_by_column[column_match.target]
            value_match = _best_match(" ".join(value_tokens), values)
            if value_match is None:
                continue
            score = column_match.score * value_match.score
            if (column_match.score >= _MIN_MATCH_SIMILARITY
                    and value_match.score >= _MIN_MATCH_SIMILARITY
                    and (best is None or score > best[0])):
                best = (score,
                        Predicate(column_match.target, value_match.target))
        if best is not None:
            return best[1]
        # Value-only clause ("for Brooklyn"): find the column by value.
        best_value: tuple[float, Predicate] | None = None
        phrase = " ".join(t for t in tokens if t not in _EQUALS_WORDS)
        for column, values in self._values_by_column.items():
            match = _best_match(phrase, values)
            if match and match.score >= _MIN_MATCH_SIMILARITY:
                if best_value is None or match.score > best_value[0]:
                    best_value = (match.score,
                                  Predicate(column, match.target))
        return best_value[1] if best_value else None


# ---------------------------------------------------------------------------


def _tokenize(text: str) -> list[str]:
    return [t for t in re.split(r"[^a-z0-9_]+", text.lower()) if t]


def _split_clauses(tokens: list[str]) -> tuple[list[str], list[list[str]]]:
    """Split into the head (aggregate part) and predicate clauses."""
    split_at = len(tokens)
    for index, token in enumerate(tokens):
        if token in _CLAUSE_SPLITTERS:
            split_at = index
            break
    head = [t for t in tokens[:split_at] if t not in _NOISE_WORDS]
    rest = tokens[split_at + 1:] if split_at < len(tokens) else []
    clauses: list[list[str]] = []
    current: list[str] = []
    for token in rest:
        if token == "and" or token in _CLAUSE_SPLITTERS:
            if current:
                clauses.append(current)
            current = []
        else:
            current.append(token)
    if current:
        clauses.append(current)
    return head, clauses


def _spans(tokens: list[str], max_len: int) -> list[str]:
    """All contiguous token spans up to *max_len*, joined with spaces."""
    spans = []
    for start in range(len(tokens)):
        for end in range(start + 1, min(start + max_len, len(tokens)) + 1):
            spans.append(" ".join(tokens[start:end]))
    return spans


def _best_match(phrase: str, vocabulary: list[str]) -> _Match | None:
    """Best phonetic match of *phrase* against *vocabulary* entries.

    Column names are normalised (underscores become spaces) before
    comparison so spoken "resolution hours" hits ``resolution_hours``.
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
    return _Match(target=best_target, score=best_score)
