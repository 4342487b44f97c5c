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

All fuzzy matching is one lookup, ``most_similar(phrase, 1)``, on a
:class:`PhoneticIndex` — the matcher candidate generation uses — so a noisy
transcript still resolves to a plausible seed query.  Values and column
names (indexed by their spoken forms) are looked up in the shared
per-vocabulary-version :class:`IndexBundle`, misheard aggregate keywords
in one index over the keyword list.  Every lookup goes through the
process-wide probe cache, so a phrase heard before costs no retrieval.
"""

from __future__ import annotations

import re

from repro.caching.phonetic import phonetic_probe_cache
from repro.errors import CandidateGenerationError
from repro.nlq.candidates import IndexBundle, SpokenColumns, index_bundle
from repro.phonetics.index import PhoneticIndex, ScoredTerm
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
_KEYWORD_INDEX = PhoneticIndex(_AGG_KEYWORDS)

_CLAUSE_SPLITTERS = ("for", "where", "with", "when")
_NOISE_WORDS = frozenset({
    "what", "whats", "is", "the", "of", "show", "me", "a", "an", "in",
    "rows", "records", "entries", "how",
})
_EQUALS_WORDS = frozenset({"is", "equals", "equal", "being", "of"})

_MIN_MATCH_SIMILARITY = 0.55
_MIN_KEYWORD_SIMILARITY = 0.85


class TextToSql:
    """Translates one natural-language request into one AggregateQuery.

    Column and value indexes come from the table's index bundle,
    resolved per call, so a translator follows DDL and inserts the way
    candidate generation does.
    """

    def __init__(self, database: Database, table_name: str) -> None:
        self._database = database
        self._table_name = database.table(table_name).schema.name
        # Warm (or share) the bundle, so the first translation is not
        # the one paying its construction.
        self._bundle()

    def _bundle(self) -> IndexBundle:
        """The index bundle for the database's *current* vocabulary."""
        return index_bundle(self._database, self._table_name)

    # ------------------------------------------------------------------

    def translate_trend(self, text: str) -> tuple[AggregateQuery, str]:
        """Translate a trend question ("... by month" / "... per month").

        Splits off the trailing ``by/per <column>`` phrase, resolves it
        against all columns, and translates the remainder as usual.
        Raises :class:`CandidateGenerationError` when no grouping phrase
        is present or it matches no column.
        """
        bundle = self._bundle()
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
        match = self._match_column(group_phrase, bundle.all_columns)
        if match is None or match.score < _MIN_MATCH_SIMILARITY:
            raise CandidateGenerationError(
                f"cannot resolve grouping phrase {group_phrase!r} to a "
                "column")
        return self._translate(tokens[:split_at], bundle), match.term

    def translate(self, text: str) -> AggregateQuery:
        """Translate *text*; raises CandidateGenerationError if hopeless."""
        return self._translate(_tokenize(text), self._bundle())

    def _translate(self, tokens: list[str],
                   bundle: IndexBundle) -> AggregateQuery:
        if not tokens:
            raise CandidateGenerationError("empty input text")
        func, func_index = self._find_aggregate(tokens)
        split_at, clauses = _split_clauses(tokens)

        column: str | None = None
        if func != AggregateFunction.COUNT:
            # The aggregation column is named after the keyword, before
            # the first clause; a keyword elsewhere leaves the whole head.
            start = func_index + 1 if 0 <= func_index < split_at else 0
            numeric = bundle.numeric_columns
            column = self._find_aggregate_column(tokens[start:split_at],
                                                 numeric)
            if column is None:
                if not numeric.names:
                    raise CandidateGenerationError(
                        f"table {self._table_name!r} has no numeric column "
                        f"to aggregate")
                column = numeric.names[0]

        predicates = tuple(self._parse_clause(clause, bundle.text_columns)
                           for clause in clauses)
        predicates = tuple(p for p in predicates if p is not None)
        return AggregateQuery(self._table_name,
                              AggregateCall(func, column), predicates)

    # -- matching: the phonetically most similar column, value, keyword --

    def _match_column(self, phrase: str,
                      columns: SpokenColumns) -> ScoredTerm | None:
        best = _most_similar(columns.index, phrase)
        return best and ScoredTerm(best.score, columns.by_spoken[best.term])

    def _match_value(self, phrase: str, column: str) -> ScoredTerm | None:
        values = self._bundle().value_indexes.get(column)
        return None if values is None else _most_similar(values, phrase)

    def _match_keyword(self, token: str) -> ScoredTerm | None:
        return _most_similar(_KEYWORD_INDEX, token)

    # ------------------------------------------------------------------

    def _find_aggregate(self, tokens: list[str],
                        ) -> tuple[AggregateFunction, int]:
        for index, token in enumerate(tokens):
            if token in _AGG_KEYWORDS:
                return _AGG_KEYWORDS[token], index
        # No keyword: the token that sounds most like one, if any does.
        best: tuple[ScoredTerm, int] | None = None
        for index, token in enumerate(tokens):
            match = self._match_keyword(token)
            if (match and match.score >= _MIN_KEYWORD_SIMILARITY
                    and (best is None or match.score > best[0].score)):
                best = (match, index)
        if best is not None:
            return _AGG_KEYWORDS[best[0].term], best[1]
        return AggregateFunction.COUNT, -1

    def _find_aggregate_column(self, tokens: list[str],
                               numeric: SpokenColumns) -> str | None:
        """Match spans of *tokens* to the *numeric* columns."""
        candidates = [t for t in tokens if t not in _NOISE_WORDS]
        best: ScoredTerm | None = None
        for span in _spans(candidates, max_len=3):
            match = self._match_column(span, numeric)
            if match and (best is None or match.score > best.score):
                best = match
        if best and best.score >= _MIN_MATCH_SIMILARITY:
            return best.term
        return None

    def _parse_clause(self, clause: list[str],
                      text: SpokenColumns) -> Predicate | None:
        """Interpret one ``<column> [is] <value>`` clause over the *text*
        columns."""
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
            column_match = self._match_column(" ".join(column_tokens),
                                              text)
            if column_match is None:
                continue
            value_match = self._match_value(" ".join(value_tokens),
                                            column_match.term)
            if value_match is None:
                continue
            score = column_match.score * value_match.score
            if (column_match.score >= _MIN_MATCH_SIMILARITY
                    and value_match.score >= _MIN_MATCH_SIMILARITY
                    and (best is None or score > best[0])):
                best = (score,
                        Predicate(column_match.term, value_match.term))
        if best is not None:
            return best[1]
        # Value-only clause ("for Brooklyn"): find the column by value.
        best_value: tuple[float, Predicate] | None = None
        phrase = " ".join(t for t in tokens if t not in _EQUALS_WORDS)
        for column in text.names:
            match = self._match_value(phrase, column)
            if match and match.score >= _MIN_MATCH_SIMILARITY:
                if best_value is None or match.score > best_value[0]:
                    best_value = (match.score,
                                  Predicate(column, match.term))
        return best_value[1] if best_value else None


# ---------------------------------------------------------------------------


def _tokenize(text: str) -> list[str]:
    return [t for t in re.split(r"[^a-z0-9_]+", text.lower()) if t]


def _split_clauses(tokens: list[str]) -> tuple[int, list[list[str]]]:
    """Where the head (aggregate part) ends, and the predicate clauses."""
    split_at = len(tokens)
    for index, token in enumerate(tokens):
        if token in _CLAUSE_SPLITTERS:
            split_at = index
            break
    clauses: list[list[str]] = []
    current: list[str] = []
    for token in tokens[split_at + 1:]:
        if token == "and" or token in _CLAUSE_SPLITTERS:
            if current:
                clauses.append(current)
            current = []
        else:
            current.append(token)
    if current:
        clauses.append(current)
    return split_at, clauses


def _spans(tokens: list[str], max_len: int) -> list[str]:
    """All contiguous token spans up to *max_len*, joined with spaces."""
    spans = []
    for start in range(len(tokens)):
        for end in range(start + 1, min(start + max_len, len(tokens)) + 1):
            spans.append(" ".join(tokens[start:end]))
    return spans


def _most_similar(index: PhoneticIndex, phrase: str) -> ScoredTerm | None:
    """The entry of *index* that sounds most like *phrase* (ties go to
    the first in term order)."""
    ranked = (phonetic_probe_cache().most_similar(index, phrase, 1)
              if phrase else ())
    return ranked[0] if ranked else None
