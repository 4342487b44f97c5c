"""Text-to-multi-SQL: candidate queries with probabilities (Section 3).

Starting from the seed query produced by text-to-SQL, MUVE "iterates over
all schema element names and constants that appear in the query", looks up
the k most phonetically similar entries for each element, and derives
candidate queries by substituting those alternatives.  The probability of a
single replacement is based on phonetic similarity (Double Metaphone +
Jaro-Winkler); the probability of multiple replacements is the product of
the single-replacement probabilities.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro.caching.lru import LruCache
from repro.caching.phonetic import phonetic_probe_cache
from repro.errors import (
    CandidateGenerationError,
    DeadlineExceeded,
    TransientError,
)
from repro.observability.workload import get_workload_analytics
from repro.phonetics.index import PhoneticIndex, phonetic_similarity
from repro.resilience import (
    current_deadline,
    exception_reason,
    record_degradation,
)
from repro.testing.faults import fault_point
from repro.sqldb.database import Database
from repro.sqldb.expressions import AggregateFunction
from repro.sqldb.query import AggregateQuery, QueryElement

#: Spoken forms of the aggregate functions, used for phonetic comparison.
_SPOKEN_AGG = {
    AggregateFunction.AVG: "average",
    AggregateFunction.SUM: "total sum",
    AggregateFunction.COUNT: "count",
    AggregateFunction.MIN: "minimum",
    AggregateFunction.MAX: "maximum",
}

#: Phonetic similarity between the spoken forms of every two functions.
_AGG_SIMILARITY = {
    (func, other): phonetic_similarity(spoken, spoken_other)
    for func, spoken in _SPOKEN_AGG.items()
    for other, spoken_other in _SPOKEN_AGG.items() if other != func
}


@dataclass(frozen=True)
class CandidateQuery:
    """Definition 1 of the paper: a query the voice input may translate to,
    with the system's confidence that it matches the user's intent."""

    query: AggregateQuery
    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise CandidateGenerationError(
                f"probability {self.probability} outside [0, 1]")


@dataclass(frozen=True)
class _Alternative:
    """One possible substitution for one query element."""

    element_index: int
    replacement: object
    weight: float


@dataclass(frozen=True)
class IndexBundle:
    """The phonetic indexes for one (database, table, vocabulary) state.

    Built once per distinct ``Database.vocabulary_version`` and shared by
    every :class:`CandidateGenerator` and :class:`TextToSql` over the
    same table — index construction is the expensive part of generator
    construction, and the indexes are immutable once built (DDL, and
    inserts that add a distinct text value, bump the version, which keys
    a *new* bundle instead of mutating this one; other inserts leave the
    vocabulary, and so the bundle, as it is).
    """

    numeric_index: PhoneticIndex
    text_column_index: PhoneticIndex
    value_indexes: Mapping[str, PhoneticIndex]


#: (database.uid, table, vocabulary_version) -> IndexBundle, shared
#: process-wide with single-flight construction.  Sized for a handful of
#: live (database, table) pairs; superseded versions age out via LRU.
_index_bundles = LruCache(16)


def index_bundle_cache() -> LruCache:
    """The process-wide bundle cache (stats surface via ``/api/stats``)."""
    return _index_bundles


def reset_index_bundles() -> None:
    """Drop all cached index bundles (test isolation)."""
    _index_bundles.clear()


def _build_bundle(database: Database, table_name: str) -> IndexBundle:
    table = database.table(table_name)
    numeric_index = PhoneticIndex(
        c.name for c in table.schema.numeric_columns())
    text_column_index = PhoneticIndex(
        c.name for c in table.schema.text_columns())
    value_indexes: dict[str, PhoneticIndex] = {}
    for column in table.schema.text_columns():
        value_indexes[column.name] = PhoneticIndex(
            table.sorted_values(column.name))
    return IndexBundle(numeric_index=numeric_index,
                       text_column_index=text_column_index,
                       value_indexes=MappingProxyType(value_indexes))


def index_bundle(database: Database, table_name: str) -> IndexBundle:
    key = (database.uid, table_name.lower(), database.vocabulary_version)
    return _index_bundles.get_or_compute(
        key, lambda: _build_bundle(database, table_name))


class CandidateGenerator:
    """Expands a seed query into a probability distribution over candidates.

    Parameters
    ----------
    database / table_name:
        Where to find the vocabulary of plausible substitutions (column
        names and distinct text values).
    k:
        How many phonetically similar alternatives to retrieve per element
        (the paper "typically sets k to 20").
    sharpness:
        Exponent applied to similarity scores when converting them to
        replacement weights; larger values concentrate probability mass on
        the closest-sounding alternatives.
    replacement_penalty:
        Prior odds of any single element having been mis-recognised,
        relative to keeping the original (weight of the original is 1).
    max_simultaneous:
        Maximum number of elements replaced at once.  Probability decays
        with the product rule, so two is usually plenty.
    """

    def __init__(self, database: Database, table_name: str, k: int = 20,
                 sharpness: float = 6.0, replacement_penalty: float = 0.4,
                 max_simultaneous: int = 2,
                 vary_aggregate_function: bool = True) -> None:
        if k <= 0:
            raise CandidateGenerationError("k must be positive")
        self._database = database
        self._table_name = database.table(table_name).schema.name
        self._k = k
        self._sharpness = sharpness
        self._replacement_penalty = replacement_penalty
        self._max_simultaneous = max(1, max_simultaneous)
        self._vary_aggregate_function = vary_aggregate_function
        # Warm (or share) the per-vocabulary-version index bundle so the
        # first candidates() call is not the one paying construction.
        self._bundle()

    def _bundle(self) -> IndexBundle:
        """The index bundle for the database's *current* vocabulary.

        Resolved per call: a vocabulary change bumps
        ``vocabulary_version``, so the next request transparently builds
        (or picks up) fresh indexes instead of serving rankings over a
        stale vocabulary.
        """
        return index_bundle(self._database, self._table_name)

    # ------------------------------------------------------------------

    def candidates(self, seed: AggregateQuery,
                   max_candidates: int = 20) -> list[CandidateQuery]:
        """The *max_candidates* most likely interpretations of *seed*.

        The seed itself is always included (it is the most likely single
        candidate).  Probabilities are normalised to sum to one over the
        returned set, matching the "probability distribution over query
        candidates" the visualization planner consumes.
        """
        if max_candidates <= 0:
            raise CandidateGenerationError("max_candidates must be positive")
        elements = list(seed.elements())
        alternatives = self._collect_alternatives(seed, elements)

        weighted: dict[AggregateQuery, float] = {seed: 1.0}
        for count in range(1, self._max_simultaneous + 1):
            for combo in self._element_combinations(alternatives, count):
                query = seed.replace_elements(
                    (elements[alternative.element_index],
                     alternative.replacement) for alternative in combo)
                weight = 1.0
                for alternative in combo:
                    weight *= alternative.weight
                if query == seed:
                    continue
                existing = weighted.get(query, 0.0)
                if weight > existing:
                    weighted[query] = weight

        top = heapq.nlargest(max_candidates, weighted.items(),
                             key=lambda item: (item[1],
                                               item[0].to_sql()))
        total = sum(weight for _, weight in top)
        return [CandidateQuery(query, weight / total)
                for query, weight in top]

    # ------------------------------------------------------------------

    def _collect_alternatives(self, seed: AggregateQuery,
                              elements: list[QueryElement],
                              ) -> list[list[_Alternative]]:
        """Alternatives per element, indexed like *elements*."""
        bundle = self._bundle()
        per_element: list[list[_Alternative]] = []
        truncated = False
        for index, element in enumerate(elements):
            if not truncated:
                deadline = current_deadline()
                if deadline is not None and deadline.expired:
                    # Deadline blown mid-generation: stop probing and
                    # leave the remaining elements without alternatives
                    # (the seed itself is always a candidate).
                    record_degradation(
                        "phonetics", "alternatives_truncated", "deadline",
                        detail=f"stopped at element {index}/"
                               f"{len(elements)}")
                    truncated = True
            if truncated:
                per_element.append([])
                continue
            if element.kind == "agg_func":
                per_element.append(
                    self._aggregate_alternatives(seed, index))
            elif element.kind == "agg_column":
                per_element.append(self._index_alternatives(
                    bundle.numeric_index, element, index))
            elif element.kind == "pred_column":
                per_element.append(self._index_alternatives(
                    bundle.text_column_index, element, index))
            else:  # pred_value
                predicate = seed.predicates[element.position]
                value_index = bundle.value_indexes.get(predicate.column)
                if value_index is None:
                    per_element.append([])
                else:
                    per_element.append(self._index_alternatives(
                        value_index, element, index))
        return per_element

    def _aggregate_alternatives(self, seed: AggregateQuery,
                                element_index: int) -> list[_Alternative]:
        if not self._vary_aggregate_function:
            return []
        current = seed.aggregate.func
        alternatives = []
        for func in _SPOKEN_AGG:
            if func == current:
                continue
            if seed.aggregate.column is None and func != AggregateFunction.COUNT:
                continue  # SUM(*) etc. is invalid
            if func.requires_numeric and seed.aggregate.column is None:
                continue
            weight = self._weight(_AGG_SIMILARITY[current, func])
            if weight > 0.0:
                alternatives.append(
                    _Alternative(element_index, func.value, weight))
        return alternatives

    def _index_alternatives(self, index: PhoneticIndex,
                            element: QueryElement,
                            element_index: int) -> list[_Alternative]:
        try:
            fault_point("phonetics.lookup")
            deadline = current_deadline()
            if deadline is not None:
                deadline.check("phonetics.lookup")
            ranked = phonetic_probe_cache().most_similar(
                index, element.text, self._k, include_self=False)
            # What vocabulary the traffic actually probes — the
            # workload-analytics stream behind ``GET /api/workload``.
            get_workload_analytics().record_probe(element.text)
        except (DeadlineExceeded, TransientError) as exc:
            # One failed lookup costs this element its alternatives, not
            # the whole request: the other elements (and the seed query)
            # still produce a usable candidate distribution.
            record_degradation("phonetics", "alternatives_skipped",
                               exception_reason(exc),
                               detail=element.text)
            return []
        alternatives = []
        for scored in ranked:
            weight = self._weight(scored.score)
            if weight > 0.0:
                alternatives.append(
                    _Alternative(element_index, scored.term, weight))
        return alternatives

    def _weight(self, similarity: float) -> float:
        """Replacement weight from a similarity score (original has 1.0)."""
        return self._replacement_penalty * (similarity ** self._sharpness)

    @staticmethod
    def _element_combinations(alternatives: list[list[_Alternative]],
                              count: int):
        """All ways to pick *count* alternatives from distinct elements."""
        indices = [i for i, alts in enumerate(alternatives) if alts]
        for chosen in itertools.combinations(indices, count):
            pools = [alternatives[i] for i in chosen]
            yield from itertools.product(*pools)
