"""Phonetic vocabulary index — the Apache Lucene substitute.

The paper uses Lucene to find, for every schema element or constant in a
query, the *k* entries of the database vocabulary that sound most similar.
:class:`PhoneticIndex` provides that contract: terms are encoded with Double
Metaphone and ranked by Jaro-Winkler similarity of the encodings (falling
back to a small surface-form component to break ties between terms with
identical codes), exactly the similarity notion of Section 3 of the paper.

``most_similar`` is **exact, pruned top-k retrieval** rather than an
exhaustive scan:

* The vocabulary is grouped by distinct Double Metaphone code, so each
  code's phonetic similarity is computed once and fans out to every term
  sharing it (categorical vocabularies are dense in homophones — that is
  the whole premise of the paper).
* A vectorized bound pass (:mod:`repro.phonetics.vectorized`) assigns every
  distinct code an admissible Jaro-Winkler upper bound from character
  multiset intersection, lengths, and the exact shared prefix.
* Codes are visited best-bound-first; the search stops as soon as the best
  remaining bound (plus the maximum surface-component contribution) cannot
  beat the current k-th best exact score.  Because the bounds are
  admissible, the result is **bit-identical** to the exhaustive ranking —
  same terms, same scores, same tie order — which the differential tests
  in ``tests/phonetics`` pin against the private :meth:`_exhaustive_scan`
  oracle.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.observability import trace_span
from repro.phonetics.distance import jaro_winkler
from repro.phonetics.metaphone import metaphone_codes
from repro.phonetics.vectorized import (
    PackedCodes,
    batch_jaro_winkler,
    jaro_winkler_upper_bounds,
)

__all__ = [
    "PhoneticIndex",
    "ScoredTerm",
    "phonetic_similarity",
    "phonetic_stats",
    "register_phonetic_metrics",
    "reset_phonetic_stats",
]

#: Vocabularies at or below this size are answered by the plain scan: the
#: packing/bound machinery cannot beat a few dozen scalar comparisons.
_SMALL_VOCABULARY = 64

#: Shortlists at or above this size are scored with the vectorized batch
#: kernel instead of the scalar loop (identical results either way).
_VECTORIZE_THRESHOLD = 64

#: Minimum number of best-bound codes walked scalar-first to establish the
#: top-k cutoff before the vectorized shortlist pass.
_SEED_CODES = 48

#: Codes batch-scored per phase-2 round; between rounds the remaining pool
#: is re-filtered against the tightened cutoff.
_PHASE2_CHUNK = 1024


# ---------------------------------------------------------------------------
# Process-wide counters (surfaced via /api/stats and the metrics registry)
# ---------------------------------------------------------------------------


class _PhoneticStats:
    """Thread-safe counters describing retrieval effectiveness."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with getattr(self, "_lock", threading.Lock()):
            self.probes = 0
            self.exhaustive_probes = 0
            self.codes_total = 0
            self.codes_scored = 0
            self.terms_scored = 0
            self.terms_total = 0
            self.probe_millis = 0.0

    def record(self, *, exhaustive: bool, codes_total: int,
               codes_scored: int, terms_scored: int, terms_total: int,
               elapsed_ms: float) -> None:
        with self._lock:
            self.probes += 1
            if exhaustive:
                self.exhaustive_probes += 1
            self.codes_total += codes_total
            self.codes_scored += codes_scored
            self.terms_scored += terms_scored
            self.terms_total += terms_total
            self.probe_millis += elapsed_ms

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            scanned_fraction = (self.terms_scored / self.terms_total
                                if self.terms_total else 0.0)
            return {
                "probes": self.probes,
                "exhaustive_probes": self.exhaustive_probes,
                "codes_total": self.codes_total,
                "codes_scored": self.codes_scored,
                "terms_scored": self.terms_scored,
                "terms_total": self.terms_total,
                "scanned_fraction": round(scanned_fraction, 6),
                "probe_millis": round(self.probe_millis, 3),
            }


_STATS = _PhoneticStats()


def phonetic_stats() -> dict[str, float]:
    """Process-wide retrieval counters (``/api/stats`` payload)."""
    return _STATS.snapshot()


def reset_phonetic_stats() -> None:
    """Zero the process-wide counters (test isolation)."""
    _STATS.reset()


def register_phonetic_metrics(registry) -> None:
    """Expose the retrieval counters as callback gauges on *registry*."""
    for name in ("probes", "exhaustive_probes", "codes_scored",
                 "terms_scored", "terms_total", "scanned_fraction"):
        registry.register_gauge(
            "phonetic_" + name,
            lambda key=name: float(_STATS.snapshot()[key]))


# ---------------------------------------------------------------------------
# Similarity
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class ScoredTerm:
    """A vocabulary term with its phonetic similarity to the probe term.

    Ordering is by (score, term) so that ``sorted(..., reverse=True)`` yields
    a deterministic best-first ranking.
    """

    score: float
    term: str


def phonetic_similarity(a: str, b: str, *, surface_weight: float = 0.1,
                        codec: Callable[[str], tuple[str, ...]] | None = None,
                        ) -> float:
    """Similarity in [0, 1] between two strings.

    The dominant component is the maximum Jaro-Winkler similarity over the
    cross product of the two terms' Double Metaphone codes (primary and
    alternate), as described in the paper.  A small ``surface_weight``
    fraction of plain Jaro-Winkler on the lowercase surface forms breaks
    ties between phonetically identical terms ("flour" vs "flower").
    """
    if not 0.0 <= surface_weight < 1.0:
        raise ValueError("surface_weight must be within [0, 1)")
    encode = codec or metaphone_codes
    codes_a = [code for code in encode(a) if code]
    codes_b = [code for code in encode(b) if code]
    if codes_a and codes_b:
        phonetic = max(jaro_winkler(ca, cb)
                       for ca in codes_a for cb in codes_b)
    elif not codes_a and not codes_b:
        phonetic = 1.0
    else:
        phonetic = 0.0
    surface = jaro_winkler(a.lower(), b.lower())
    return (1.0 - surface_weight) * phonetic + surface_weight * surface


# ---------------------------------------------------------------------------
# The index
# ---------------------------------------------------------------------------

_uid_counter = itertools.count(1)


class PhoneticIndex:
    """In-memory index over a vocabulary with exact k-most-similar lookup.

    Safe to share across threads: mutation (:meth:`add`) and lazy pack
    rebuilds are serialised by an internal lock, queries operate on
    immutable array snapshots, and every mutation bumps :attr:`version`
    (cache keys over ``(probe, k, version)`` therefore never serve stale
    rankings — see :class:`repro.caching.PhoneticProbeCache`).
    """

    def __init__(self, terms: Iterable[str] = (), *,
                 surface_weight: float = 0.1) -> None:
        self._surface_weight = surface_weight
        self._codes: dict[str, tuple[str, ...]] = {}
        #: distinct non-empty code -> terms carrying it (append-only).
        self._groups: dict[str, list[str]] = {}
        #: terms whose encoding is empty (non-alphabetic values).
        self._codeless: list[str] = []
        self._packed = PackedCodes()
        self._lock = threading.Lock()
        self._version = 0
        self._uid = next(_uid_counter)
        self.add_all(terms)

    # -- introspection --------------------------------------------------

    @property
    def uid(self) -> int:
        """A process-unique identity (never reused, unlike ``id()``)."""
        return self._uid

    @property
    def version(self) -> int:
        """Bumped on every successful :meth:`add`; keys probe caches."""
        return self._version

    def __len__(self) -> int:
        return len(self._codes)

    def __contains__(self, term: str) -> bool:
        return term in self._codes

    def __iter__(self) -> Iterator[str]:
        return iter(list(self._codes))

    def codes(self, term: str) -> tuple[str, ...]:
        """The cached metaphone codes of an indexed term."""
        try:
            return self._codes[term]
        except KeyError:
            raise KeyError(f"term {term!r} is not in the index") from None

    def similarity(self, a: str, b: str) -> float:
        """Phonetic similarity between two arbitrary strings."""
        return phonetic_similarity(a, b, surface_weight=self._surface_weight)

    # -- mutation -------------------------------------------------------

    def add(self, term: str) -> None:
        """Insert *term* into the vocabulary (idempotent)."""
        if not isinstance(term, str):
            raise TypeError(f"index terms must be strings, got {term!r}")
        with self._lock:
            if term in self._codes:
                return
            codes = metaphone_codes(term)
            self._codes[term] = codes
            distinct = [code for code in dict.fromkeys(codes) if code]
            if not distinct:
                self._codeless.append(term)
            for code in distinct:
                group = self._groups.get(code)
                if group is None:
                    self._groups[code] = [term]
                    self._packed.append(code)
                else:
                    group.append(term)
            self._version += 1

    def add_all(self, terms: Iterable[str]) -> None:
        for term in terms:
            self.add(term)

    # -- retrieval ------------------------------------------------------

    def most_similar(self, probe: str, k: int = 20, *,
                     include_self: bool = True) -> list[ScoredTerm]:
        """The *k* vocabulary terms most phonetically similar to *probe*.

        Results are sorted best-first and deterministic (ties broken by the
        term's lexicographic order).  ``include_self=False`` drops an exact
        string match of the probe from the ranking, which is what candidate
        generation wants when proposing *alternatives* for a query element.

        Always exact: the pruned search provably returns the same ranking
        an exhaustive scan would (same terms, scores and tie order).
        """
        if k <= 0:
            raise ValueError("k must be positive")
        begin = time.perf_counter()
        probe_codes = tuple(code for code in metaphone_codes(probe) if code)
        vocabulary_size = len(self._codes)
        if not probe_codes or vocabulary_size <= max(_SMALL_VOCABULARY, k):
            ranked = self._exhaustive_scan(probe, k,
                                           include_self=include_self)
            _STATS.record(exhaustive=True,
                          codes_total=len(self._groups),
                          codes_scored=len(self._groups),
                          terms_scored=vocabulary_size,
                          terms_total=vocabulary_size,
                          elapsed_ms=(time.perf_counter() - begin) * 1e3)
            return ranked
        with trace_span("phonetics.most_similar") as span:
            ranked, codes_scored, terms_scored = self._pruned_scan(
                probe, probe_codes, k, include_self)
            elapsed_ms = (time.perf_counter() - begin) * 1000.0
            span.set_attribute("vocabulary", vocabulary_size)
            span.set_attribute("codes_scored", codes_scored)
            span.set_attribute("terms_scored", terms_scored)
            span.set_attribute("elapsed_ms", round(elapsed_ms, 4))
        _STATS.record(exhaustive=False, codes_total=len(self._groups),
                      codes_scored=codes_scored,
                      terms_scored=terms_scored,
                      terms_total=vocabulary_size, elapsed_ms=elapsed_ms)
        return ranked

    # ------------------------------------------------------------------

    def _exhaustive_scan(self, probe: str, k: int, *,
                         include_self: bool = True) -> list[ScoredTerm]:
        """Score every term — the O(vocabulary) oracle the pruned search
        is differential-tested against (and the path for tiny vocabularies
        and codeless probes)."""
        scored = []
        for term in list(self._codes):
            if not include_self and term == probe:
                continue
            scored.append(ScoredTerm(self.similarity(probe, term), term))
        scored.sort(key=lambda st: (-st.score, st.term))
        return scored[:k]

    def _pruned_scan(self, probe: str, probe_codes: tuple[str, ...],
                     k: int, include_self: bool,
                     ) -> tuple[list[ScoredTerm], int, int]:
        """Best-bound-first exact top-k (see the module docstring)."""
        with self._lock:
            arrays = self._packed.snapshot()
        weight = self._surface_weight
        phonetic_share = 1.0 - weight
        probe_ids = [arrays.encode(code) for code in probe_codes]
        bounds = jaro_winkler_upper_bounds(probe_ids[0], arrays)
        for ids in probe_ids[1:]:
            np.maximum(bounds, jaro_winkler_upper_bounds(ids, arrays),
                       out=bounds)

        surface_probe = probe.lower()
        #: per-row refinement of ``bounds``: overwritten with the exact
        #: score once a row has been batch-scored (still admissible —
        #: the exact value is its own tightest upper bound).
        upper_bounds = bounds.copy()
        #: rows whose ``upper_bounds`` entry is the exact score.
        exact_known = np.zeros(len(bounds), dtype=bool)
        #: exact max-over-probe-codes Jaro-Winkler per distinct code.
        code_scores: dict[str, float] = {}

        def code_score(code: str) -> float:
            score = code_scores.get(code)
            if score is None:
                row = arrays.rows.get(code)
                if row is not None and exact_known[row]:
                    score = float(upper_bounds[row])
                else:
                    score = max(jaro_winkler(pc, code)
                                for pc in probe_codes)
                code_scores[code] = score
            return score

        results: list[ScoredTerm] = []
        threshold: list[float] = []  # min-heap of the current top-k scores
        seen: set[str] = set()
        codes_scored = 0
        terms_scored = 0

        def score_terms(terms: list[str], phonetic_default: float | None,
                        ) -> None:
            nonlocal terms_scored
            for term in terms:
                if term in seen:
                    continue
                seen.add(term)
                if not include_self and term == probe:
                    continue
                filled = len(threshold) == k
                cutoff = threshold[0] if filled else 0.0
                if phonetic_default is None:
                    term_codes = [code for code in self._codes[term]
                                  if code]
                    if filled:
                        # Admissible per-term prefilter: exact scores
                        # where known, vectorized bounds otherwise, and
                        # the full surface component.  Strict <, so an
                        # exact tie is still scored (term-order ties).
                        upper = 0.0
                        for code in term_codes:
                            known = code_scores.get(code)
                            if known is None:
                                row = arrays.rows.get(code)
                                known = float(upper_bounds[row]) \
                                    if row is not None else 1.0
                            if known > upper:
                                upper = known
                        if phonetic_share * upper + weight < cutoff:
                            continue
                    phonetic = max(code_score(code)
                                   for code in term_codes)
                    if filled and (phonetic_share * phonetic + weight
                                   < cutoff):
                        continue
                else:
                    phonetic = phonetic_default
                surface = jaro_winkler(surface_probe, term.lower())
                # Mirrors phonetic_similarity()'s combining expression
                # exactly, so pruned scores are bit-identical.
                total = phonetic_share * phonetic + weight * surface
                terms_scored += 1
                results.append(ScoredTerm(total, term))
                if len(threshold) < k:
                    heapq.heappush(threshold, total)
                elif total > threshold[0]:
                    heapq.heapreplace(threshold, total)

        # Phase 1 — seed the cutoff: walk the globally best-bound codes
        # with scalar scoring.  Each code contributes at least one term
        # and each term carries at most two codes, so 2k + 2 rows are
        # guaranteed to fill the k-slot threshold (modulo include_self).
        count = len(bounds)
        seed_size = min(count, max(2 * k + 2, _SEED_CODES))
        if seed_size < count:
            part = np.argpartition(-bounds, seed_size - 1)[:seed_size]
        else:
            part = np.arange(count)
        seed = part[np.argsort(-bounds[part], kind="stable")]
        done = False
        for row in seed:
            # A term's total score is at most its best code bound plus
            # the full surface component; once that cannot beat the k-th
            # best exact score, no unseen term can either.  Strict <, so
            # equal-score lexicographic ties are never pruned.  The seed
            # holds the global best bounds in descending order, so
            # stopping here completes the whole search.
            if len(threshold) == k and (phonetic_share * bounds[row]
                                        + weight < threshold[0]):
                done = True
                break
            codes_scored += 1
            # phonetic_default=None: each member term takes the max over
            # *all* its codes (the alternate may score higher than the
            # code that surfaced the group).
            score_terms(self._groups[arrays.codes[row]], None)

        if not done:
            # Phase 2 — exact-score the codes whose bound can still beat
            # the cutoff, best-bound chunks first, re-filtering the pool
            # against the tightened cutoff between chunks (one chunk of
            # exact scores usually proves the rest of the pool hopeless
            # without ever batch-scoring it).  Every excluded code failed
            # an admissible filter at some point, and the cutoff only
            # grows, so exclusion is final; within a chunk, walking in
            # descending exact order means the first score below the
            # cutoff ends the chunk.
            walked = np.zeros(count, dtype=bool)
            walked[seed] = True
            pool = np.flatnonzero(~walked)
            while len(pool):
                if len(threshold) == k:
                    pool = pool[phonetic_share * bounds[pool] + weight
                                >= threshold[0]]
                    if not len(pool):
                        break
                take = min(len(pool), _PHASE2_CHUNK)
                if take < len(pool):
                    sel = np.argpartition(-bounds[pool], take - 1)[:take]
                    chunk = pool[sel]
                    keep = np.ones(len(pool), dtype=bool)
                    keep[sel] = False
                    pool = pool[keep]
                else:
                    chunk, pool = pool, pool[:0]
                if len(chunk) >= _VECTORIZE_THRESHOLD:
                    exact = batch_jaro_winkler(probe_ids[0], arrays,
                                               chunk)
                    for ids in probe_ids[1:]:
                        np.maximum(exact,
                                   batch_jaro_winkler(ids, arrays,
                                                      chunk),
                                   out=exact)
                else:
                    exact = np.array(
                        [max(jaro_winkler(pc, arrays.codes[row])
                             for pc in probe_codes)
                         for row in chunk], dtype=np.float64)
                upper_bounds[chunk] = exact
                exact_known[chunk] = True
                for position in np.argsort(-exact, kind="stable"):
                    if len(threshold) == k and (
                            phonetic_share * float(exact[position])
                            + weight < threshold[0]):
                        break
                    codes_scored += 1
                    code = arrays.codes[chunk[position]]
                    score_terms(self._groups[code], None)

        # Terms with no phonetic encoding score weight * surface at most;
        # <= keeps ties exact (a tying term can still win on term order).
        if len(threshold) < k or threshold[0] <= weight:
            score_terms(list(self._codeless), 0.0)

        results.sort(key=lambda st: (-st.score, st.term))
        return results[:k], codes_scored, terms_scored
