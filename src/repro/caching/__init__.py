"""Thread-safe caching for the concurrent serving path.

The package provides:

* :class:`LruCache` — a generic thread-safe LRU with single-flight
  computation and hit/miss/eviction counters.
* :class:`QueryResultCache` / :class:`PlanCache` — the two domain caches
  wired into :class:`~repro.execution.engine.MuveExecutor` and
  :class:`~repro.core.planner.VisualizationPlanner`, keyed on parse
  trees (:class:`~repro.sqldb.parser.SelectStatement`) and canonical
  :class:`~repro.sqldb.query.AggregateQuery` objects respectively.
* :class:`PhoneticProbeCache` — exact top-k phonetic rankings keyed by
  ``(index uid, index version, probe, k, include_self)``, wired into
  :class:`~repro.nlq.candidates.CandidateGenerator`.
* :class:`SelectionCache` — the byte-bounded cross-request cache of leaf
  predicate selections every statement shares.
"""

from repro.caching.caches import (
    PlanCache,
    QueryResultCache,
    register_cache_metrics,
)
from repro.caching.lru import CacheStats, LruCache
from repro.caching.phonetic import (
    PhoneticProbeCache,
    phonetic_probe_cache,
    reset_phonetic_probe_cache,
)
from repro.caching.selection import SelectionCache

__all__ = [
    "CacheStats",
    "LruCache",
    "PhoneticProbeCache",
    "PlanCache",
    "QueryResultCache",
    "SelectionCache",
    "phonetic_probe_cache",
    "register_cache_metrics",
    "reset_phonetic_probe_cache",
]
