"""The two serving-path caches: query results and planner outputs.

Both wrap :class:`~repro.caching.lru.LruCache` with a domain-specific key
function and share its thread-safety.  Cached values are immutable
objects (:class:`~repro.sqldb.database.QueryResult`,
:class:`~repro.core.planner.PlannerResult`), so handing the same instance
to many threads is safe by construction.

They differ in how a miss is filled.  :class:`QueryResultCache` computes
through ``get_or_compute``, so concurrent identical misses coalesce into
one execution.  :class:`PlanCache` is a plain ``get``/``put`` map: the
planner stores a plan only when planning took no degradation rung, a
decision it can make only after planning, so concurrent identical misses
each plan.

Invalidation story: neither cache expires entries on its own.  Anything
that mutates a table (``insert_rows``/``drop_table``) must call
:meth:`QueryResultCache.clear` and :meth:`PlanCache.clear` —
:class:`~repro.muve.Muve` exposes ``invalidate_caches()`` for exactly
that.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import TYPE_CHECKING, Callable, Hashable

from repro.caching.lru import CacheStats, LruCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guards for type hints
    from repro.core.problem import MultiplotSelectionProblem
    from repro.observability import MetricsRegistry
    from repro.sqldb.database import QueryResult
    from repro.sqldb.parser import SelectStatement


def register_cache_metrics(registry: "MetricsRegistry", cache_name: str,
                           cache: "QueryResultCache | PlanCache") -> None:
    """Expose a cache's hit/miss/eviction counters as live gauges.

    The gauges pull from ``cache.stats`` at read time, so the registry
    snapshot always reflects the current counters without the cache
    pushing updates.  Re-registering the same ``cache_name`` (e.g. after
    rebuilding a pipeline) replaces the callbacks.
    """
    registry.register_gauge("cache_hits",
                            lambda: float(cache.stats.hits),
                            cache=cache_name)
    registry.register_gauge("cache_misses",
                            lambda: float(cache.stats.misses),
                            cache=cache_name)
    registry.register_gauge("cache_evictions",
                            lambda: float(cache.stats.evictions),
                            cache=cache_name)
    registry.register_gauge("cache_size",
                            lambda: float(cache.stats.size),
                            cache=cache_name)
    registry.register_gauge("cache_hit_rate",
                            lambda: cache.stats.hit_rate,
                            cache=cache_name)


class QueryResultCache:
    """Query results keyed on the executed statement.

    Wired into the execution layer: every merged-group statement the
    executor would run is first looked up here, so a repeated question (or
    a different question whose candidates merge into the same group
    statement) skips the engine entirely.
    """

    def __init__(self, capacity: int = 512) -> None:
        self._cache = LruCache(capacity)

    def get_or_execute(self, statement: "SelectStatement",
                       execute: Callable[["SelectStatement"],
                                         "QueryResult"],
                       ) -> "QueryResult":
        """The cached result of *statement*, running *execute* once on a
        miss."""
        return self._cache.get_or_compute(statement,
                                          lambda: execute(statement))

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)


class PlanCache:
    """Planner outputs keyed on (candidate set, geometry, cost model).

    Multiplot planning is deterministic given the problem (both solvers
    break ties lexicographically), so the planner result for a repeated
    candidate distribution can be reused wholesale.  The key captures
    everything of the problem that feeds the solvers: each candidate's
    (canonical) query and probability, the screen geometry and the user
    cost model.
    """

    def __init__(self, capacity: int = 256) -> None:
        self._cache = LruCache(capacity)

    @staticmethod
    def problem_key(problem: "MultiplotSelectionProblem") -> Hashable:
        """A hashable identity of a planning problem instance."""
        candidates = tuple(
            (candidate.query, round(candidate.probability, 12))
            for candidate in problem.candidates)
        return (candidates,
                astuple(problem.geometry),
                astuple(problem.cost_model))

    def get(self, key: Hashable) -> object | None:
        """The cached result for *key*, or ``None``."""
        return self._cache.get(key)

    def put(self, key: Hashable, result: object) -> None:
        """Store a planner result the caller has proven undegraded."""
        self._cache.put(key, result)

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)
