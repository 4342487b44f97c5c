"""Per-probe memoisation of exact phonetic top-k rankings.

Every serving-path phonetic lookup goes through this cache: the speech
channel's confusions, text-to-SQL's column, value and keyword matches,
and candidate generation's alternatives.  They ask
:class:`~repro.phonetics.index.PhoneticIndex` for the same handful of
probes over and over (every request repeats the schema element names
and function words, and users repeat constants), so rankings are worth
caching across requests.  ``PhoneticIndex`` itself stays uncached; its
``phonetic_stats()`` counters therefore count retrievals (cache misses),
not lookups.  The cache key is::

    (index.uid, index.version, probe, k, include_self)

``index.version`` is bumped by every mutation of the underlying index, so
a vocabulary change implicitly invalidates every entry for that index —
no explicit invalidation call needed (stale entries simply age out of the
LRU).  ``index.uid`` is process-unique and never reused, so entries can
never be confused between indexes, even after garbage collection.

Values are immutable tuples of :class:`~repro.phonetics.index.ScoredTerm`
and the underlying :class:`~repro.caching.lru.LruCache` provides
single-flight semantics: concurrent requests probing the same term run
one retrieval, not one each.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.caching.lru import CacheStats, LruCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.phonetics.index import PhoneticIndex, ScoredTerm

__all__ = ["PhoneticProbeCache", "phonetic_probe_cache",
           "reset_phonetic_probe_cache"]


class PhoneticProbeCache:
    """LRU over exact top-k phonetic rankings, keyed by index version."""

    def __init__(self, capacity: int = 4096) -> None:
        self._cache = LruCache(capacity)

    def most_similar(self, index: "PhoneticIndex", probe: str, k: int,
                     *, include_self: bool = True,
                     ) -> tuple["ScoredTerm", ...]:
        """The cached ranking of *probe* against *index* (single-flight).

        The version is read before the retrieval runs; a concurrent
        mutation therefore stores the fresher ranking under the older
        version key, which only errs towards fresher results.
        """
        key = (index.uid, index.version, probe, k, include_self)
        return self._cache.get_or_compute(
            key,
            lambda: tuple(index.most_similar(probe, k,
                                             include_self=include_self)))

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)


# ---------------------------------------------------------------------------
# Process-wide default instance
# ---------------------------------------------------------------------------

_default_lock = threading.Lock()
_default: PhoneticProbeCache | None = None


def phonetic_probe_cache() -> PhoneticProbeCache:
    """The process-wide probe cache shared by speech, text-to-SQL and
    candidate generation."""
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = PhoneticProbeCache()
    return _default


def reset_phonetic_probe_cache() -> None:
    """Replace the process-wide cache with a fresh one (test isolation)."""
    global _default
    with _default_lock:
        _default = None
