"""Cross-request cache of predicate selections (masks and postings).

Leaf-predicate selections — boolean masks from full scans, int64
position arrays from secondary-index probes — are pure functions of
table data, so one request's work can serve every later request until
the data changes.  :class:`SelectionCache` is the byte-budgeted store
:class:`~repro.sqldb.database.Database` keeps for the batch executor;
the database drops the whole cache on any DDL or data mutation.

Eviction is clear-all: predicate working sets are small (one entry per
distinct candidate leaf), so the budget only trips when the workload
churns through predicates — at which point nothing in the cache is
worth ranking.  Plain-dict operations keep the read path lock-free
under the GIL; mutations serialise on a small lock so the byte
accounting and the monotonic :attr:`~SelectionCache.version` counter
stay consistent under concurrent requests' stores.  A racing
double-store is harmless (both stores are the same pure value).
"""

from __future__ import annotations

import threading
from typing import Hashable

import numpy as np

__all__ = ["SelectionCache"]


class SelectionCache:
    """A byte-budgeted ``key -> numpy selection`` store.

    Stored arrays are shared across threads and requests — callers must
    treat them as immutable.  A budget of 0 disables storage entirely
    (lookups simply always miss).

    ``version`` increments under the mutation lock on every state
    change (store, budget eviction, clear) and never decreases — a
    reader that captures the version before and after a lookup can
    detect concurrent mutation, and the concurrency suite asserts
    monotonicity under a multi-thread hammer.
    """

    def __init__(self, budget_bytes: int) -> None:
        self._budget = budget_bytes
        self._lock = threading.Lock()
        self._entries: dict[Hashable, np.ndarray] = {}
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._clears = 0
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic mutation counter (reads are lock-free; the int is
        replaced atomically under the GIL)."""
        return self._version

    def get(self, key: Hashable) -> np.ndarray | None:
        # Lock-free: dict reads are atomic under the GIL, and values are
        # only ever whole immutable arrays — a concurrent clear swaps
        # the dict object, it never mutates entries in place, so a read
        # observes either the complete array or a miss, never a torn
        # value.
        entry = self._entries.get(key)
        # Racing increments may drop a count; the stats are advisory.
        if entry is not None:
            self._hits += 1
        else:
            self._misses += 1
        return entry

    def store(self, key: Hashable, selection: np.ndarray) -> None:
        if self._budget <= 0:
            return
        with self._lock:
            if self._bytes + selection.nbytes > self._budget:
                self._entries = {}
                self._bytes = 0
                self._clears += 1
                self._version += 1
                if selection.nbytes > self._budget:
                    return
            # Replacing dicts on eviction (rather than .clear()) keeps
            # concurrent lock-free readers iterating a stable snapshot.
            previous = self._entries.get(key)
            self._entries[key] = selection
            self._bytes += selection.nbytes
            if previous is not None:
                self._bytes -= previous.nbytes
            self._version += 1

    def clear(self) -> None:
        with self._lock:
            self._entries = {}
            self._bytes = 0
            self._version += 1

    def stats(self) -> dict[str, float]:
        return {
            "entries": float(len(self._entries)),
            "bytes": float(self._bytes),
            "budget_bytes": float(self._budget),
            "hits": float(self._hits),
            "misses": float(self._misses),
            "clears": float(self._clears),
            "version": float(self._version),
        }
