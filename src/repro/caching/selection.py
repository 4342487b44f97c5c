"""Cross-request cache of predicate selections (masks and postings).

Leaf-predicate selections — boolean masks from full scans, int64
position arrays from secondary-index probes — are pure functions of
table data, so one request's work can serve every later request until
the data changes.  :class:`SelectionCache` is the byte-budgeted store
:class:`~repro.sqldb.database.Database` keeps for its statements;
the database brackets every DDL or data mutation in
:meth:`SelectionCache.mutation`, which drops the whole cache.

A statement may build a selection from the rows before a mutation and
offer it after the mutation dropped the cache.  Every lookup and store
therefore carries the :attr:`~SelectionCache.epoch` the statement read
before it touched the table: a store is refused once the epoch has
moved or while a mutation is under way, and a lookup under an old
epoch finds nothing.  So no selection outlives the data it describes.

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
from contextlib import contextmanager
from typing import Hashable, Iterator

import numpy as np

__all__ = ["SelectionCache"]


class SelectionCache:
    """A byte-budgeted ``key -> numpy selection`` store.

    Stored arrays are shared across threads and requests — callers must
    treat them as immutable.  A budget of 0 disables storage entirely
    (lookups simply always miss).

    ``hits`` counts lookups that found a selection (a leaf reused);
    ``misses`` counts stores (a leaf built).  A lookup that finds
    nothing counts neither: a caller may look a leaf up under a key it
    never stores, as the executor does for leaves with no index path.

    ``version`` increments under the mutation lock on every state
    change (store, budget eviction, a mutation's drops) and never
    decreases — a reader that captures the version before and after a
    lookup can detect concurrent mutation, and the concurrency suite
    asserts monotonicity under a multi-thread hammer.
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
        self._epoch = 0
        self._mutations = 0

    @property
    def version(self) -> int:
        """Monotonic mutation counter (reads are lock-free; the int is
        replaced atomically under the GIL)."""
        return self._version

    @property
    def epoch(self) -> int:
        """Moves at the start and the end of every :meth:`mutation`; a
        statement reads it before it reads the table and passes it to
        :meth:`get` and :meth:`store`."""
        return self._epoch

    def get(self, key: Hashable, epoch: int) -> np.ndarray | None:
        # Lock-free: dict reads are atomic under the GIL, and values are
        # only ever whole immutable arrays — a concurrent drop swaps
        # the dict object, it never mutates entries in place, so a read
        # observes either the complete array or a miss, never a torn
        # value.  The epoch is read after the entry: if it still equals
        # *epoch*, no mutation began since the caller read it, so the
        # entry describes the rows the caller reads.
        entry = self._entries.get(key)
        if entry is None or self._epoch != epoch:
            return None
        # Racing increments may drop a count; the stats are advisory.
        self._hits += 1
        return entry

    def store(self, key: Hashable, selection: np.ndarray,
              epoch: int) -> None:
        # A store is a selection built: count it even when it is then
        # refused.
        self._misses += 1
        if self._budget <= 0:
            return
        with self._lock:
            if epoch != self._epoch or self._mutations:
                return
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

    @contextmanager
    def mutation(self) -> Iterator[None]:
        """Bracket a change to the data the selections describe: the
        cache is dropped at both ends, and no store lands in between."""
        with self._lock:
            self._mutations += 1
            self._drop()
        try:
            yield
        finally:
            with self._lock:
                self._mutations -= 1
                self._drop()

    def _drop(self) -> None:
        self._entries = {}
        self._bytes = 0
        self._epoch += 1
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
