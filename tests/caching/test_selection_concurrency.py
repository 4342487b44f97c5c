"""Concurrency tests for the cross-request selection cache.

The worker pool made concurrent stores the normal case, so
:class:`~repro.caching.selection.SelectionCache` must hold two promises
under contention: lock-free readers never observe a torn value (every
``get`` returns either a miss or a complete, correct array), and the
``version`` counter is monotonic so readers can detect concurrent
mutation.  The hammer below races 8 threads of ``put``/``clear``/
byte-budget eviction against readers; the deterministic tests pin the
byte accounting and version semantics the hammer relies on, and the
epoch rule: a selection built before a mutation is never stored after
it, whichever access path built it.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.caching.selection import SelectionCache
from repro.datasets import make_nyc311_table
from repro.sqldb import executor as executor_module
from repro.sqldb.database import Database
from repro.sqldb.expressions import Like

_KEYS = list(range(16))


def _canonical(key: int) -> np.ndarray:
    """The one true value for *key*: length and contents both encode the
    key, so any mixing of two entries is detectable."""
    return np.full(64 + key, key, dtype=np.int64)


def _run_threads(workers, duration=None):
    errors: list[BaseException] = []
    stop = threading.Event()

    def wrap(fn):
        def run():
            try:
                fn(stop)
            except BaseException as exc:
                errors.append(exc)
                stop.set()
        return run

    threads = [threading.Thread(target=wrap(fn), daemon=True)
               for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "worker did not finish"
    assert not errors, errors[0]


class TestHammer:
    """8 threads racing put/clear/eviction against lock-free readers."""

    ITERATIONS = 400

    def test_no_torn_reads_and_monotonic_version(self):
        # Budget sized so stores regularly trip clear-all eviction.
        budget = sum(_canonical(k).nbytes for k in _KEYS) // 2
        cache = SelectionCache(budget_bytes=budget)

        def writer(seed):
            def run(stop):
                rng = np.random.default_rng(seed)
                for _ in range(self.ITERATIONS):
                    if stop.is_set():
                        return
                    key = int(rng.integers(len(_KEYS)))
                    cache.store(key, _canonical(key), cache.epoch)
            return run

        def clearer(stop):
            for _ in range(self.ITERATIONS // 4):
                if stop.is_set():
                    return
                with cache.mutation():
                    pass

        def reader(seed):
            def run(stop):
                rng = np.random.default_rng(seed)
                last_version = cache.version
                for _ in range(self.ITERATIONS):
                    if stop.is_set():
                        return
                    version = cache.version
                    assert version >= last_version, "version went backwards"
                    last_version = version
                    key = int(rng.integers(len(_KEYS)))
                    value = cache.get(key, cache.epoch)
                    if value is not None:
                        # A torn read would mix length or contents.
                        expected = _canonical(key)
                        assert value.shape == expected.shape
                        assert np.array_equal(value, expected)
            return run

        _run_threads([writer(1), writer(2), writer(3), clearer,
                      reader(4), reader(5), reader(6), reader(7)])
        # Post-hammer the accounting must still be coherent.
        stats = cache.stats()
        assert stats["bytes"] <= stats["budget_bytes"]
        assert stats["entries"] <= len(_KEYS)

    def test_database_mask_cache_survives_mutation_races(self):
        """The database's own path: statements that resolve their leaf
        through the selection cache race ``insert_rows`` (which drops
        it).  A selection built over the rows before an append must not
        be stored once the append is done: afterwards every statement
        must equal a database without the cache over the same table.

        Each statement is a one-leaf COUNT(*), on the index path
        (equality) and the mask path (LIKE), so it reads the table once
        and only the cache can mix two states of it."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave threads finely
        try:
            for seed in range(12):
                self._race_inserts(seed)
        finally:
            sys.setswitchinterval(previous)

    def _race_inserts(self, seed):
        db = Database(seed=0)
        db.register_table(make_nyc311_table(num_rows=64, seed=1))
        table = db.table("nyc311")
        names = list(table.schema.column_names)
        row = tuple(table.column(name)[0] for name in names)
        inserts = 40
        statements = []
        for borough in sorted(set(table.column("borough").tolist())):
            statements.append("SELECT COUNT(*) FROM nyc311 "
                              f"WHERE borough = '{borough}'")
            statements.append("SELECT COUNT(*) FROM nyc311 "
                              f"WHERE borough LIKE '{borough[:2]}%'")
        before = {sql: db.execute(sql).scalar() for sql in statements}

        def mutator(stop):
            for _ in range(inserts):
                if stop.is_set():
                    return
                db.insert_rows("nyc311", [row])

        def reader(reader_seed):
            def run(stop):
                rng = np.random.default_rng(reader_seed)
                for _ in range(200):
                    if stop.is_set():
                        return
                    sql = statements[int(rng.integers(len(statements)))]
                    count = db.execute(sql).scalar()
                    assert before[sql] <= count <= before[sql] + inserts
            return run

        _run_threads([mutator, reader(3 * seed), reader(3 * seed + 1),
                      reader(3 * seed + 2)])
        uncached = Database(seed=0, mask_cache_bytes=0)
        uncached.register_table(table)
        for sql in statements:
            assert db.execute(sql).scalar() == \
                uncached.execute(sql).scalar(), sql


class TestDeterministicSemantics:
    def test_version_bumps_on_every_mutation(self):
        cache = SelectionCache(budget_bytes=10_000)
        v0 = cache.version
        cache.store("a", np.ones(8, dtype=bool), cache.epoch)
        assert cache.version == v0 + 1
        with cache.mutation():  # drops the cache at both ends
            pass
        assert cache.version == v0 + 3
        # Reads never bump.
        cache.get("a", cache.epoch)
        assert cache.version == v0 + 3

    def test_eviction_bumps_version_and_resets_bytes(self):
        entry = np.ones(100, dtype=np.int64)
        cache = SelectionCache(budget_bytes=int(entry.nbytes * 1.5))
        cache.store("a", entry, cache.epoch)
        v_before = cache.version
        # Trips clear-all, then stores b.
        cache.store("b", entry, cache.epoch)
        assert cache.version >= v_before + 2
        assert cache.stats()["clears"] == 1.0
        assert cache.stats()["bytes"] == float(entry.nbytes)
        assert cache.get("a", cache.epoch) is None
        assert cache.get("b", cache.epoch) is not None

    def test_double_store_keeps_byte_accounting_exact(self):
        cache = SelectionCache(budget_bytes=10_000)
        cache.store("a", np.ones(100, dtype=np.int64), cache.epoch)
        cache.store("a", np.ones(50, dtype=np.int64), cache.epoch)
        assert cache.stats()["bytes"] == 50 * 8.0
        assert cache.stats()["entries"] == 1.0

    def test_oversized_entry_is_not_stored(self):
        cache = SelectionCache(budget_bytes=16)
        cache.store("big", np.ones(100, dtype=np.int64), cache.epoch)
        assert cache.get("big", cache.epoch) is None
        assert cache.stats()["bytes"] == 0.0

    def test_zero_budget_disables_storage(self):
        cache = SelectionCache(budget_bytes=0)
        v0 = cache.version
        cache.store("a", np.ones(4, dtype=bool), cache.epoch)
        assert cache.get("a", cache.epoch) is None
        assert cache.version == v0

    def test_store_under_an_old_epoch_is_refused(self):
        cache = SelectionCache(budget_bytes=10_000)
        epoch = cache.epoch
        with cache.mutation():
            cache.store("a", np.ones(4, dtype=bool), epoch)
            cache.store("a", np.ones(4, dtype=bool), cache.epoch)
            assert cache.stats()["entries"] == 0.0
        cache.store("a", np.ones(4, dtype=bool), epoch)
        assert cache.stats()["entries"] == 0.0
        cache.store("a", np.ones(4, dtype=bool), cache.epoch)
        assert cache.get("a", cache.epoch) is not None
        assert cache.get("a", epoch) is None
        # Both stores inside and the two after were builds.
        assert cache.stats()["misses"] == 4.0


def _appending_while_building(db, row):
    """Patch a builder so that the first call appends *row* to the table
    after it has read the rows, as a racing ``insert_rows`` would."""
    appended = []

    def wrap(build):
        def run(*args):
            selection = build(*args)
            if not appended:
                appended.append(True)
                db.insert_rows("nyc311", [row])
            return selection
        return run
    return wrap


class TestSelectionBuiltBeforeAnAppend:
    """A statement that built a leaf selection from the rows before an
    append must not leave it in the cache after the append."""

    def _database(self):
        db = Database(seed=0)
        db.register_table(make_nyc311_table(num_rows=200, seed=3))
        table = db.table("nyc311")
        names = list(table.schema.column_names)
        row = [table.column(name)[0] for name in names]
        row[names.index("borough")] = "Brooklyn"
        return db, row

    def test_scan_mask(self, monkeypatch):
        db, row = self._database()
        sql = "SELECT COUNT(*) FROM nyc311 WHERE borough LIKE 'Bro%'"
        before = Database(seed=0, mask_cache_bytes=0)
        before.register_table(make_nyc311_table(num_rows=200, seed=3))
        expected = before.execute(sql).scalar()
        monkeypatch.setattr(
            Like, "evaluate",
            _appending_while_building(db, row)(Like.evaluate))
        assert db.execute(sql).scalar() == expected
        assert db.execute(sql).scalar() == expected + 1

    def test_index_postings(self, monkeypatch):
        db, row = self._database()
        sql = "SELECT COUNT(*) FROM nyc311 WHERE borough = 'Brooklyn'"
        before = Database(seed=0, mask_cache_bytes=0)
        before.register_table(make_nyc311_table(num_rows=200, seed=3))
        expected = before.execute(sql).scalar()
        monkeypatch.setattr(
            executor_module, "resolve_leaf",
            _appending_while_building(db, row)(
                executor_module.resolve_leaf))
        assert db.execute(sql).scalar() == expected
        assert db.execute(sql).scalar() == expected + 1
