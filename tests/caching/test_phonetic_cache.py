"""Probe-cache and index-bundle caching on the candidate-generation path.

Covers the invalidation protocol end to end: ``PhoneticIndex`` mutations
bump ``index.version`` (keying fresh probe-cache entries), ``Database``
DDL, and inserts that add a distinct text value, bump
``vocabulary_version`` (keying fresh index bundles, whose new indexes
carry new uids — so stale probe rankings can never be served after a
vocabulary change).  Inserts of known values keep the version, and with
it the cached bundle.
"""

import threading


from repro.caching.phonetic import (
    PhoneticProbeCache,
    phonetic_probe_cache,
    reset_phonetic_probe_cache,
)
from repro.nlq.candidates import (
    CandidateGenerator,
    index_bundle_cache,
    reset_index_bundles,
)
from repro.phonetics.index import PhoneticIndex
from repro.sqldb.database import Database
from repro.sqldb.query import AggregateQuery

_FRUITS = ["apple", "apricot", "banana", "blueberry", "cranberry",
           "grape", "grapefruit", "lemon", "lime", "mango", "melon",
           "orange", "peach", "pear", "plum", "raspberry"]


def make_fruit_database() -> Database:
    database = Database()
    database.create_table("fruits", [("name", "text"),
                                     ("price", "double")])
    database.insert_rows("fruits", [(fruit, float(position))
                                    for position, fruit
                                    in enumerate(_FRUITS)])
    return database


class TestPhoneticProbeCache:
    def test_hit_skips_retrieval(self):
        cache = PhoneticProbeCache(capacity=16)
        index = PhoneticIndex(["brooklyn", "bronx", "queens"])
        first = cache.most_similar(index, "bruklin", 5)
        second = cache.most_similar(index, "bruklin", 5)
        assert first == second
        assert isinstance(first, tuple)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_distinct_parameters_are_distinct_entries(self):
        cache = PhoneticProbeCache(capacity=16)
        index = PhoneticIndex(["brooklyn", "bronx", "queens"])
        cache.most_similar(index, "bronx", 5)
        cache.most_similar(index, "bronx", 6)
        cache.most_similar(index, "bronx", 5, include_self=False)
        assert cache.stats.misses == 3
        assert len(cache) == 3

    def test_index_mutation_invalidates(self):
        cache = PhoneticProbeCache(capacity=16)
        index = PhoneticIndex(["brooklyn", "bronx"])
        before = cache.most_similar(index, "queens", 5)
        assert "queens" not in {st.term for st in before}
        index.add("queens")
        after = cache.most_similar(index, "queens", 5)
        assert cache.stats.hits == 0, "version bump must miss the cache"
        assert after[0].term == "queens"
        assert after[0].score == 1.0

    def test_indexes_never_share_entries(self):
        cache = PhoneticProbeCache(capacity=16)
        first = PhoneticIndex(["brooklyn"])
        second = PhoneticIndex(["queens"])
        assert first.uid != second.uid
        assert {st.term for st
                in cache.most_similar(first, "b", 3)} == {"brooklyn"}
        assert {st.term for st
                in cache.most_similar(second, "b", 3)} == {"queens"}
        assert cache.stats.misses == 2

    def test_single_flight_under_concurrency(self):
        cache = PhoneticProbeCache(capacity=16)
        retrievals = []
        gate = threading.Event()

        class SlowIndex:
            uid = 999_999
            version = 1

            def most_similar(self, probe, k, *, include_self=True):
                retrievals.append(probe)
                gate.wait(timeout=5.0)
                return [("score", probe)]

        index = SlowIndex()
        results = []

        def lookup():
            results.append(cache.most_similar(index, "probe", 5))

        threads = [threading.Thread(target=lookup) for _ in range(8)]
        for thread in threads:
            thread.start()
        while not retrievals:  # a leader is inside the retrieval
            pass
        gate.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(retrievals) == 1, "one retrieval serves all waiters"
        assert len(results) == 8
        assert all(result == results[0] for result in results)

    def test_process_wide_default_resets(self):
        default = phonetic_probe_cache()
        assert phonetic_probe_cache() is default
        reset_phonetic_probe_cache()
        fresh = phonetic_probe_cache()
        assert fresh is not default
        assert phonetic_probe_cache() is fresh


class TestVocabularyVersion:
    def test_insert_and_ddl_bump_the_version(self):
        database = Database()
        version = database.vocabulary_version
        database.create_table("t", [("name", "text")])
        assert database.vocabulary_version > version

        version = database.vocabulary_version
        database.insert_rows("t", [("alpha",)])
        assert database.vocabulary_version > version

        version = database.vocabulary_version
        database.drop_table("t")
        assert database.vocabulary_version > version

    def test_insert_of_existing_values_keeps_the_version(self):
        database = make_fruit_database()
        generator = CandidateGenerator(database, "fruits", k=5)
        bundle = generator._bundle()
        version = database.vocabulary_version
        database.insert_rows("fruits", [("apple", 9.0), ("banana", 0.5)])
        assert database.vocabulary_version == version
        assert generator._bundle() is bundle

    def test_insert_of_a_new_value_bumps_the_version(self):
        database = make_fruit_database()
        version = database.vocabulary_version
        database.insert_rows("fruits", [("apple", 9.0), ("cherry", 3.5)])
        assert database.vocabulary_version > version

    def test_register_table_bumps_the_version(self):
        from repro.datasets.generators import DATASET_GENERATORS
        database = Database()
        version = database.vocabulary_version
        database.register_table(
            DATASET_GENERATORS["nyc311"](num_rows=50, seed=0))
        assert database.vocabulary_version > version

    def test_database_uids_are_distinct(self):
        assert Database().uid != Database().uid


class TestIndexBundleReuse:
    def setup_method(self):
        reset_index_bundles()
        reset_phonetic_probe_cache()

    def teardown_method(self):
        reset_index_bundles()
        reset_phonetic_probe_cache()

    def test_generators_share_one_bundle(self):
        before = index_bundle_cache().stats
        database = make_fruit_database()
        first = CandidateGenerator(database, "fruits", k=5)
        second = CandidateGenerator(database, "fruits", k=10)
        assert first._bundle() is second._bundle()
        stats = index_bundle_cache().stats
        assert stats.misses - before.misses == 1
        # One warm per generator plus the two explicit lookups above.
        assert stats.hits - before.hits >= 3

    def test_insert_builds_a_fresh_bundle(self):
        database = make_fruit_database()
        generator = CandidateGenerator(database, "fruits", k=5)
        before = generator._bundle()
        assert "cherry" not in before.value_indexes["name"]
        database.insert_rows("fruits", [("cherry", 3.5)])
        after = generator._bundle()
        assert after is not before
        assert "cherry" in after.value_indexes["name"]
        # The superseded bundle is untouched, not mutated in place.
        assert "cherry" not in before.value_indexes["name"]

    def test_insert_invalidates_probe_rankings_end_to_end(self):
        """The acceptance path: DDL/insert → no stale probe-LRU hits.

        Rankings are cached under ``(index.uid, ...)`` and an insert
        keys a fresh bundle of *new* indexes with new uids, so the
        post-insert request can only miss the stale entries.
        """
        database = make_fruit_database()
        generator = CandidateGenerator(database, "fruits", k=5,
                                       max_simultaneous=1)
        seed = AggregateQuery.build("fruits", "avg", "price",
                                    {"name": "cheri"})
        before = generator.candidates(seed, 10)
        assert not any(
            any(p.value == "cherry" for p in c.query.predicates)
            for c in before), "cherry is not in the vocabulary yet"
        database.insert_rows("fruits", [("cherry", 3.5)])
        after = generator.candidates(seed, 10)
        assert any(
            any(p.value == "cherry" for p in c.query.predicates)
            for c in after), "fresh vocabulary must surface cherry"

    def test_distinct_databases_do_not_share_bundles(self):
        first = CandidateGenerator(make_fruit_database(), "fruits", k=5)
        second = CandidateGenerator(make_fruit_database(), "fruits", k=5)
        assert first._bundle() is not second._bundle()

    def test_probe_cache_hits_across_repeated_requests(self):
        database = make_fruit_database()
        generator = CandidateGenerator(database, "fruits", k=5,
                                       max_simultaneous=1)
        seed = AggregateQuery.build("fruits", "avg", "price",
                                    {"name": "aple"})
        generator.candidates(seed, 10)
        misses = phonetic_probe_cache().stats.misses
        hits = phonetic_probe_cache().stats.hits
        assert misses > 0
        generator.candidates(seed, 10)
        stats = phonetic_probe_cache().stats
        assert stats.misses == misses, "repeat request adds no misses"
        assert stats.hits > hits
