"""Differential suite: pruned retrieval == the exhaustive oracle.

The pruned best-first search in ``PhoneticIndex.most_similar`` must be
**bit-identical** to the exhaustive ranking — same terms, same float
scores, same lexicographic tie order — for every probe, vocabulary and
k.  These tests pin that against the private ``_exhaustive_scan`` oracle
with hypothesis-generated and fixed-seed random vocabularies (both past
the small-vocabulary fallback threshold, so the pruned path really
runs).
"""

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phonetics.index import PhoneticIndex, phonetic_stats

_SYLLABLES = ["ba", "be", "bo", "ka", "ko", "da", "do", "fa", "ga",
              "la", "lo", "ma", "mo", "na", "no", "ra", "ro", "sa",
              "so", "ta", "to", "sha", "cha", "tha", "zo"]


def _random_terms(rng: random.Random, count: int) -> list[str]:
    terms: set[str] = set()
    while len(terms) < count:
        term = "".join(rng.choice(_SYLLABLES)
                       for _ in range(rng.randint(1, 4)))
        roll = rng.random()
        if roll < 0.2:
            term += " " + rng.choice(_SYLLABLES)
        elif roll < 0.3:
            term += str(rng.randint(0, 99))
        elif roll < 0.35:
            term = str(rng.randint(0, 9999))  # codeless
        terms.add(term)
    return sorted(terms)


def _assert_identical(index: PhoneticIndex, probe: str, k: int) -> None:
    for include_self in (True, False):
        pruned = index.most_similar(probe, k=k,
                                    include_self=include_self)
        oracle = index._exhaustive_scan(probe, k,
                                        include_self=include_self)
        assert pruned == oracle, (
            f"probe={probe!r} k={k} include_self={include_self}")


class TestFixedSeedDifferential:
    @pytest.fixture(scope="class")
    def index(self):
        return PhoneticIndex(_random_terms(random.Random(5), 1500))

    def test_random_probes_all_k(self, index):
        rng = random.Random(17)
        probes = ["".join(rng.choice(_SYLLABLES) for _ in range(3))
                  for _ in range(15)]
        probes += ["bakade", "shachazo tho", "brooklyn", "flour"]
        for probe in probes:
            for k in (1, 3, 20, 100):
                _assert_identical(index, probe, k)

    def test_vocabulary_member_probes(self, index):
        members = list(index)[::200]
        for probe in members:
            _assert_identical(index, probe, 20)

    def test_degenerate_probes(self, index):
        for probe in ["", "123", "   ", "a", "?!", "new york"]:
            _assert_identical(index, probe, 10)

    def test_k_exceeding_vocabulary(self, index):
        _assert_identical(index, "bakado", len(index) + 10)

    def test_exact_after_incremental_adds(self, index):
        version = index.version
        index.add_all(["brooklynn", "bruklin", "broklyn 42",
                       "9912", "flower"])
        assert index.version > version
        for probe in ["brooklyn", "flour", "9912"]:
            _assert_identical(index, probe, 25)


class TestRetrievalStats:
    def test_exhaustive_probe_is_counted(self):
        index = PhoneticIndex(_random_terms(random.Random(3), 40))
        before = phonetic_stats()["exhaustive_probes"]
        assert index.most_similar("bakoda", k=10) == \
            index._exhaustive_scan("bakoda", 10)
        assert phonetic_stats()["exhaustive_probes"] == before + 1

    def test_pruned_probe_scans_a_fraction(self):
        index = PhoneticIndex(_random_terms(random.Random(9), 2000))
        before = phonetic_stats()
        index.most_similar("bakado", k=5)
        after = phonetic_stats()
        assert after["probes"] == before["probes"] + 1
        assert after["terms_total"] - before["terms_total"] == len(index)
        scanned = after["terms_scored"] - before["terms_scored"]
        assert 0 < scanned < len(index)


@settings(max_examples=25, deadline=None)
@given(
    terms=st.lists(
        st.text(alphabet=string.ascii_lowercase + " 0123456789",
                min_size=1, max_size=12),
        min_size=70, max_size=120, unique=True),
    probe=st.text(alphabet=string.ascii_lowercase + " 019",
                  max_size=14),
    k=st.integers(min_value=1, max_value=40),
)
def test_hypothesis_differential(terms, probe, k):
    index = PhoneticIndex(terms)
    _assert_identical(index, probe, k)
