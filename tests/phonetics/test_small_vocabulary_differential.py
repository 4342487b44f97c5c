"""Differential suite: the small-vocabulary walk == the exhaustive oracle.

On vocabularies of at most 64 terms (and for probes without a Double
Metaphone code) ``PhoneticIndex.most_similar`` walks the terms in
descending exact phonetic order and scores surface forms only while they
can still rank.  Its rankings must be **bit-identical** to the per-term
scan in ``tests/phonetics/scan_oracle.py`` — same terms, same float
scores, same lexicographic tie order — including codeless terms and
probes, multi-word terms, ``include_self=False``, k at or past the
vocabulary size, and exact score ties.  The walk must also encode the
probe once and count only the terms it really scored.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.phonetics.index as index_module
from repro.phonetics.index import PhoneticIndex, phonetic_stats
from tests.phonetics.scan_oracle import exhaustive_scan

_WORDS = ["brooklyn", "bruklin", "queens", "quince", "bronx", "brooks",
          "flour", "flower", "manhattan", "staten island", "noise",
          "noisy", "heat", "heating", "hot water", "smith", "smyth"]

# Words, digit runs (codeless), and words with digit suffixes: "ab 1" and
# "ab 2" share their codes and score exactly alike against most probes.
# Case variants ("Queens", "queens") tie at their full bound: a perfect
# surface match, the one tie a non-strict cutoff would drop.
_TERM = st.one_of(
    st.sampled_from(_WORDS),
    st.sampled_from([word.title() for word in _WORDS]),
    st.text(alphabet=string.ascii_lowercase + " ", min_size=1,
            max_size=10),
    st.text(alphabet="0123456789 ", min_size=1, max_size=4),
    st.builds(lambda word, digit: f"{word} {digit}",
              st.sampled_from(_WORDS), st.integers(0, 9)),
)
_PROBE = st.one_of(
    st.sampled_from(_WORDS + ["", "123", " ", "brooklyn 3"]),
    st.text(alphabet=string.ascii_lowercase + " 019", max_size=12),
)


def _assert_identical(index: PhoneticIndex, probe: str, k: int) -> None:
    for include_self in (True, False):
        walked = index.most_similar(probe, k=k, include_self=include_self)
        oracle = exhaustive_scan(index, probe, k, include_self=include_self)
        assert walked == oracle, (
            f"probe={probe!r} k={k} include_self={include_self}")


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(_TERM, min_size=1, max_size=64, unique=True),
       probe=_PROBE, k=st.integers(min_value=1, max_value=70))
def test_hypothesis_small_differential(terms, probe, k):
    index = PhoneticIndex(terms)
    _assert_identical(index, probe, k)
    # A vocabulary member as the probe: include_self matters.
    _assert_identical(index, terms[len(terms) // 2], k)


class TestFixedCases:
    def test_exact_ties_keep_term_order(self):
        terms = ["ab 3", "ab 1", "ab 2", "abby", "123", "124", "125"]
        index = PhoneticIndex(terms)
        for probe, tied in [("ab 0", ["ab 1", "ab 2", "ab 3"]),
                            ("120", ["123", "124", "125"])]:
            top = index.most_similar(probe, k=3)
            assert [st.term for st in top] == tied
            assert top[0].score == top[1].score == top[2].score
            # k cuts through the tie: term order decides.
            assert index.most_similar(probe, k=2) == top[:2]
        for probe in ["ab", "ab 0", "120", "", "abbey"]:
            for k in (1, 2, 3, len(terms), len(terms) + 5):
                _assert_identical(index, probe, k)

    def test_case_variants_tie_at_the_bound(self):
        # The second variant's bound equals the cutoff the first one set;
        # it must still be scored, and wins on term order.
        index = PhoneticIndex(["queens", "Queens", "QUEENS", "quince"])
        top = index.most_similar("queens", k=1)
        assert [st.term for st in top] == ["QUEENS"]
        for k in (1, 2, 3, 4):
            _assert_identical(index, "queens", k)

    def test_codeless_probe_on_a_large_vocabulary(self):
        # Codeless probes take the exact walk whatever the size.
        terms = [f"term {i:03d}" for i in range(100)]
        terms += [str(i) for i in range(0, 500, 7)]
        index = PhoneticIndex(terms)
        for probe in ["", "42", "9 9", "?!"]:
            for k in (1, 5, 20):
                _assert_identical(index, probe, k)

    def test_k_past_the_vocabulary_returns_everything(self):
        terms = ["queens", "quince", "1234", "hot water"]
        index = PhoneticIndex(terms)
        ranked = index.most_similar("queen", k=10)
        assert sorted(st.term for st in ranked) == sorted(terms)
        _assert_identical(index, "queen", 10)


class TestProbeEncoding:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        real = index_module.metaphone_codes

        def counting(value, *args, **kwargs):
            calls.append(value)
            return real(value, *args, **kwargs)

        monkeypatch.setattr(index_module, "metaphone_codes", counting)
        return calls

    @pytest.mark.parametrize("probe", ["bruklin", "123", "staten iland"])
    @pytest.mark.parametrize("k", [1, 5, 64])
    def test_one_encoding_per_lookup(self, counted, probe, k):
        index = PhoneticIndex(_WORDS + ["42", "7 11"])
        counted.clear()
        index.most_similar(probe, k=k)
        assert counted == [probe]


class TestRetrievalCounters:
    def test_small_walk_counts_only_scored_terms(self):
        terms = _WORDS + [f"{word} {digit}" for word in _WORDS[:4]
                          for digit in range(8)]
        assert len(terms) <= 64
        index = PhoneticIndex(terms)
        before = phonetic_stats()
        top = index.most_similar("brooklin", k=1)
        after = phonetic_stats()
        assert top == exhaustive_scan(index, "brooklin", 1)
        assert after["exhaustive_probes"] == before["exhaustive_probes"] + 1
        assert after["terms_total"] - before["terms_total"] == len(index)
        scanned = after["terms_scored"] - before["terms_scored"]
        assert 0 < scanned < len(index) // 4

    def test_k_covering_the_vocabulary_scores_every_term(self):
        index = PhoneticIndex(_WORDS)
        before = phonetic_stats()["terms_scored"]
        index.most_similar("brooklin", k=len(index))
        assert phonetic_stats()["terms_scored"] - before == len(index)
