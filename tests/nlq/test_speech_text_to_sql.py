"""Tests for the speech noise simulator and the text-to-SQL translator."""

import pytest

from repro.datasets.generators import make_nyc311_table
from repro.errors import CandidateGenerationError
from repro.nlq.speech import SpeechSimulator, build_default_vocabulary
from repro.nlq.text_to_sql import TextToSql
from repro.sqldb.database import Database
from repro.sqldb.expressions import AggregateFunction

VOCAB = ["Brooklyn", "Bronx", "Manhattan", "Queens", "noise", "heating",
         "borough", "average", "resolution"]


class TestSpeechSimulator:
    def test_zero_error_rate_is_identity(self):
        sim = SpeechSimulator(VOCAB, word_error_rate=0.0, seed=0)
        text = "average resolution hours for borough Brooklyn"
        assert sim.transcribe(text) == text

    def test_full_error_rate_changes_words(self):
        sim = SpeechSimulator(VOCAB, word_error_rate=1.0, seed=0)
        original = "Brooklyn heating noise"
        transcript = sim.transcribe(original)
        assert transcript != original

    def test_word_count_preserved(self):
        sim = SpeechSimulator(VOCAB, word_error_rate=1.0, seed=1)
        original = "borough Brooklyn noise heating Queens"
        assert len(sim.transcribe(original).split()) == len(
            original.split())

    def test_deterministic_per_seed(self):
        text = "average noise for borough Brooklyn"
        t1 = SpeechSimulator(VOCAB, 0.8, seed=5).transcribe(text)
        t2 = SpeechSimulator(VOCAB, 0.8, seed=5).transcribe(text)
        assert t1 == t2

    def test_errors_are_phonetically_plausible(self):
        """Confusions must be near-homophones of the original word."""
        from repro.phonetics.index import phonetic_similarity
        sim = SpeechSimulator(VOCAB, word_error_rate=1.0, seed=2)
        for _ in range(20):
            transcript = sim.transcribe("Brooklyn")
            if transcript.lower() != "brooklyn":
                assert phonetic_similarity("brooklyn",
                                           transcript.lower()) > 0.5

    def test_case_carried_over(self):
        sim = SpeechSimulator(VOCAB, word_error_rate=1.0, seed=3)
        transcript = sim.transcribe("Brooklyn")
        assert transcript[0].isupper()

    def test_invalid_error_rate(self):
        with pytest.raises(ValueError):
            SpeechSimulator(VOCAB, word_error_rate=1.5)

    def test_default_vocabulary_includes_function_words(self):
        vocab = build_default_vocabulary(["col_a"])
        assert "average" in vocab
        assert "col_a" in vocab


class TestTextToSql:
    @pytest.fixture()
    def translator(self, nyc_db) -> TextToSql:
        return TextToSql(nyc_db, "nyc311")

    def test_average_with_two_predicates(self, translator):
        query = translator.translate(
            "what is the average resolution hours for borough Brooklyn "
            "and complaint type Noise")
        assert query.aggregate.func == AggregateFunction.AVG
        assert query.aggregate.column == "resolution_hours"
        assert query.predicate_on("borough").value == "Brooklyn"
        assert query.predicate_on("complaint_type").value == "Noise"

    def test_count_query(self, translator):
        query = translator.translate(
            "how many requests for borough Queens")
        assert query.aggregate.func == AggregateFunction.COUNT
        assert query.aggregate.column is None
        assert query.predicate_on("borough").value == "Queens"

    def test_max_keyword_variants(self, translator):
        for word in ("maximum", "highest", "largest"):
            query = translator.translate(f"{word} resolution hours")
            assert query.aggregate.func == AggregateFunction.MAX

    def test_min_keyword_variants(self, translator):
        for word in ("minimum", "lowest", "smallest"):
            query = translator.translate(f"{word} num calls")
            assert query.aggregate.func == AggregateFunction.MIN

    def test_sum_keyword(self, translator):
        query = translator.translate("total num calls for agency NYPD")
        assert query.aggregate.func == AggregateFunction.SUM
        assert query.aggregate.column == "num_calls"

    @pytest.mark.parametrize("text", ["total num calls",
                                      "show me total num calls",
                                      "what is the total num calls"])
    def test_aggregate_column_after_noise_words(self, translator, text):
        query = translator.translate(text)
        assert query.aggregate.func == AggregateFunction.SUM
        assert query.aggregate.column == "num_calls"

    def test_no_aggregate_defaults_to_count(self, translator):
        query = translator.translate("requests for borough Bronx")
        assert query.aggregate.func == AggregateFunction.COUNT

    def test_value_only_clause_finds_column(self, translator):
        query = translator.translate("count of requests for Brooklyn")
        assert query.predicate_on("borough").value == "Brooklyn"

    def test_misspelled_value_resolves_phonetically(self, translator):
        query = translator.translate(
            "average resolution hours for borough Bruklyn")
        assert query.predicate_on("borough").value == "Brooklyn"

    def test_misheard_column_resolves(self, translator):
        query = translator.translate(
            "average resolution ours for borro Brooklyn")
        assert query.predicate_on("borough").value == "Brooklyn"

    def test_empty_text_rejected(self, translator):
        with pytest.raises(CandidateGenerationError):
            translator.translate("   ")

    def test_no_predicates_query(self, translator):
        query = translator.translate("average resolution hours")
        assert query.predicates == ()

    def test_table_name_from_constructor(self, translator):
        query = translator.translate("count of requests")
        assert query.table == "nyc311"

    def test_matches_values_added_by_an_insert(self):
        database = Database(seed=1)
        database.register_table(make_nyc311_table(num_rows=500, seed=7))
        translator = TextToSql(database, "nyc311")
        text = "count of requests for borough Staten Island North"
        before = translator.translate(text)
        assert before.predicate_on("borough").value == "Staten Island"
        database.insert_rows("nyc311", [
            ("Noise", "NYPD", "Staten Island North", "Open", 1.0, 1)])
        after = translator.translate(text)
        assert after.predicate_on("borough").value == "Staten Island North"


class TestSpeechNoiseModes:
    def test_deletion_drops_words(self):
        sim = SpeechSimulator(VOCAB, word_error_rate=0.0,
                              deletion_rate=1.0, seed=0)
        assert sim.transcribe("Brooklyn noise heating") == ""

    def test_partial_deletion_shortens(self):
        sim = SpeechSimulator(VOCAB, word_error_rate=0.0,
                              deletion_rate=0.5, seed=1)
        text = "one two three four five six seven eight nine ten"
        transcript = sim.transcribe(text)
        assert 0 < len(transcript.split()) < len(text.split())

    def test_insertion_adds_vocabulary_words(self):
        sim = SpeechSimulator(VOCAB, word_error_rate=0.0,
                              insertion_rate=1.0, seed=2)
        transcript = sim.transcribe("Brooklyn noise")
        words = transcript.split()
        assert len(words) == 4  # one insertion after each word
        vocab_lower = {w.lower() for v in VOCAB for w in v.split()}
        assert words[1].lower() in vocab_lower
        assert words[3].lower() in vocab_lower

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            SpeechSimulator(VOCAB, deletion_rate=-0.1)
        with pytest.raises(ValueError):
            SpeechSimulator(VOCAB, insertion_rate=1.5)

    def test_all_modes_deterministic(self):
        kwargs = dict(word_error_rate=0.3, deletion_rate=0.2,
                      insertion_rate=0.2, seed=9)
        text = "average noise for borough Brooklyn and agency"
        a = SpeechSimulator(VOCAB, **kwargs).transcribe(text)
        b = SpeechSimulator(VOCAB, **kwargs).transcribe(text)
        assert a == b
