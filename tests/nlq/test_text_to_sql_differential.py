"""Differential suite: text-to-SQL through PhoneticIndex against the scan.

:class:`TextToSql` resolves every column name, value and misheard
aggregate keyword with ``most_similar(phrase, 1)`` on a
:class:`PhoneticIndex`.  The reference is :mod:`tests.nlq.text_to_sql_oracle`:
the same translation logic with each lookup answered by a linear scan of
the whole vocabulary.  Both must give an equal :class:`AggregateQuery`,
or fail with the same error type, on seeded workload utterances over
nyc311, DOB and ads passed through the speech simulator at three word
error rates, and on trend questions over flights.

Both the speech channel and the translator answer their lookups from the
process-wide probe cache, so the same corpus is also heard and
translated with the cache emptied before every call: a cold cache must
give the transcripts and translations a warm one gives.
"""

from __future__ import annotations

import random

import pytest

from repro.caching.phonetic import reset_phonetic_probe_cache
from repro.datasets import DATASET_GENERATORS, WorkloadGenerator
from repro.nlq.speech import SpeechSimulator, build_default_vocabulary
from repro.nlq.text_to_sql import TextToSql
from repro.sqldb.database import Database
from repro.sqldb.query import AggregateQuery
from tests.nlq.text_to_sql_oracle import ScanTextToSql

UTTERANCES = 100
ERROR_RATES = (0.0, 0.15, 0.4)

_OPENINGS = ("", "what is the", "show me", "show me the")
_FUNCTION_WORDS = {
    "count": ("count of rows", "how many records", "number of entries"),
    "sum": ("total", "sum of"),
    "avg": ("average", "mean"),
    "min": ("minimum", "lowest"),
    "max": ("maximum", "highest"),
}


def utterance(query: AggregateQuery, rng: random.Random) -> str:
    """A spoken form of *query*, with the phrasing drawn from *rng*."""
    parts = [rng.choice(_OPENINGS),
             rng.choice(_FUNCTION_WORDS[query.aggregate.func.value])]
    if query.aggregate.column is not None:
        parts.append(query.aggregate.column.replace("_", " "))
    clauses = []
    for predicate in query.predicates:
        value = str(predicate.value)
        if rng.random() < 0.25:
            clauses.append(value)  # value-only: "for Brooklyn"
        else:
            equals = rng.choice(("", " is"))
            clauses.append(f"{predicate.column.replace('_', ' ')}{equals} "
                           f"{value}")
    if clauses:
        parts.append(rng.choice(("for", "where", "with")))
        parts.append(" and ".join(clauses))
    return " ".join(part for part in parts if part)


def outcome(call):
    """The translation, or the type of the error it raised."""
    try:
        return call()
    except Exception as error:  # noqa: BLE001 - the type is the outcome
        return type(error)


def database_of(name: str) -> Database:
    database = Database(seed=0)
    database.register_table(DATASET_GENERATORS[name](num_rows=3000,
                                                     seed=11))
    return database


def utterances(database: Database, table: str, seed: int,
               trend: bool = False) -> list[str]:
    """Seeded workload questions as spoken; with *trend*, each ends in a
    ``by``/``per`` phrase naming a column."""
    workload = WorkloadGenerator(database.table(table), seed=seed)
    columns = database.table(table).schema.column_names
    rng = random.Random(seed)
    texts = []
    for _ in range(UTTERANCES):
        text = utterance(workload.random_query(3), rng)
        if trend:
            text += (f" {rng.choice(('by', 'per'))} "
                     f"{rng.choice(columns).replace('_', ' ')}")
        texts.append(text)
    return texts


def speech_of(database: Database, table: str, wer: float,
              seed: int) -> SpeechSimulator:
    return SpeechSimulator(
        build_default_vocabulary(database.vocabulary(table)),
        word_error_rate=wer, seed=seed)


def transcripts(database: Database, table: str, wer: float, seed: int,
                trend: bool = False) -> list[str]:
    """Seeded workload questions as the speech simulator hears them."""
    speech = speech_of(database, table, wer, seed)
    return [speech.transcribe(text)
            for text in utterances(database, table, seed, trend)]


@pytest.mark.parametrize("wer", ERROR_RATES)
@pytest.mark.parametrize("table", ("nyc311", "dob", "ads"))
def test_translate_matches_scan(table, wer):
    database = database_of(table)
    index, scan = TextToSql(database, table), ScanTextToSql(database, table)
    for text in transcripts(database, table, wer,
                            seed=int(wer * 100) + 1):
        assert (outcome(lambda: index.translate(text))
                == outcome(lambda: scan.translate(text))), text


@pytest.mark.parametrize("wer", ERROR_RATES)
def test_translate_trend_matches_scan(wer):
    database = database_of("flights")
    index = TextToSql(database, "flights")
    scan = ScanTextToSql(database, "flights")
    for text in transcripts(database, "flights", wer,
                            seed=int(wer * 100) + 2, trend=True):
        assert (outcome(lambda: index.translate_trend(text))
                == outcome(lambda: scan.translate_trend(text))), text


@pytest.mark.parametrize("table", ("nyc311", "dob", "ads", "flights"))
def test_cold_probe_cache_equals_warm(table):
    """Hearing and translating the corpus with the probe cache emptied
    before every call gives what a warm cache gives."""
    wer, seed, trend = 0.4, 41, table == "flights"
    database = database_of(table)
    speech = speech_of(database, table, wer, seed)
    translator = TextToSql(database, table)
    translate = (translator.translate_trend if trend
                 else translator.translate)
    texts = utterances(database, table, seed, trend)

    def heard(cold: bool) -> list[tuple]:
        results = []
        for text in texts:
            if cold:
                reset_phonetic_probe_cache()
            transcript = speech.transcribe(text)
            if cold:
                reset_phonetic_probe_cache()
            results.append(
                (transcript, outcome(lambda: translate(transcript))))
        return results

    heard(cold=False)  # fill the cache
    warm = heard(cold=False)
    assert heard(cold=True) == warm
