"""One staleness rule: what MUVE derives from a table follows the table.

Every holder above :class:`~repro.sqldb.database.Database` keys on one
of its versions — query results and demo responses on ``data_version``,
the speech, text-to-SQL and candidate indexes on ``vocabulary_version``
— so after ``insert_rows`` or DDL the next ask answers from the new
table without any ``invalidate_caches()`` call.  Each test compares a
long-lived pipeline against a fresh one built on the same database.
"""

from __future__ import annotations

import numpy as np

from repro.core.planner import VisualizationPlanner
from repro.datasets import make_nyc311_table
from repro.demo.server import MuveDemoServer
from repro.muve import Muve
from repro.sqldb.database import Database
from repro.sqldb.schema import ColumnSchema, TableSchema
from repro.sqldb.table import Table
from repro.sqldb.types import DataType

QUESTION = "count for borough Brooklyn"
BROOKLYN = "SELECT COUNT(*) FROM nyc311 WHERE borough = 'Brooklyn'"


def _database(rows: int = 2000) -> Database:
    database = Database(seed=0)
    database.register_table(make_nyc311_table(num_rows=rows, seed=2))
    return database


def _muve(database: Database, word_error_rate: float = 0.15) -> Muve:
    return Muve(database, "nyc311", word_error_rate=word_error_rate,
                planner=VisualizationPlanner(strategy="greedy"))


def _brooklyn_rows(database: Database, count: int) -> list[tuple]:
    """*count* copies of an existing Brooklyn row (no new TEXT value)."""
    table = database.table("nyc311")
    borough = table.column("borough")
    first = int(np.nonzero(borough == "Brooklyn")[0][0])
    row = tuple(table.select_rows(np.array([first])).rows())[0]
    return [row] * count


def test_ask_after_insert_shows_new_counts():
    database = _database()
    muve = _muve(database)
    before = muve.ask(QUESTION)
    count = database.execute(BROOKLYN).scalar()
    assert before.updates[-1].value_of(before.seed_query) == count

    database.insert_rows("nyc311", _brooklyn_rows(database, 500))
    after = muve.ask(QUESTION)
    assert after.updates[-1].value_of(after.seed_query) == count + 500
    assert after.to_text() == _muve(database).ask(QUESTION).to_text()


def test_demo_answer_after_insert_shows_new_counts():
    database = _database()
    demo = MuveDemoServer(_muve(database))
    fresh_demo = None
    demo.start()
    try:
        payload = {"question": QUESTION}
        before = demo.handle_ask(payload)
        assert demo.handle_ask(payload) is before  # served from memory
        database.insert_rows("nyc311", _brooklyn_rows(database, 500))
        after = demo.handle_ask(payload)
        assert after["text"] != before["text"]
        fresh_demo = MuveDemoServer(_muve(database))
        fresh_demo.start()
        fresh = fresh_demo.handle_ask(payload)
        for field in ("transcript", "seed_sql", "candidates", "text",
                      "svg"):
            assert after[field] == fresh[field], field
    finally:
        demo.shutdown()
        if fresh_demo is not None:
            fresh_demo.shutdown()


def test_speech_channel_hears_an_inserted_value():
    database = _database(rows=300)
    muve = _muve(database, word_error_rate=1.0)
    utterance = " ".join(["zansibar"] * 6)
    assert "zanzibar" not in muve._speech.transcribe(utterance).split()
    row = list(_brooklyn_rows(database, 1)[0])
    schema = database.table("nyc311").schema
    row[schema.column_names.index("borough")] = "Zanzibar"
    version = database.vocabulary_version
    database.insert_rows("nyc311", [tuple(row)])
    assert database.vocabulary_version > version

    # Every word is misheard, and the new value is the closest word.
    transcript = muve._speech.transcribe(utterance)
    assert "zanzibar" in transcript.split()
    assert transcript == _muve(database, word_error_rate=1.0) \
        ._speech.transcribe(utterance)


def test_ask_after_reregistering_aggregates_the_new_column():
    database = _database(rows=500)
    muve = _muve(database)
    table = database.table("nyc311")
    schema = TableSchema("nyc311", table.schema.columns
                         + (ColumnSchema("wait_minutes", DataType.FLOAT),))
    columns = {name: table.column(name)
               for name in table.schema.column_names}
    columns["wait_minutes"] = np.arange(len(table), dtype=float)
    database.drop_table("nyc311")
    database.register_table(Table(schema, columns))

    response = muve.ask("average wait minutes")
    assert response.seed_query.aggregate.column == "wait_minutes"
    expected = database.execute(
        "SELECT AVG(wait_minutes) FROM nyc311").scalar()
    assert response.updates[-1].value_of(response.seed_query) == expected
    assert response.to_text() == \
        _muve(database).ask("average wait minutes").to_text()
