"""Text-to-SQL over a TEXT column with a large vocabulary.

Every distinct value is reachable (none is cut off by a fixed-size
snapshot of the column), and a translation scores a small fraction of
the column's values: the lookups take the index's pruned path, not a
scan.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.nlq.candidates import reset_index_bundles
from repro.nlq.text_to_sql import TextToSql
from repro.phonetics.index import phonetic_stats
from repro.sqldb.database import Database
from repro.sqldb.schema import ColumnSchema, TableSchema
from repro.sqldb.table import Table
from repro.sqldb.types import DataType

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..",
                                "scripts"))
from bench_phonetics import synthetic_vocabulary

VALUES = 20_000


@pytest.fixture(scope="module")
def catalog():
    """A 20k-row table whose ``product`` column holds 20k distinct values."""
    values = synthetic_vocabulary(VALUES)
    schema = TableSchema("catalog", (
        ColumnSchema("product", DataType.TEXT),
        ColumnSchema("price", DataType.FLOAT),
    ))
    database = Database(seed=0)
    database.register_table(Table(schema, {
        "product": np.array(values, dtype=object),
        "price": np.linspace(1.0, 100.0, VALUES),
    }))
    yield database, values
    reset_index_bundles()


def test_values_past_the_first_two_thousand_are_recognised(catalog):
    database, values = catalog
    translator = TextToSql(database, "catalog")
    assert values == database.table("catalog").sorted_values("product")
    for value in values[2_000::1_000]:
        query = translator.translate(f"average price for product {value}")
        assert query.predicate_on("product").value == value


def test_translation_scores_under_one_percent_of_terms(catalog):
    database, values = catalog
    translator = TextToSql(database, "catalog")
    translator.translate("count of rows for product bakodo")  # warm
    before = phonetic_stats()
    query = translator.translate(f"count of rows for product {values[-7]}")
    after = phonetic_stats()
    assert query.predicate_on("product").value == values[-7]
    scored = after["terms_scored"] - before["terms_scored"]
    total = after["terms_total"] - before["terms_total"]
    assert total >= VALUES
    assert scored < 0.01 * total
