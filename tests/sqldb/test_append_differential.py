"""Differential tests: delta maintenance on append vs a full rebuild.

``Table.append_rows`` extends what it has built — dictionaries encode
only the new rows and their per-code counts grow by a count of the
new codes, TEXT inverted indexes gain a tail of postings, statistics
and the phonetic vocabulary are read off the dictionaries, and
``Database.vocabulary_version`` moves only when a TEXT column gains
a value.  Each of those must equal what a fresh build over all rows so
far gives, bit for bit.  The full rebuilds live here as the reference:
a first-appearance encoding loop, ``np.unique`` statistics and
vocabularies, ``np.nonzero`` postings, and a fresh ``Table`` and
``Database`` for query results (indexed and through the scan oracle
``tests/sqldb/scan_oracle.py``).

Hypothesis appends random batches — empty ones, ones with new TEXT
values, NaN floats and repeated values — and checks after each batch.
Statistics are a snapshot analyzed column by column on first read: one
taken before an append still describes the rows before it, and TEXT
estimates never analyze a numeric column.
"""

from __future__ import annotations

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.nlq.candidates import index_bundle
from repro.sqldb import statistics as statistics_module
from repro.sqldb.database import Database
from repro.sqldb.expressions import Comparison, ComparisonOp
from repro.sqldb.index import InvertedIndex
from repro.sqldb.schema import ColumnSchema, TableSchema
from repro.sqldb.statistics import ColumnStatistics
from repro.sqldb.table import Table
from repro.sqldb.types import DataType
from tests.sqldb.scan_oracle import full_scan

SCHEMA = TableSchema("t", (
    ColumnSchema("city", DataType.TEXT),
    ColumnSchema("dept", DataType.TEXT),
    ColumnSchema("v", DataType.FLOAT),
    ColumnSchema("n", DataType.INT),
))
TEXT_COLUMNS = ("city", "dept")

# Small pools, so batches repeat values; the late entries are rarely
# drawn early, so later batches keep adding new distinct values.
_CITIES = ["nyc", "sf", "la", "", "boston", "Austin", "austin", "nyc "]
_DEPTS = ["sales", "eng", "hr", "ops", "legal"]

STATEMENTS = (
    "SELECT COUNT(*) FROM t",
    "SELECT city, COUNT(*), SUM(v), MAX(n) FROM t GROUP BY city",
    "SELECT city, dept, AVG(v), MIN(v) FROM t GROUP BY city, dept",
    "SELECT dept, SUM(n) FROM t WHERE city = 'nyc' GROUP BY dept",
    "SELECT city, COUNT(*) FROM t WHERE dept IN ('eng', 'ops', 'zzz') "
    "GROUP BY city HAVING COUNT(*) > 1",
    "SELECT AVG(v) FROM t WHERE city = 'austin' AND n >= 2",
    "SELECT dept, COUNT(*) FROM t WHERE v < 50.0 OR city = 'sf' "
    "GROUP BY dept ORDER BY dept DESC LIMIT 2",
)

rows = st.tuples(
    st.sampled_from(_CITIES),
    st.sampled_from(_DEPTS),
    st.one_of(st.just(float("nan")),
              st.sampled_from([1.5, 50.0, 99.25]),
              st.floats(-1e3, 1e3, allow_nan=False)),
    st.integers(0, 5),
)

batches = st.lists(st.lists(rows, max_size=12), min_size=1, max_size=5)


# ---------------------------------------------------------------------------
# The full-rebuild reference
# ---------------------------------------------------------------------------


def reference_dictionary(array: np.ndarray):
    """First-appearance encoding of a whole column, row by row."""
    index: dict = {}
    codes = []
    for value in array:
        codes.append(index.setdefault(value, len(index)))
    return list(index), codes, index


def reference_statistics(array: np.ndarray, name: str,
                         dtype: DataType) -> ColumnStatistics:
    """Column statistics from ``np.unique`` over every row."""
    if len(array) == 0:
        return ColumnStatistics(name, dtype, 0, None, None, (), ())
    values, counts = np.unique(array, return_counts=True)
    order = np.argsort(counts)[::-1][:100]
    numeric = dtype.is_numeric
    return ColumnStatistics(
        name=name, dtype=dtype, n_distinct=len(values),
        min_value=float(array.min()) if numeric else None,
        max_value=float(array.max()) if numeric else None,
        mcv_values=tuple(values[order].tolist()),
        mcv_fractions=tuple(float(counts[i]) / len(array) for i in order))


def reference_vocabulary(table: Table) -> list[str]:
    terms = [table.schema.name, *table.schema.column_names]
    for name in TEXT_COLUMNS:
        terms.extend(np.unique(table.column(name)).tolist())
    return terms


def canon(value):
    """Floats as IEEE-754 bits (NaN equals NaN), containers recursively."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return tuple(canon(item) for item in value)
    if isinstance(value, ColumnStatistics):
        return tuple(canon(getattr(value, field)) for field in (
            "name", "dtype", "n_distinct", "min_value", "max_value",
            "mcv_values", "mcv_fractions"))
    return value


def outcome(database: Database, sql: str):
    try:
        return canon(database.execute(sql).rows)
    except ReproError as exc:
        return type(exc).__name__, str(exc)


def results(database: Database) -> list:
    indexed = [outcome(database, sql) for sql in STATEMENTS]
    scanned = [full_scan(database, lambda db: outcome(db, sql))
               for sql in STATEMENTS]
    assert indexed == scanned
    return indexed


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------


def check_against_rebuild(database: Database, all_rows: list) -> None:
    table = database.table("t")
    fresh_table = Table.from_rows(SCHEMA, all_rows)
    fresh = Database(seed=0)
    fresh.register_table(fresh_table)
    assert table.num_rows == len(all_rows)

    for name in TEXT_COLUMNS:
        uniques, codes, index = table.dictionary(name)
        expected_uniques, expected_codes, expected_index = \
            reference_dictionary(fresh_table.column(name))
        assert uniques.tolist() == expected_uniques
        assert codes.dtype == np.int32
        assert codes.tolist() == expected_codes
        assert index == expected_index
        counts = table.snapshot().counts[name]
        assert counts.dtype == np.intp
        np.testing.assert_array_equal(
            counts, np.bincount(np.asarray(expected_codes, dtype=np.intp),
                                minlength=len(expected_uniques)))

    for column in SCHEMA.columns:
        expected = reference_statistics(fresh_table.column(column.name),
                                        column.name, column.dtype)
        assert canon(database.statistics("t").column(column.name)) \
            == canon(expected)
    assert database.statistics("t").num_rows == len(all_rows)

    assert database.vocabulary("t") == reference_vocabulary(fresh_table)
    bundle = index_bundle(database, "t")
    for name in TEXT_COLUMNS:
        assert list(bundle.value_indexes[name]) \
            == np.unique(fresh_table.column(name)).tolist()

    for name in TEXT_COLUMNS:
        inverted = table.indexes().inverted(name)
        rebuilt = InvertedIndex(None,
                                dictionary=fresh_table.dictionary(name))
        assert inverted._order.dtype == np.int32
        np.testing.assert_array_equal(inverted._order, rebuilt._order)
        np.testing.assert_array_equal(inverted._starts, rebuilt._starts)
        array = fresh_table.column(name)
        for value in [*set(array.tolist()), "absent"]:
            postings = inverted.postings(value)
            assert postings.dtype == np.int64
            np.testing.assert_array_equal(postings,
                                          np.flatnonzero(array == value))
        members = sorted(set(array.tolist()))[::2] + ["absent"]
        np.testing.assert_array_equal(
            inverted.postings_for_values(members),
            np.flatnonzero(np.isin(array, members)))

    assert results(database) == results(fresh)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(st.lists(rows, max_size=20), batches, st.data())
@settings(max_examples=60, deadline=None)
def test_appends_equal_a_full_rebuild(initial, appended, data):
    database = Database(seed=0)
    database.register_table(Table.from_rows(SCHEMA, initial))
    all_rows = list(initial)
    # Building (or not) every structure before the first append covers
    # both the extension of a built structure and the lazy first build.
    if data.draw(st.booleans(), label="warm before appending"):
        check_against_rebuild(database, all_rows)
    for batch in appended:
        distinct = {name: set(database.table("t").column(name).tolist())
                    for name in TEXT_COLUMNS}
        version = database.vocabulary_version
        database.insert_rows("t", batch)
        all_rows.extend(batch)
        gains_value = any(row[position] not in distinct[name]
                          for row in batch
                          for position, name in enumerate(TEXT_COLUMNS))
        assert database.vocabulary_version == version + gains_value
        if data.draw(st.booleans(), label="check this batch"):
            check_against_rebuild(database, all_rows)
    check_against_rebuild(database, all_rows)


@given(st.lists(rows, max_size=20), st.lists(rows, min_size=1,
                                              max_size=12))
@settings(max_examples=30, deadline=None)
def test_statistics_describe_their_snapshot(initial, batch):
    """Statistics taken before an append and first read after it
    describe the rows of their snapshot, not the live table."""
    database = Database(seed=0)
    database.register_table(Table.from_rows(SCHEMA, initial))
    stats = database.statistics("t")
    database.insert_rows("t", batch)
    before = Table.from_rows(SCHEMA, initial)
    for column in SCHEMA.columns:
        expected = reference_statistics(before.column(column.name),
                                        column.name, column.dtype)
        assert canon(stats.column(column.name)) == canon(expected)
    assert stats.num_rows == len(initial)
    assert database.statistics("t").num_rows == len(initial) + len(batch)


def test_text_estimates_analyze_no_numeric_column(monkeypatch):
    """After an append, estimates over TEXT columns analyze no numeric
    column, and a column read twice is analyzed once."""
    database = Database(seed=0)
    database.register_table(Table.from_rows(
        SCHEMA, [("nyc", "eng", 1.0, 1), ("sf", "hr", 2.0, 2)]))
    database.statistics("t").column("v")
    database.insert_rows("t", [("la", "eng", 3.0, 3)])
    analyzed = []
    value_counts = statistics_module._value_counts

    def spy(array):
        analyzed.append(len(array))
        return value_counts(array)

    monkeypatch.setattr(statistics_module, "_value_counts", spy)
    stats = database.statistics("t")
    where = Comparison("city", ComparisonOp.EQ, "nyc")
    assert stats.selectivity(where) == 1 / 3
    assert stats.estimate_groups(("city", "dept")) == 3.0
    database.estimated_cost(
        "SELECT dept, COUNT(*) FROM t WHERE city = 'la' GROUP BY dept")
    assert analyzed == []
    stats.column("v")
    stats.column("V")
    assert analyzed == [3]


def test_concurrent_first_reads_analyze_a_column_once(monkeypatch):
    import threading
    database = Database(seed=0)
    database.register_table(Table.from_rows(
        SCHEMA, [("nyc", "eng", float(i), i) for i in range(50)]))
    analyzed = []
    analyze = statistics_module._analyze_column

    def spy(snapshot, column, mcv_size):
        analyzed.append(column.name)
        return analyze(snapshot, column, mcv_size)

    monkeypatch.setattr(statistics_module, "_analyze_column", spy)
    stats = database.statistics("t")
    barrier = threading.Barrier(8)
    seen = []

    def read():
        barrier.wait()
        seen.append((stats.column("v"), stats.column("city")))

    threads = [threading.Thread(target=read) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(analyzed) == ["city", "v"]
    assert len({(id(v), id(city)) for v, city in seen}) == 1


def test_reader_keeps_its_dictionary_snapshot():
    table = Table.from_rows(SCHEMA, [("nyc", "eng", 1.0, 1)])
    uniques, codes, index = table.dictionary("city")
    table.append_rows([("sf", "eng", 2.0, 2), ("nyc", "hr", 3.0, 3)])
    assert uniques.tolist() == ["nyc"]
    assert codes.tolist() == [0]
    assert index == {"nyc": 0}
    uniques, codes, index = table.dictionary("city")
    assert uniques.tolist() == ["nyc", "sf"]
    assert codes.tolist() == [0, 1, 0]
    assert index == {"nyc": 0, "sf": 1}


def test_append_without_new_values_shares_the_map():
    table = Table.from_rows(SCHEMA, [("nyc", "eng", 1.0, 1)])
    _, _, before = table.dictionary("city")
    assert table.append_rows([("nyc", "eng", 2.0, 2)]) == ()
    _, _, after = table.dictionary("city")
    assert after is before
    assert table.append_rows([("nyc", "hr", 2.0, 2)]) == ("dept",)
