"""Tests for schemas, the catalog, and columnar tables."""

import numpy as np
import pytest

from repro.errors import CatalogError, TypeMismatchError
from repro.sqldb.schema import (
    Catalog,
    ColumnSchema,
    TableSchema,
    validate_identifier,
)
from repro.sqldb.table import Table
from repro.sqldb.types import DataType


def make_schema() -> TableSchema:
    return TableSchema("t", (
        ColumnSchema("name", DataType.TEXT),
        ColumnSchema("score", DataType.FLOAT),
        ColumnSchema("age", DataType.INT),
    ))


class TestIdentifiers:
    def test_valid(self):
        assert validate_identifier("abc_1") == "abc_1"
        assert validate_identifier("_x") == "_x"

    @pytest.mark.parametrize("bad", ["1abc", "a-b", "a b", "", "sel;ect"])
    def test_invalid(self, bad):
        with pytest.raises(CatalogError):
            validate_identifier(bad)


class TestTableSchema:
    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", (ColumnSchema("a", DataType.INT),
                              ColumnSchema("A", DataType.TEXT)))

    def test_column_lookup_case_insensitive(self):
        schema = make_schema()
        assert schema.column("NAME").name == "name"
        assert schema.column_index("Age") == 2

    def test_missing_column(self):
        with pytest.raises(CatalogError):
            make_schema().column("missing")

    def test_numeric_and_text_partitions(self):
        schema = make_schema()
        assert [c.name for c in schema.numeric_columns()] == ["score", "age"]
        assert [c.name for c in schema.text_columns()] == ["name"]

    def test_has_column(self):
        schema = make_schema()
        assert schema.has_column("score")
        assert not schema.has_column("salary")


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        catalog.register(make_schema())
        assert catalog.lookup("T").name == "t"
        assert "t" in catalog

    def test_double_register_rejected(self):
        catalog = Catalog()
        catalog.register(make_schema())
        with pytest.raises(CatalogError):
            catalog.register(make_schema())

    def test_drop(self):
        catalog = Catalog()
        catalog.register(make_schema())
        catalog.drop("t")
        assert "t" not in catalog

    def test_drop_missing(self):
        with pytest.raises(CatalogError):
            Catalog().drop("nope")

    def test_lookup_missing_lists_available(self):
        catalog = Catalog()
        catalog.register(make_schema())
        with pytest.raises(CatalogError, match="available: t"):
            catalog.lookup("other")


class TestTable:
    def test_from_rows_roundtrip(self):
        table = Table.from_rows(make_schema(), [
            ("alice", 1.5, 30), ("bob", 2.5, 40)])
        assert table.num_rows == 2
        assert list(table.rows()) == [("alice", 1.5, 30), ("bob", 2.5, 40)]

    def test_empty_table(self):
        table = Table(make_schema())
        assert table.num_rows == 0
        assert len(table.column("name")) == 0

    def test_row_width_mismatch(self):
        with pytest.raises(CatalogError):
            Table.from_rows(make_schema(), [("alice", 1.5)])

    def test_column_length_mismatch(self):
        with pytest.raises(CatalogError):
            Table(make_schema(), {
                "name": np.array(["a"], dtype=object),
                "score": np.array([1.0, 2.0]),
                "age": np.array([1]),
            })

    def test_missing_column_data(self):
        with pytest.raises(CatalogError):
            Table(make_schema(), {"name": np.array(["a"], dtype=object)})

    def test_text_column_rejects_non_strings(self):
        with pytest.raises(TypeMismatchError):
            Table.from_rows(make_schema(), [(42, 1.0, 1)])

    def test_numeric_column_rejects_text(self):
        with pytest.raises(TypeMismatchError):
            Table.from_rows(make_schema(), [("a", "oops", 1)])

    def test_select_rows_with_mask(self):
        table = Table.from_rows(make_schema(), [
            ("a", 1.0, 10), ("b", 2.0, 20), ("c", 3.0, 30)])
        subset = table.select_rows(np.array([True, False, True]))
        assert [row[0] for row in subset.rows()] == ["a", "c"]

    def test_select_rows_with_indices(self):
        table = Table.from_rows(make_schema(), [
            ("a", 1.0, 10), ("b", 2.0, 20), ("c", 3.0, 30)])
        subset = table.select_rows(np.array([2, 0]))
        assert [row[0] for row in subset.rows()] == ["c", "a"]

    def test_append_rows(self):
        table = Table(make_schema())
        table.append_rows([("a", 1.0, 10)])
        table.append_rows([("b", 2.0, 20), ("c", 3.0, 30)])
        assert table.num_rows == 3

    def test_append_empty_noop(self):
        table = Table(make_schema())
        table.append_rows([])
        assert table.num_rows == 0

    def test_estimated_bytes_grows_with_rows(self):
        small = Table.from_rows(make_schema(), [("a", 1.0, 1)] * 10)
        large = Table.from_rows(make_schema(), [("a", 1.0, 1)] * 1000)
        assert large.estimated_bytes() > small.estimated_bytes()

    def test_estimated_bytes_after_appends_match_from_scratch(self):
        """The kept string-length sample gives the bytes a fresh count
        gives, before and after the table passes 256 rows."""

        def from_scratch(table: Table) -> int:
            total = 0
            for column in table.schema.columns:
                values = table.column(column.name)
                if column.dtype == DataType.TEXT:
                    total += len(values) * 8
                    if len(values):
                        sample = values[:min(256, len(values))]
                        total += int(sum(len(v) for v in sample)
                                     / len(sample) * len(values))
                else:
                    total += values.nbytes
            return total

        rng = np.random.default_rng(7)
        words = ["a", "bb", "Queens", "Staten Island", "x" * 40]
        table = Table(make_schema())
        assert table.estimated_bytes() == from_scratch(table) == 0
        for size in (1, 3, 100, 151, 2, 500, 1):
            table.append_rows(
                (str(rng.choice(words)), float(i), i) for i in range(size))
            assert table.estimated_bytes() == from_scratch(table)
            # The kept sample answers a second call the same way.
            assert table.estimated_bytes() == from_scratch(table)
        assert table.num_rows > 256

    def test_column_case_insensitive(self):
        table = Table.from_rows(make_schema(), [("a", 1.0, 1)])
        assert table.column("SCORE")[0] == 1.0
