"""Columnar in-memory tables backed by numpy arrays."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import CatalogError, TypeMismatchError
from repro.sqldb.schema import ColumnSchema, TableSchema
from repro.sqldb.types import DataType

#: A TEXT column's dictionary encoding: ``(uniques, codes, index)`` —
#: see :meth:`Table.dictionary`.
Dictionary = tuple[np.ndarray, np.ndarray, dict[Any, int]]

#: Rows whose average string length stands for a TEXT column's in
#: :meth:`Table.estimated_bytes` (the first ones).
_LENGTH_SAMPLE = 256


@dataclass(frozen=True)
class TableSnapshot:
    """A table's published state at one instant (see
    :meth:`Table.snapshot`): the row count, the numeric column arrays,
    the TEXT dictionaries and their per-code row counts.  Later appends
    never change what a snapshot holds."""

    num_rows: int
    columns: Mapping[str, np.ndarray]
    dictionaries: Mapping[str, Dictionary]
    counts: Mapping[str, np.ndarray]


class Table:
    """A table: a schema plus the data of each column.

    Columns of ``INT``/``FLOAT``/``BOOL`` type are stored as native numpy
    arrays.  ``TEXT`` columns are stored dictionary-encoded (see
    :meth:`dictionary`); :meth:`column` materialises their object array
    of Python strings on each call.  Tables are immutable after
    construction except for :meth:`append_rows`, which
    ``Database.insert_rows`` uses to add rows.
    """

    def __init__(self, schema: TableSchema,
                 columns: Mapping[str, np.ndarray] | None = None) -> None:
        self.schema = schema
        self._columns: dict[str, np.ndarray] = {}
        self._dictionaries: dict[str, Dictionary] = {}
        # TEXT column -> rows per dictionary code (intp, the
        # ``np.bincount`` of its codes); see snapshot() and append_rows().
        self._counts: dict[str, np.ndarray] = {}
        # Column name -> the buffer whose prefix is that column's array
        # (TEXT: its codes); see append_rows().
        self._buffers: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()
        self._indexes = None
        # TEXT column -> (rows sampled, their average string length); see
        # estimated_bytes().
        self._text_lengths: dict[str, tuple[int, float]] = {}
        lengths = set()
        for column in schema.columns:
            if columns is None:
                array = np.empty(0, dtype=column.dtype.numpy_dtype)
            elif column.name not in columns:
                raise CatalogError(
                    f"missing data for column {column.name!r}")
            else:
                array = _as_column_array(columns[column.name], column)
            lengths.add(len(array))
            if column.dtype == DataType.TEXT:
                uniques, codes, index = _encode(array)
                self._dictionaries[column.name] = (uniques, codes, index)
                self._counts[column.name] = np.bincount(
                    codes, minlength=len(uniques))
            else:
                self._columns[column.name] = array
        if len(lengths) > 1:
            raise CatalogError(
                f"column lengths differ in table {schema.name!r}: "
                f"{sorted(lengths)}")
        self._num_rows = lengths.pop() if lengths else 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(cls, schema: TableSchema,
                  rows: Iterable[Sequence[Any]]) -> "Table":
        """Build a table from an iterable of value tuples in schema order."""
        return cls(schema, _column_arrays(schema, rows))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def __len__(self) -> int:
        return self._num_rows

    def column(self, name: str) -> np.ndarray:
        """The values of a column (do not mutate).

        Numeric columns return their backing array.  TEXT columns return
        a fresh object array decoded from the dictionary, an O(rows)
        gather: hot paths read :meth:`dictionary` instead.
        """
        key = self.schema.column(name).name
        encoded = self._dictionaries.get(key)
        if encoded is not None:
            uniques, codes, _ = encoded
            return uniques[codes]
        return self._columns[key]

    def dictionary(self, name: str) -> Dictionary:
        """Dictionary encoding of a TEXT column — its stored form.

        Returns ``(uniques, codes, index)``: the distinct values in
        order of first appearance, one int32 code per row, and the
        value -> code mapping.  Equality, IN and GROUP BY evaluation run
        on the integer codes, which is far cheaper than repeated
        Python-object comparisons.  :meth:`append_rows` extends the
        encoding: existing codes never change and a new value takes the
        next code, so the encoding always equals a fresh one of the
        whole column.
        """
        schema_column = self.schema.column(name)
        if schema_column.dtype != DataType.TEXT:
            raise CatalogError(
                f"column {schema_column.name!r} is "
                f"{schema_column.dtype.value}, not text")
        return self._dictionaries[schema_column.name]

    def snapshot(self) -> TableSnapshot:
        """The row count, numeric columns, dictionaries and per-code
        counts, read together under the lock :meth:`append_rows` holds
        while it publishes, so they always describe the same rows."""
        with self._lock:
            return TableSnapshot(self._num_rows, dict(self._columns),
                                 dict(self._dictionaries),
                                 dict(self._counts))

    def sorted_values(self, name: str) -> list[Any]:
        """The distinct values of a TEXT column in ascending order — what
        ``np.unique`` of the column returns, read off the dictionary
        instead of sorting every row."""
        uniques, _, _ = self.dictionary(name)
        return sorted(uniques.tolist())

    def indexes(self):
        """The table's secondary-index container (lazily created).

        The container itself is cheap; the individual inverted indexes
        and sorted projections inside it are built on first probe.
        :meth:`append_rows` replaces it with a fresh container holding
        the extended TEXT inverted indexes (see
        :meth:`~repro.sqldb.index.TableIndexes.extended`).
        """
        container = self._indexes
        if container is not None:
            return container
        with self._lock:
            if self._indexes is None:
                from repro.sqldb.index import TableIndexes
                self._indexes = TableIndexes(self)
            return self._indexes

    def rows(self) -> Iterable[tuple[Any, ...]]:
        """Iterate rows as tuples (test/debug convenience; O(rows*cols))."""
        arrays = [self.column(c.name) for c in self.schema.columns]
        for i in range(self._num_rows):
            yield tuple(array[i] for array in arrays)

    def estimated_bytes(self) -> int:
        """Approximate in-memory footprint of the rows as Python values,
        used by the cost model as a stand-in for on-disk page counts.

        A TEXT column counts a pointer per row plus the average length of
        its first 256 values per row.  Appends never change those values
        once a column has 256 rows, so their average is summed once and
        kept; a shorter column's is summed again whenever it grows.
        """
        dictionaries = self._dictionaries
        total = 0
        for column in self.schema.columns:
            if column.dtype == DataType.TEXT:
                # object arrays: pointer + rough average string payload
                uniques, codes, _ = dictionaries[column.name]
                total += codes.size * 8
                if codes.size:
                    sampled = min(_LENGTH_SAMPLE, codes.size)
                    kept = self._text_lengths.get(column.name)
                    if kept is None or kept[0] != sampled:
                        sample = uniques[codes[:sampled]]
                        kept = (sampled,
                                sum(len(s) for s in sample) / sampled)
                        self._text_lengths[column.name] = kept
                    total += int(kept[1] * codes.size)
            else:
                total += self._columns[column.name].nbytes
        return total

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def select_rows(self, mask_or_indices: np.ndarray) -> "Table":
        """A new table containing the rows selected by a boolean mask or an
        integer index array (rows keep their relative order)."""
        columns = {name: array[mask_or_indices]
                   for name, array in self._columns.items()}
        for name, (uniques, codes, _) in self._dictionaries.items():
            columns[name] = uniques[codes[mask_or_indices]]
        return Table(self.schema, columns)

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> tuple[str, ...]:
        """Append value tuples in schema order; returns the TEXT columns
        that gained a distinct value.

        Built structures are extended, not dropped: each TEXT column's
        dictionary encodes just the new rows, its per-code counts add a
        count of the new codes, and the TEXT inverted indexes move into
        a fresh index container with the new positions added.  Column
        arrays and codes live in buffers with spare capacity (grown 1.5x
        when full), so the new rows are written in place past the
        published lengths, where no reader looks; the new columns,
        dictionaries, counts, row count and index container are then
        published together.  No published value is ever overwritten, so
        a reader holding an old dictionary tuple keeps a consistent
        snapshot.
        """
        extension = _column_arrays(self.schema, rows)
        count = len(next(iter(extension.values()), ()))
        if count == 0:
            return ()
        with self._lock:
            old_rows = self._num_rows
            size = old_rows + count
            # Make room first, one array at a time: each is re-published
            # as a view of its new buffer with the same contents, so
            # growing never holds two copies of the whole table.
            for name, array in self._columns.items():
                self._columns[name] = self._reserve(name, array, size)
            for name, (uniques, codes, index) in self._dictionaries.items():
                self._dictionaries[name] = (
                    uniques, self._reserve(name, codes, size), index)

            columns: dict[str, np.ndarray] = {}
            for name in self._columns:
                self._buffers[name][old_rows:size] = extension[name]
                columns[name] = self._buffers[name][:size]
            dictionaries: dict[str, Dictionary] = {}
            counts: dict[str, np.ndarray] = {}
            grown: list[str] = []
            for name, (uniques, _, index) in self._dictionaries.items():
                known = len(uniques)
                uniques, codes, index = _encode(extension[name], uniques,
                                                index)
                self._buffers[name][old_rows:size] = codes
                dictionaries[name] = (uniques, self._buffers[name][:size],
                                      index)
                counts[name] = np.bincount(codes, minlength=len(uniques))
                counts[name][:known] += self._counts[name]
                if len(uniques) > known:
                    grown.append(name)
            indexes = (None if self._indexes is None
                       else self._indexes.extended(self, dictionaries,
                                                   counts))
            self._columns = columns
            self._dictionaries = dictionaries
            self._counts = counts
            self._num_rows = size
            self._indexes = indexes
        return tuple(grown)

    def _reserve(self, name: str, array: np.ndarray,
                 size: int) -> np.ndarray:
        """*array* as the prefix of buffer *name*, which is replaced by a
        1.5x larger copy when it cannot hold *size* rows (or *array* is
        not its prefix)."""
        buffer = self._buffers.get(name)
        if buffer is None or array.base is not buffer or len(buffer) < size:
            buffer = np.empty(size + size // 2, dtype=array.dtype)
            buffer[:len(array)] = array
            self._buffers[name] = buffer
        return buffer[:len(array)]

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (f"Table({self.schema.name!r}, rows={self._num_rows}, "
                f"columns={list(self.schema.column_names)})")


def _column_arrays(schema: TableSchema,
                   rows: Iterable[Sequence[Any]]) -> dict[str, np.ndarray]:
    """Value tuples in schema order as one checked array per column."""
    materialized = [tuple(row) for row in rows]
    width = len(schema.columns)
    for index, row in enumerate(materialized):
        if len(row) != width:
            raise CatalogError(
                f"row {index} has {len(row)} values, expected {width}")
    return {column.name: _as_column_array(
                [row[position] for row in materialized], column)
            for position, column in enumerate(schema.columns)}


_NO_VALUES = np.empty(0, dtype=object)


def _encode(values: np.ndarray, uniques: np.ndarray = _NO_VALUES,
            index: dict[Any, int] | None = None) -> Dictionary:
    """First-appearance dictionary encoding of *values*, continuing
    ``(uniques, index)``, the encoding of the rows before them; returns
    the extended uniques, the codes of *values* and the extended map.

    Values already encoded keep their codes and each new value takes the
    next code, so encoding a column piecewise gives exactly the encoding
    of the whole column.  Nothing passed in is mutated: *uniques* and
    *index* are copied only when a value is added.
    """
    index = {} if index is None else index
    added = [value for value in dict.fromkeys(values) if value not in index]
    if added:
        index = dict(index)
        for value in added:
            index[value] = len(index)
        uniques = np.concatenate(
            [uniques, np.fromiter(added, dtype=object, count=len(added))])
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.int32,
                        count=len(values))
    return uniques, codes, index


def _as_column_array(values: Any, column: ColumnSchema) -> np.ndarray:
    """Convert raw values to the column's canonical numpy representation."""
    dtype = column.dtype
    if isinstance(values, np.ndarray) and values.dtype == dtype.numpy_dtype:
        if dtype == DataType.TEXT:
            _check_text_values(values, column)
        return values
    if dtype == DataType.TEXT:
        array = np.empty(len(values), dtype=object)
        for index, value in enumerate(values):
            array[index] = value
        _check_text_values(array, column)
        return array
    try:
        return np.asarray(values, dtype=dtype.numpy_dtype)
    except (TypeError, ValueError) as exc:
        raise TypeMismatchError(
            f"cannot store values in {dtype.value} column "
            f"{column.name!r}: {exc}") from exc


def _check_text_values(array: np.ndarray, column: ColumnSchema) -> None:
    for value in array:
        if not isinstance(value, str):
            raise TypeMismatchError(
                f"TEXT column {column.name!r} received non-string "
                f"value {value!r}")
