"""The connection façade tying parser, planner and executor together."""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.caching.lru import CacheStats, LruCache
from repro.caching.selection import SelectionCache
from repro.errors import CatalogError, ExecutionError
from repro.observability import trace_span
from repro.sqldb.executor import (
    BoundStatement,
    bind_statement,
    execute_bound,
)
from repro.sqldb.index import index_eligible
from repro.sqldb.parser import SelectStatement, parse
from repro.sqldb.planner import PlanNode, plan_select
from repro.sqldb.query import AggregateQuery
from repro.sqldb.sampling import derive_rng
from repro.sqldb.schema import Catalog, ColumnSchema, TableSchema
from repro.sqldb.statistics import TableStatistics
from repro.sqldb.table import Table
from repro.sqldb.types import DataType


@dataclass(frozen=True)
class QueryResult:
    """Result of a query: column names, rows, and wall-clock time."""

    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]
    elapsed_seconds: float

    def scalar(self) -> float:
        """The single value of a one-row one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"expected a scalar result, got {len(self.rows)} row(s) x "
                f"{len(self.columns)} column(s)")
        return self.rows[0][0]

    def column_index(self, name: str) -> int:
        lowered = name.lower()
        for index, column in enumerate(self.columns):
            if column.lower() == lowered:
                return index
        raise ExecutionError(f"result has no column {name!r}")


_database_uids = itertools.count(1)

#: Capacity of the bound-statement cache.
STATEMENT_CACHE_SIZE = 512
#: Capacity of the optimizer cost-estimate cache.
COST_CACHE_SIZE = 4096


def _as_statement(query: str | SelectStatement | AggregateQuery,
                  ) -> SelectStatement:
    """The parse tree of *query*: text is parsed here, once, and every
    other form is already a statement or builds one without text."""
    if isinstance(query, SelectStatement):
        return query
    if isinstance(query, AggregateQuery):
        return query.to_statement()
    return parse(query)


class Database:
    """An in-memory database: catalog, tables, statistics, execution.

    Statistics are taken lazily per table and cached; every DDL
    statement and :meth:`insert_rows` drops them (our ``ANALYZE``), and
    the next reader takes a fresh snapshot whose columns are analyzed on
    first read (see :class:`~repro.sqldb.statistics.TableStatistics`).

    Concurrency: the read path (:meth:`execute`, :meth:`explain`,
    :meth:`statistics`) is safe to call from many threads against one
    instance.  Sampling randomness is derived per statement from the
    database seed and the statement's SQL rendering (see
    :func:`repro.sqldb.sampling.derive_rng`), so results are independent of
    thread interleaving.  DDL and :meth:`insert_rows` are *not* designed to
    race with readers — load data first, then serve.
    """

    def __init__(self, seed: int = 0,
                 io_millis_per_page: float = 0.0,
                 mask_cache_bytes: int = 64 << 20) -> None:
        """``io_millis_per_page`` > 0 simulates a disk-resident DBMS: every
        query execution sleeps in proportion to the pages its scan reads
        (scaled by the sample fraction, SYSTEM-sampling style).  The
        scaling experiments use this to reproduce the paper's Postgres
        regime, where page I/O dominates per-query cost; the default of 0
        keeps the engine purely in-memory.

        ``mask_cache_bytes`` bounds the leaf-selection cache, the one
        memo every statement resolves its leaf predicates through,
        within and across requests (0 disables it: every leaf is then
        rebuilt for every statement)."""
        self.catalog = Catalog()
        self._tables: dict[str, Table] = {}
        self._statistics: dict[str, TableStatistics] = {}
        self._statistics_lock = threading.Lock()
        self._seed = seed
        self.io_millis_per_page = io_millis_per_page
        # SelectStatement -> BoundStatement.  Candidate workloads ask the
        # same few dozen statements over and over; a hit skips expression
        # binding.
        self._statements = LruCache(STATEMENT_CACHE_SIZE)
        # SelectStatement -> total optimizer cost.  The merge planner
        # costs every candidate (and every tentative merged statement) on
        # each request; estimates only change when data changes.
        self._costs = LruCache(COST_CACHE_SIZE)
        # (table, bound leaf predicate) -> selection (boolean mask or
        # index postings).  Selections are pure functions of table data,
        # so every statement shares them with later statements, within a
        # plan and across requests, until the data changes.
        self._masks = SelectionCache(mask_cache_bytes)
        # Monotone counter bumped by every DDL and by every insert that
        # adds a distinct TEXT value; phonetic index bundles and probe
        # caches key on it, so such a mutation implicitly invalidates
        # every vocabulary-derived cache entry.
        self._vocabulary_version = 0
        self._uid = next(_database_uids)

    # ------------------------------------------------------------------
    # DDL / data loading
    # ------------------------------------------------------------------

    def create_table(self, name: str,
                     columns: Sequence[tuple[str, DataType | str]],
                     ) -> TableSchema:
        """Create an empty table. Columns are (name, type) pairs."""
        schema_columns = []
        for column_name, dtype in columns:
            if isinstance(dtype, str):
                from repro.sqldb.types import parse_type_name
                dtype = parse_type_name(dtype)
            schema_columns.append(ColumnSchema(column_name, dtype))
        schema = TableSchema(name, tuple(schema_columns))
        self.register_table(Table(schema))
        return schema

    def register_table(self, table: Table) -> None:
        """Adopt a pre-built table (dataset generators use this)."""
        self.catalog.register(table.schema)

        def adopt() -> bool:
            self._tables[table.schema.name.lower()] = table
            return True
        self._mutate(table.schema.name, adopt)

    def load_csv(self, path: str, table_name: str,
                 delimiter: str = ",") -> TableSchema:
        """Load a CSV file as a new table (schema inferred from data)."""
        from repro.sqldb.csv_loader import load_csv
        table = load_csv(path, table_name, delimiter=delimiter)
        self.register_table(table)
        return table.schema

    def drop_table(self, name: str) -> None:
        self.catalog.drop(name)

        def drop() -> bool:
            self._tables.pop(name.lower(), None)
            return True
        self._mutate(name, drop)

    def insert_rows(self, table_name: str,
                    rows: Iterable[Sequence[Any]]) -> None:
        """Append rows; the vocabulary version moves only when a TEXT
        column gains a distinct value (see :attr:`vocabulary_version`)."""
        table = self.table(table_name)
        self._mutate(table_name, lambda: bool(table.append_rows(rows)))

    def _mutate(self, table_name: str, change: Callable[[], bool]) -> None:
        """The one bracket every DDL statement and insert runs in, and
        so the one place that decides when derived state is stale.

        *change* applies the mutation and returns whether the vocabulary
        changed.  It runs inside ``SelectionCache.mutation()``, which
        moves :attr:`data_version` at both ends; still inside, the
        statistics are dropped (under the lock a first reader holds
        while it snapshots), then bound statements and cost estimates,
        and the vocabulary version moves.  So a reader that sees the
        closing :attr:`data_version` sees every effect of the change.
        """
        with self._masks.mutation():
            vocabulary_changed = change()
            with self._statistics_lock:
                self._statistics.pop(table_name.lower(), None)
            self._statements.clear()
            self._costs.clear()
            if vocabulary_changed:
                self._vocabulary_version += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def uid(self) -> int:
        """A process-unique identity (never reused, unlike ``id()``)."""
        return self._uid

    @property
    def data_version(self) -> int:
        """The selection cache's epoch, moved at both ends of every
        mutation.  Leaf selections, query results and demo responses
        key on the value read before their work starts, so nothing
        built before or during a mutation is served after it."""
        return self._masks.epoch

    @property
    def vocabulary_version(self) -> int:
        """Bumped by every DDL statement and by every insert that gives a
        TEXT column a new distinct value.

        ``(uid, table, vocabulary_version)`` identifies a vocabulary
        snapshot, so phonetic index bundles and probe rankings cached
        under it can never be served stale (see
        :mod:`repro.nlq.candidates` and
        :class:`repro.caching.PhoneticProbeCache`).
        """
        return self._vocabulary_version

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def statistics(self, table_name: str) -> TableStatistics:
        """The table's statistics: one snapshot of its rows, taken on
        the first call after a load or insert; each column is analyzed
        when an estimate first reads it."""
        key = table_name.lower()
        stats = self._statistics.get(key)
        if stats is None:
            # One statistics object per table snapshot, so concurrent
            # first readers share its per-column analyses.
            with self._statistics_lock:
                stats = self._statistics.get(key)
                if stats is None:
                    stats = TableStatistics(self.table(table_name))
                    self._statistics[key] = stats
        return stats

    def vocabulary(self, table_name: str,
                   max_values_per_column: int = 1000) -> list[str]:
        """All schema element names plus distinct text constants.

        The words the speech simulator confuses a spoken word with — the
        strings a voice query could plausibly have meant.  Text-to-SQL
        and candidate generation look phrases up in the per-vocabulary
        index bundle instead (``repro.nlq.candidates.index_bundle``),
        which covers every distinct value.
        """
        table = self.table(table_name)
        terms: list[str] = [table_name]
        terms.extend(table.schema.column_names)
        for column in table.schema.text_columns():
            terms.extend(
                table.sorted_values(column.name)[:max_values_per_column])
        return terms

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    def bound_statement(self, query: str | SelectStatement | AggregateQuery,
                        ) -> BoundStatement:
        """The bound form of *query*, cached by statement.

        A hit skips expression binding; the cache is invalidated by any
        DDL or :meth:`insert_rows`.
        """
        statement = _as_statement(query)
        return self._statements.get_or_compute(
            statement,
            lambda: bind_statement(statement, self.table(statement.table)))

    def execute(self, query: str | SelectStatement | AggregateQuery,
                rng: np.random.Generator | None = None) -> QueryResult:
        """Execute and time a query (text is parsed first).

        ``rng`` overrides the sampling generator; by default one is derived
        from the database seed and the statement's SQL rendering, making
        sampled results reproducible and thread-interleaving-independent.
        Leaf predicates resolve through the leaf-selection cache (see
        :func:`~repro.sqldb.executor.execute_bound`).
        """
        statement = _as_statement(query)
        # Read before the table, so a selection built from a table that
        # a concurrent mutation then changes is never stored.
        epoch = self._masks.epoch
        bound = self.bound_statement(statement)
        table = self.table(statement.table)
        if rng is None and statement.sample_fraction is not None:
            rng = derive_rng(self._seed, statement.to_sql())
        with trace_span("sqldb.execute") as span:
            span.set_attribute("table", statement.table)
            start = time.perf_counter()
            columns, rows = execute_bound(bound, table, rng, self._masks,
                                          epoch)
            if self.io_millis_per_page > 0.0:
                self._simulate_io(bound, table)
            elapsed = time.perf_counter() - start
            span.set_attribute("rows_returned", len(rows))
            span.set_attribute("elapsed_ms", round(elapsed * 1000.0, 4))
        # The aggregate kernels already emit one tuple per row.
        return QueryResult(columns=columns, rows=tuple(rows),
                           elapsed_seconds=elapsed)

    def _simulate_io(self, bound: BoundStatement, table: Table) -> None:
        """Sleep for the simulated page reads of the access path.

        A sequential scan reads every page (scaled by the SYSTEM-style
        sample fraction).  When the statement runs through a secondary
        index instead, only the pages holding matching rows are touched
        — estimated from predicate selectivity, with each probe page
        charged at :data:`~repro.sqldb.planner.RANDOM_PAGE_COST` seq
        pages since index access is random I/O (see __init__).
        """
        from repro.sqldb.planner import PAGE_SIZE_BYTES, RANDOM_PAGE_COST
        statement = bound.statement
        pages = max(1.0, table.estimated_bytes() / PAGE_SIZE_BYTES)
        fraction = statement.sample_fraction or 1.0
        if statement.sample_fraction is None and bound.where is not None \
                and index_eligible(bound.where, table.schema):
            selectivity = self.statistics(
                statement.table).selectivity(bound.where)
            pages = max(1.0, pages * min(1.0,
                                         selectivity * RANDOM_PAGE_COST))
        time.sleep(pages * fraction * self.io_millis_per_page / 1000.0)

    def explain(self, query: str | SelectStatement | AggregateQuery,
                ) -> PlanNode:
        """The cost-annotated plan without executing (Postgres EXPLAIN)."""
        statement = self.bound_statement(query).statement
        table = self.table(statement.table)
        return plan_select(statement, table, self.statistics(statement.table))

    def estimated_cost(self, query: str | SelectStatement | AggregateQuery,
                       ) -> float:
        """Total plan cost in abstract optimizer units (cached by
        statement; invalidated with the statement cache)."""
        statement = _as_statement(query)
        return self._costs.get_or_compute(
            statement, lambda: self.explain(statement).cost.total)

    # ------------------------------------------------------------------
    # Cache introspection
    # ------------------------------------------------------------------

    @property
    def statement_cache_stats(self) -> CacheStats:
        """Hit/miss counters of the bound statement cache."""
        return self._statements.stats

    @property
    def cost_cache_stats(self) -> CacheStats:
        """Hit/miss counters of the optimizer cost-estimate cache."""
        return self._costs.stats

    @property
    def selection_cache_stats(self) -> dict[str, float]:
        """Counters of the leaf-selection cache: a hit is a leaf reused,
        a miss a leaf built, ``clears`` the budget evictions."""
        return self._masks.stats()
