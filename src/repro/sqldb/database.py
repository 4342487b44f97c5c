"""The connection façade tying parser, planner and executor together."""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Sequence

import numpy as np

from repro.caching.lru import CacheStats, LruCache
from repro.caching.selection import SelectionCache
from repro.caching.sql import normalize_sql
from repro.errors import CatalogError, ExecutionError
from repro.observability import trace_span
from repro.sqldb.executor import (
    BoundStatement,
    SharedWork,
    bind_statement,
    execute_bound,
)
from repro.sqldb.index import index_eligible, indexes_enabled
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


class Database:
    """An in-memory database: catalog, tables, statistics, execution.

    Statistics are computed lazily per table and cached; any mutation
    through :meth:`insert_rows` invalidates the cache (our ``ANALYZE``).

    Concurrency: the read path (:meth:`execute`, :meth:`explain`,
    :meth:`statistics`) is safe to call from many threads against one
    instance.  Sampling randomness is derived per statement from the
    database seed and the SQL text (see
    :func:`repro.sqldb.sampling.derive_rng`), so results are independent of
    thread interleaving.  DDL and :meth:`insert_rows` are *not* designed to
    race with readers — load data first, then serve.
    """

    def __init__(self, seed: int = 0,
                 io_millis_per_page: float = 0.0,
                 statement_cache_size: int = 512,
                 cost_cache_size: int = 4096,
                 mask_cache_bytes: int = 64 << 20) -> None:
        """``io_millis_per_page`` > 0 simulates a disk-resident DBMS: every
        query execution sleeps in proportion to the pages its scan reads
        (scaled by the sample fraction, SYSTEM-sampling style).  The
        scaling experiments use this to reproduce the paper's Postgres
        regime, where page I/O dominates per-query cost; the default of 0
        keeps the engine purely in-memory.

        ``statement_cache_size``/``cost_cache_size`` bound the two
        normalised-SQL caches (parsed-and-bound statements, optimizer cost
        estimates); 0 disables the respective cache.
        ``mask_cache_bytes`` bounds the leaf-predicate mask cache the
        batch executor keeps across requests (0 disables it)."""
        self.catalog = Catalog()
        self._tables: dict[str, Table] = {}
        self._statistics: dict[str, TableStatistics] = {}
        self._statistics_lock = threading.Lock()
        self._seed = seed
        self.io_millis_per_page = io_millis_per_page
        # Normalised SQL text -> BoundStatement.  Candidate workloads ask
        # the same few dozen statements over and over; a hit skips the
        # lexer, the parser and expression binding entirely.
        self._statements = LruCache(statement_cache_size)
        # Exact-text memo over _statements; see bound_statement().
        self._raw_statements: dict[str, BoundStatement] = {}
        self._raw_statement_hits = 0
        # Normalised SQL text -> total optimizer cost.  The merge planner
        # costs every candidate (and every tentative merged statement) on
        # each request; estimates only change when data changes.
        self._costs = LruCache(cost_cache_size)
        # (table, bound leaf predicate) -> selection (boolean mask or
        # index postings).  Selections are pure functions of table data,
        # so the batch executor shares them across requests; see
        # cached_mask()/store_mask().
        self._masks = SelectionCache(mask_cache_bytes)
        # Monotone counter bumped by every DDL/data mutation; phonetic
        # index bundles and probe caches key on it, so a mutation
        # implicitly invalidates every vocabulary-derived cache entry.
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
        self.catalog.register(schema)
        self._tables[schema.name.lower()] = Table(schema)
        self._invalidate_statement_caches()
        return schema

    def register_table(self, table: Table) -> None:
        """Adopt a pre-built table (dataset generators use this)."""
        self.catalog.register(table.schema)
        self._tables[table.schema.name.lower()] = table
        self._invalidate_statement_caches()

    def load_csv(self, path: str, table_name: str,
                 delimiter: str = ",") -> TableSchema:
        """Load a CSV file as a new table (schema inferred from data)."""
        from repro.sqldb.csv_loader import load_csv
        table = load_csv(path, table_name, delimiter=delimiter)
        self.register_table(table)
        return table.schema

    def drop_table(self, name: str) -> None:
        self.catalog.drop(name)
        self._tables.pop(name.lower(), None)
        self._statistics.pop(name.lower(), None)
        self._invalidate_statement_caches()

    def insert_rows(self, table_name: str,
                    rows: Iterable[Sequence[Any]]) -> None:
        table = self.table(table_name)
        table.append_rows(rows)
        self._statistics.pop(table_name.lower(), None)
        self._invalidate_statement_caches()

    def _invalidate_statement_caches(self) -> None:
        """Drop cached bound statements, cost estimates and masks.

        Called on any DDL or data mutation: bound statements depend on
        schemas, cost estimates on table statistics, predicate masks on
        the data itself.  Dropping everything (instead of per-table
        entries) keeps invalidation trivially correct; mutations happen
        at load time, not on the serving path.
        """
        self._statements.clear()
        self._raw_statements = {}
        self._costs.clear()
        self._masks.clear()
        self._vocabulary_version += 1

    # ------------------------------------------------------------------
    # Predicate mask cache (used by repro.execution.batch)
    # ------------------------------------------------------------------

    def cached_mask(self, key: Hashable) -> np.ndarray | None:
        """A leaf selection stored by a previous request, or None.

        Returned arrays are shared across threads and requests — callers
        must treat them as immutable.
        """
        return self._masks.get(key)

    def store_mask(self, key: Hashable, mask: np.ndarray) -> None:
        """Retain a leaf selection for later requests, within the byte
        budget (see :class:`~repro.caching.selection.SelectionCache`)."""
        self._masks.store(key, mask)

    def selection_cache_stats(self) -> dict[str, float]:
        """Occupancy/hit counters of the cross-request selection cache."""
        return self._masks.stats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def uid(self) -> int:
        """A process-unique identity (never reused, unlike ``id()``)."""
        return self._uid

    @property
    def vocabulary_version(self) -> int:
        """Bumped by every DDL/data mutation.

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
        key = table_name.lower()
        stats = self._statistics.get(key)
        if stats is None:
            # Serialise the (idempotent) full-scan analysis so concurrent
            # first readers of a table do the work once, not once each.
            with self._statistics_lock:
                stats = self._statistics.get(key)
                if stats is None:
                    stats = TableStatistics(self.table(table_name))
                    self._statistics[key] = stats
        return stats

    def vocabulary(self, table_name: str,
                   max_values_per_column: int = 1000) -> list[str]:
        """All schema element names plus distinct text constants.

        This is what gets loaded into the :class:`PhoneticIndex` — the
        strings that a voice query could plausibly have meant.
        """
        table = self.table(table_name)
        terms: list[str] = [table_name]
        terms.extend(table.schema.column_names)
        for column in table.schema.text_columns():
            values = np.unique(table.column(column.name))
            terms.extend(values[:max_values_per_column].tolist())
        return terms

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    def _coerce_statement(self, query: str | SelectStatement | AggregateQuery,
                          ) -> SelectStatement:
        if isinstance(query, SelectStatement):
            return query
        if isinstance(query, AggregateQuery):
            return parse(query.to_sql())
        return parse(query)

    def bound_statement(self, query: str | SelectStatement | AggregateQuery,
                        ) -> BoundStatement:
        """The parsed-and-bound form of *query*, cached by normalised SQL.

        A hit skips tokenizing, parsing and expression binding; the cache
        is invalidated by any DDL or :meth:`insert_rows`.  Statements
        passed in already-parsed form are bound fresh (they carry no SQL
        text worth normalising).

        An exact-text front memo sits above the normalised LRU: serving
        replays the *same* group SQL strings request after request, and
        normalising the key costs more than everything else on a warm
        hit.  The memo is a plain dict (GIL-atomic for string keys; a
        racing double-store is harmless) flushed whenever it outgrows the
        LRU by 4x.
        """
        if isinstance(query, SelectStatement):
            return bind_statement(query, self.table(query.table))

        sql = query.to_sql() if isinstance(query, AggregateQuery) else query
        cached = self._raw_statements.get(sql)
        if cached is not None:
            # Racing increments may drop a count; the stat is advisory.
            self._raw_statement_hits += 1
            return cached

        def build() -> BoundStatement:
            statement = self._coerce_statement(query)
            return bind_statement(statement, self.table(statement.table))

        bound = self._statements.get_or_compute(normalize_sql(sql), build)
        if len(self._raw_statements) >= max(1024,
                                            4 * self._statements.capacity):
            self._raw_statements = {}
        self._raw_statements[sql] = bound
        return bound

    def execute(self, query: str | SelectStatement | AggregateQuery,
                rng: np.random.Generator | None = None,
                shared: SharedWork | None = None) -> QueryResult:
        """Parse (if needed), execute, and time a query.

        ``rng`` overrides the sampling generator; by default one is derived
        from the database seed and the statement text, making sampled
        results reproducible and thread-interleaving-independent.
        ``shared`` is the request-shared work of a plan's groups (see
        :func:`~repro.sqldb.executor.execute_bound`); results are
        identical with or without it.
        """
        bound = self.bound_statement(query)
        statement = bound.statement
        table = self.table(statement.table)
        if rng is None and statement.sample_fraction is not None:
            rng = derive_rng(self._seed, statement.to_sql())
        with trace_span("sqldb.execute") as span:
            span.set_attribute("table", statement.table)
            span.set_attribute("shared", shared is not None)
            start = time.perf_counter()
            columns, rows = execute_bound(bound, table, rng, shared)
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
        if statement.sample_fraction is None and indexes_enabled() \
                and bound.where is not None \
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
        normalised SQL; invalidated with the statement cache)."""
        if isinstance(query, SelectStatement):
            sql = query.to_sql()
        elif isinstance(query, AggregateQuery):
            sql = query.to_sql()
        else:
            sql = query
        # The chosen access path (and hence the estimate) depends on the
        # index flag, which tests toggle at runtime — key on it too.
        key = f"idx{int(indexes_enabled())}:{normalize_sql(sql)}"
        return self._costs.get_or_compute(
            key, lambda: self.explain(query).cost.total)

    # ------------------------------------------------------------------
    # Cache introspection
    # ------------------------------------------------------------------

    @property
    def statement_cache_stats(self) -> CacheStats:
        """Hit/miss counters of the parsed-and-bound statement cache.

        Hits fold in the exact-text memo sitting above the normalised
        LRU (a memo hit serves the same bound statement, just cheaper).
        """
        stats = self._statements.stats
        return CacheStats(hits=stats.hits + self._raw_statement_hits,
                          misses=stats.misses,
                          evictions=stats.evictions,
                          size=stats.size,
                          capacity=stats.capacity)

    @property
    def cost_cache_stats(self) -> CacheStats:
        """Hit/miss counters of the optimizer cost-estimate cache."""
        return self._costs.stats
