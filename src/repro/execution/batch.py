"""One-pass plan execution for candidate workloads (Section 8.1).

An :class:`~repro.execution.merging.ExecutionPlan` answers a whole
candidate set with a handful of merged statements that are
near-duplicates: their predicates differ in a single constant.
:func:`run_plan` is the one loop that executes a plan's groups.  Every
group statement goes through :meth:`~repro.sqldb.database.Database.execute`
and so through :func:`~repro.sqldb.executor.execute_bound`, the one
statement executor; what this module adds is the work the groups share
(:class:`_RequestContext`, the executor's ``shared`` argument):

* **Statement binding** — every group statement resolves through the
  database's parsed-and-bound statement cache
  (:meth:`~repro.sqldb.database.Database.bound_statement`), so repeated
  SQL never touches the lexer or parser again.
* **Mask cache** — leaf predicates (``borough = 'Brooklyn'``,
  ``agency IN (...)``) are evaluated once per request and reused across
  every group that references them; AND/OR/NOT combine the cached leaf
  masks.  Since candidates share their fixed predicates, a request that
  would scan the table once per group instead computes each distinct
  column comparison exactly once.
* **Shared factorisation** — numeric GROUP BY columns are factorised once
  per request (``np.unique(..., return_inverse=True)`` over the full
  column) and the codes are gathered per group; TEXT columns already
  share the table's dictionary encoding.

The aggregate kernels are the engine's own, so results are identical to
executing each group alone, bit for bit.  That plain execution is also
the per-group rung of the degradation ladder: ``run_plan`` without a
context runs every group serially through plain ``Database.execute``.

On top of the shared work, plans execute in parallel on the shared
worker pool (:mod:`repro.execution.parallel`): independent merged
groups become pool tasks, and within a group the leaf-mask scans,
selection gathers and grouped-aggregate kernels scatter across fixed
64k-row morsels.  The per-request memo below is single-flight, so
concurrent groups wanting the same leaf mask compute it exactly once.
Results stay bit-identical to serial execution (``MUVE_PARALLEL=0`` /
``--no-parallel`` keeps the serial oracle) because morsel boundaries
are fixed and every reduction combines partials in morsel order.

Observability: each shared plan runs inside an ``executor.batch`` span
carrying mask-reuse and scans-saved attributes, with one
``executor.group`` and one ``sqldb.execute`` span per group on either
path, and process-wide counters are exposed through :func:`batch_stats`
(``/api/stats``) and the metrics registry.

A **scan** here is one full pass over a base-table column to build a
boolean mask (a leaf predicate or a TABLESAMPLE draw).  The per-group
rung performs one per leaf per group; the shared path one per *distinct*
leaf per request — the difference is the ``scans_saved`` metric.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import NullAggregateError
from repro.observability import get_registry, trace_span
from repro.resilience import current_deadline
from repro.execution.parallel import (
    WorkerPool,
    get_pool,
    parallel_enabled,
    parallel_gather,
)
from repro.sqldb.database import Database, QueryResult
from repro.sqldb import executor as _kernels
from repro.sqldb.expressions import And, BooleanExpr, Not, Or
from repro.sqldb.index import resolve_leaf, resolve_selection
from repro.sqldb.table import Table
from repro.testing.faults import fault_point

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.caching import QueryResultCache
    from repro.execution.merging import ExecutionPlan, MergedGroup
    from repro.sqldb.query import AggregateQuery

__all__ = [
    "batch_stats",
    "register_batch_metrics",
    "request_context",
    "reset_batch_stats",
    "run_plan",
]


# ---------------------------------------------------------------------------
# Process-wide counters
# ---------------------------------------------------------------------------


class _BatchStats:
    """Thread-safe counters describing batch-executor effectiveness."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with getattr(self, "_lock", threading.Lock()):
            self.requests = 0
            self.groups = 0
            self.masks_computed = 0
            self.masks_reused = 0
            self.scans_saved = 0
            self.index_statements = 0

    def record(self, groups: int, masks_computed: int,
               masks_reused: int, scans_saved: int,
               index_statements: int = 0) -> None:
        with self._lock:
            self.requests += 1
            self.groups += groups
            self.masks_computed += masks_computed
            self.masks_reused += masks_reused
            self.scans_saved += scans_saved
            self.index_statements += index_statements

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return {
                "requests": float(self.requests),
                "groups": float(self.groups),
                "masks_computed": float(self.masks_computed),
                "masks_reused": float(self.masks_reused),
                "scans_saved": float(self.scans_saved),
                "index_statements": float(self.index_statements),
            }


_STATS = _BatchStats()


def batch_stats() -> dict[str, float]:
    """Process-wide batch-executor counters (``/api/stats``)."""
    return _STATS.snapshot()


def reset_batch_stats() -> None:
    _STATS.reset()


def register_batch_metrics(registry) -> None:
    """Expose the batch counters as callback gauges on *registry*."""
    for key in ("requests", "groups", "masks_computed", "masks_reused",
                "scans_saved", "index_statements"):
        registry.register_gauge(f"batch_{key}",
                                lambda key=key: batch_stats()[key])


# ---------------------------------------------------------------------------
# Per-request shared state
# ---------------------------------------------------------------------------


class _MorselView:
    """A contiguous row window of a :class:`Table` for per-morsel leaf
    evaluation.

    Exposes exactly the surface leaf predicates touch — ``schema``,
    ``num_rows``, ``column`` and ``dictionary`` — as zero-copy slices.
    Every leaf evaluates elementwise per row (comparisons, dictionary
    code membership, LIKE over dictionary matches), so concatenating
    per-morsel masks in index order reproduces the full-table
    ``expr.evaluate(table)`` bit for bit.
    """

    __slots__ = ("_table", "_lo", "_hi", "schema")

    def __init__(self, table: Table, lo: int, hi: int) -> None:
        self._table = table
        self._lo = lo
        self._hi = hi
        self.schema = table.schema

    @property
    def num_rows(self) -> int:
        return self._hi - self._lo

    def column(self, name: str) -> np.ndarray:
        return self._table.column(name)[self._lo:self._hi]

    def dictionary(self, name: str):
        uniques, codes, index = self._table.dictionary(name)
        return uniques, codes[self._lo:self._hi], index


def _evaluate_leaf(expr: BooleanExpr, table: Table,
                   runner) -> np.ndarray:
    """Evaluate one leaf predicate, scattered across morsels when the
    table is big enough for the pool to pay for itself."""
    n_rows = table.num_rows
    if runner is None or n_rows < 2 * _kernels.MORSEL_ROWS:
        return expr.evaluate(table)
    # Lazy structures (column arrays, dictionaries) build under the
    # table's double-checked locks: the first morsel builds, siblings
    # wait — same total cost as the serial path.
    parts = runner([
        lambda lo=lo, hi=hi: expr.evaluate(_MorselView(table, lo, hi))
        for lo, hi in _kernels._chunk_bounds(n_rows)])
    return np.concatenate(parts)


class _Missing:
    pass


_MISSING = _Missing()


class _Pending:
    """In-flight marker for the single-flight memo cells."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


class _RequestContext:
    """Work shared across all groups of one request.

    Holds the leaf-predicate mask cache, index-selection cache and the
    numeric GROUP BY factorisations; all are keyed on bound
    (schema-canonical) objects so textual variations of the same
    predicate share one entry.  Since groups of one plan now execute
    concurrently on the worker pool, every memo is **single-flight**:
    the first group to want a key computes it while later groups block
    on its event, so each distinct leaf is still scanned exactly once
    per request.  One context may serve several ``run_plan`` calls of
    the same request (the progressive strategies execute one plan per
    emitted update) — create it with :func:`request_context`.
    """

    def __init__(self, database: Database,
                 pool: WorkerPool | None = None) -> None:
        self.database = database
        self.pool = pool
        if pool is not None:
            self.runner = (lambda thunks:
                           pool.run_tasks(thunks, site="executor.morsel"))
        else:
            self.runner = None
        self._lock = threading.Lock()
        self._masks: dict[tuple[str, BooleanExpr], object] = {}
        self._selections: dict[
            tuple[str, str, BooleanExpr], object] = {}
        self._numeric_factors: dict[tuple[str, str], object] = {}
        self.masks_computed = 0
        self.masks_reused = 0
        self.sample_masks = 0
        self.legacy_scans = 0  # masks the per-group rung would have built
        self.index_statements = 0
        self._leaf_counts: dict[int, int] = {}

    # -- thread-safe counters --------------------------------------------

    def bump(self, counter: str, delta: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + delta)

    def record_statement(self, where: BooleanExpr | None, sampled: bool,
                         indexed: bool) -> None:
        """Charge one executed statement: the full-column scans the
        per-group rung would pay for it (one per leaf, plus the
        TABLESAMPLE draw), the draw itself, and an index answer."""
        legacy = self.leaf_count(where) + int(sampled)
        with self._lock:
            self.legacy_scans += legacy
            self.sample_masks += int(sampled)
            self.index_statements += int(indexed)

    def counters(self) -> dict[str, int]:
        """Snapshot of the effectiveness counters; ``run_plan`` records
        per-plan deltas between two snapshots so a shared context keeps
        every plan's numbers honest."""
        with self._lock:
            return {
                "masks_computed": self.masks_computed,
                "masks_reused": self.masks_reused,
                "sample_masks": self.sample_masks,
                "legacy_scans": self.legacy_scans,
                "index_statements": self.index_statements,
            }

    # -- single-flight memoisation ---------------------------------------

    def _single_flight(self, store: dict, key, compute):
        """``(value, cached)`` from *store*, computing at most once.

        The first caller installs a :class:`_Pending` cell and computes
        outside the lock; concurrent callers wait on its event and
        re-read.  A failed compute removes the cell so the next caller
        retries.  ``None`` is a legitimate cached value (index
        selections memoise misses).
        """
        while True:
            with self._lock:
                cell = store.get(key, _MISSING)
                if cell is _MISSING:
                    pending = _Pending()
                    store[key] = pending
                    break
                if not isinstance(cell, _Pending):
                    return cell, True
            cell.event.wait()
        try:
            value = compute()
        except BaseException:
            with self._lock:
                del store[key]
            pending.event.set()
            raise
        with self._lock:
            store[key] = value
        pending.event.set()
        return value, False

    def leaf_count(self, where: BooleanExpr | None) -> int:
        """Leaf predicates of a bound WHERE tree, memoised by identity
        (bound statements are cached, so trees recur across requests).
        Plain dict ops are atomic under the GIL and the count is
        idempotent, so concurrent groups at worst compute it twice."""
        if where is None:
            return 0
        key = id(where)
        count = self._leaf_counts.get(key)
        if count is None:
            count = _count_leaves(where)
            self._leaf_counts[key] = count
        return count

    # -- predicate masks -------------------------------------------------

    def mask(self, expr: BooleanExpr, table: Table) -> np.ndarray:
        """The boolean mask of *expr*, memoised per request.

        Only *leaf* predicates are cached: they are what candidate
        workloads share across groups, their keys are cheap to hash, and
        combinator results almost never recur once identical WHERE
        clauses have been merged away (hashing whole subtrees per lookup
        cost more than it saved).  The cache has two levels — this
        request's single-flight dict, then the database's cross-request
        mask cache (leaf masks are pure functions of table data; the
        database drops them on any mutation).  Combinators replicate
        the engine's evaluation (including its short-circuiting)
        exactly.  Returned arrays may be cache-owned — callers must not
        mutate them in place (all call sites combine with
        ``&``/``~``/fancy indexing, which allocate).
        """
        return self._mask(expr, table, table.schema.name.lower())

    def _mask(self, expr: BooleanExpr, table: Table,
              table_key: str) -> np.ndarray:
        if isinstance(expr, And):
            if not expr.children:
                return np.ones(table.num_rows, dtype=bool)
            mask = self._mask(expr.children[0], table, table_key)
            for child in expr.children[1:]:
                if not mask.any():
                    break
                mask = mask & self._mask(child, table, table_key)
            return mask
        if isinstance(expr, Or):
            if not expr.children:
                return np.zeros(table.num_rows, dtype=bool)
            mask = self._mask(expr.children[0], table, table_key)
            for child in expr.children[1:]:
                if mask.all():
                    break
                mask = mask | self._mask(child, table, table_key)
            return mask
        if isinstance(expr, Not):
            return ~self._mask(expr.child, table, table_key)
        key = (table_key, expr)

        def compute() -> np.ndarray:
            cached = self.database.cached_mask(key)
            if cached is not None:
                # Warm from an earlier request: the leaf was never
                # scanned.
                self.bump("masks_reused")
                return cached
            computed = _evaluate_leaf(expr, table, self.runner)
            self.bump("masks_computed")
            self.database.store_mask(key, computed)
            return computed

        mask, cached = self._single_flight(self._masks, key, compute)
        if cached:
            self.bump("masks_reused")
        return mask

    # -- index selections ------------------------------------------------

    def selection(self, where: BooleanExpr,
                  table: Table) -> np.ndarray | None:
        """Index-resolved selection of a bound WHERE tree, or None.

        Leaf selections (postings, range positions/masks) share the same
        two-level memoisation as boolean leaf masks — this request's
        single-flight dict, then the database's cross-request cache
        (dropped on any data mutation) — under ``("idx", table, expr)``
        keys so they never collide with scan masks for the same
        predicate.  A leaf with no index path memoises ``None`` for the
        request, which makes the whole tree fall back to the mask path.
        """
        table_key = table.schema.name.lower()

        def leaf(expr: BooleanExpr, leaf_table: Table):
            key = ("idx", table_key, expr)

            def compute():
                selection = self.database.cached_mask(key)
                if selection is not None:
                    self.bump("masks_reused")
                    return selection
                selection = resolve_leaf(expr, leaf_table)
                if selection is not None:
                    self.database.store_mask(key, selection)
                return selection

            value, cached = self._single_flight(self._selections, key,
                                                compute)
            if cached and value is not None:
                self.bump("masks_reused")
            return value

        return resolve_selection(where, table, leaf_cache=leaf)

    # -- gathers and shared numeric factorisation ------------------------

    def gather(self, array: np.ndarray,
               selection: np.ndarray) -> np.ndarray:
        """``array[selection]``, scattered across morsels on the pool."""
        return parallel_gather(array, selection, self.runner)

    def numeric_factor(self, table: Table,
                       column: str) -> tuple[np.ndarray, np.ndarray]:
        """``(uniques, codes)`` of a numeric column over the *full* table.

        Computed once per request and masked per group; ``np.unique``
        sorts, so per-group codes keep the same value order the engine's
        per-group factorisation would produce.
        """
        key = (table.schema.name.lower(), column)

        def compute() -> tuple[np.ndarray, np.ndarray]:
            array = table.column(column)
            uniques, codes = np.unique(array, return_inverse=True)
            return uniques, codes

        value, _ = self._single_flight(self._numeric_factors, key,
                                       compute)
        return value


def request_context(database: Database,
                    parallel: bool | None = None) -> _RequestContext:
    """Shared per-request batch state, pool-backed when parallel
    execution is on.

    The progressive strategies create one context per request and pass
    it through every ``run_plan`` call they make, so all emitted updates
    share one mask cache and one pool.  *parallel* is three-valued:
    ``None`` (auto, the serving default) uses the pool when the global
    :func:`~repro.execution.parallel.parallel_enabled` flag is on *and*
    the pool has more than one worker — a one-worker pool (e.g. the
    ``min(8, cpu_count)`` default on a single-core host) can never run
    tasks concurrently with a participating submitter paying for it, so
    auto mode keeps such hosts on the plain serial path.  ``True``
    forces the pool regardless of size (differential tests and the
    scaling benchmark measure the pool itself); ``False`` is the serial
    oracle.
    """
    if parallel is None:
        parallel = parallel_enabled() and get_pool().workers > 1
    pool = get_pool() if parallel else None
    return _RequestContext(database, pool=pool)


def _count_leaves(expr: BooleanExpr | None) -> int:
    """Number of leaf predicates — full-column mask builds — in a tree."""
    if expr is None:
        return 0
    if isinstance(expr, (And, Or)):
        return sum(_count_leaves(child) for child in expr.children)
    if isinstance(expr, Not):
        return _count_leaves(expr.child)
    return 1


# ---------------------------------------------------------------------------
# Plan execution
# ---------------------------------------------------------------------------


def run_plan(plan: "ExecutionPlan", database: Database,
             sample_fraction: float | None = None,
             cache: "QueryResultCache | None" = None,
             ctx: _RequestContext | None = None,
             ) -> dict["AggregateQuery", float | None]:
    """Answer every group of *plan*: the one loop over a plan's groups.

    With a request context *ctx* (from :func:`request_context`) each
    group statement runs through ``Database.execute`` with *ctx* as its
    shared work, so every distinct predicate mask and GROUP BY
    factorisation is computed once per context instead of once per
    group, and independent groups run as tasks on the context's pool.
    Effectiveness counters are recorded as per-plan deltas, so one
    context may serve several plans of a request.

    ``ctx=None`` is the per-group rung of the degradation ladder: every
    group runs serially through plain ``Database.execute`` behind the
    ``executor.group`` fault point.  Both give the same results bit for
    bit, including TABLESAMPLE draws (the rng derives from the statement
    text), NULL/zero-row normalisation and result-cache entries (keyed
    on the same group SQL).  The request deadline is polled per group
    (and per morsel on the pool).
    """
    from repro.execution.merging import (
        _extract_group_results,
        _normalize,
        _with_sample,
    )

    def run_group(group: "MergedGroup",
                  ) -> dict["AggregateQuery", float | None]:
        if ctx is None:
            fault_point("executor.group")
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("executor.group")
        sql = group.sql
        if sample_fraction is not None and sample_fraction < 1.0:
            sql = _with_sample(sql, sample_fraction)
        with trace_span("executor.group") as span:
            span.set_attribute("queries", len(group.queries))
            span.set_attribute("merged", group.is_merged)
            span.set_attribute("estimated_cost",
                               round(group.estimated_cost, 3))
            executed = True

            def execute(text: str) -> QueryResult:
                nonlocal executed
                executed = True
                return database.execute(text, shared=ctx)

            try:
                if cache is not None:
                    executed = False
                    outcome = cache.get_or_execute(sql, execute)
                    span.set_attribute(
                        "cache", "miss" if executed else "hit")
                else:
                    outcome = execute(sql)
            except NullAggregateError:
                # Aggregate over zero qualifying rows (SQL NULL): report
                # every member query as missing/zero.  Other
                # ExecutionErrors are genuine failures (bad SQL, a
                # dropped table, an unsupported aggregate) and propagate
                # to the caller instead of being folded into "no data".
                span.set_attribute("null_result", True)
                return {query: _normalize(query, None)
                        for query in group.queries}
            if executed:
                # Cost-model estimation error: the optimizer's EXPLAIN
                # estimate (abstract units) vs. the measured runtime.
                # Cache hits skip this — their elapsed time belongs to
                # the original execution.
                actual_ms = outcome.elapsed_seconds * 1000.0
                span.set_attribute("actual_ms", round(actual_ms, 4))
                if group.estimated_cost > 0:
                    span.set_attribute(
                        "ms_per_cost_unit",
                        round(actual_ms / group.estimated_cost, 6))
        results: dict["AggregateQuery", float | None] = {}
        _extract_group_results(group, outcome, results)
        return results

    def run_groups() -> list[dict["AggregateQuery", float | None]]:
        pool = None if ctx is None else ctx.pool
        if pool is not None and len(plan.groups) > 1:
            return pool.run_tasks(
                [lambda group=group: run_group(group)
                 for group in plan.groups],
                site="executor.group")
        return [run_group(group) for group in plan.groups]

    if ctx is None:
        parts = run_groups()
    else:
        with trace_span("executor.batch") as batch_span:
            batch_span.set_attribute("groups", len(plan.groups))
            batch_span.set_attribute("parallel", ctx.pool is not None)
            if ctx.pool is not None:
                batch_span.set_attribute("workers", ctx.pool.workers)
            base = ctx.counters()
            parts = run_groups()
            _record_plan(batch_span, len(plan.groups), base,
                         ctx.counters())
    results: dict["AggregateQuery", float | None] = {}
    for part in parts:
        results.update(part)
    return results


def _record_plan(span, groups: int, base: dict[str, int],
                 current: dict[str, int]) -> None:
    """Publish one shared plan's counter deltas on its span, the
    process-wide :func:`batch_stats` and the metrics registry."""
    delta = {key: current[key] - base[key] for key in current}
    batch_scans = delta["masks_computed"] + delta["sample_masks"]
    scans_saved = max(0, delta["legacy_scans"] - batch_scans)
    span.set_attribute("masks_computed", delta["masks_computed"])
    span.set_attribute("masks_reused", delta["masks_reused"])
    span.set_attribute("scans_saved", scans_saved)
    span.set_attribute("index_statements", delta["index_statements"])
    _STATS.record(groups=groups,
                  masks_computed=delta["masks_computed"],
                  masks_reused=delta["masks_reused"],
                  scans_saved=scans_saved,
                  index_statements=delta["index_statements"])
    registry = get_registry()
    registry.counter("batch_plans").inc()
    if delta["masks_reused"]:
        registry.counter("batch_masks_reused_total").inc(
            delta["masks_reused"])
    if scans_saved:
        registry.counter("batch_scans_saved_total").inc(scans_saved)


def plan_scan_counts(plan: "ExecutionPlan", database: Database,
                     sample_fraction: float | None = None,
                     ) -> tuple[int, int]:
    """``(legacy, batch)`` full-table mask builds this plan needs.

    The legacy count charges every group for each of its leaf predicates
    (plus one TABLESAMPLE draw when sampling); the batch count charges
    each *distinct* leaf once.  Used by the serving benchmark to report
    scans per request without instrumenting the hot path.
    """
    from repro.execution.merging import _with_sample
    legacy = 0
    distinct: set[tuple[str, BooleanExpr]] = set()
    samples = 0
    for group in plan.groups:
        sql = group.sql
        if sample_fraction is not None and sample_fraction < 1.0:
            sql = _with_sample(sql, sample_fraction)
            samples += 1
            legacy += 1
        bound = database.bound_statement(sql)
        legacy += _count_leaves(bound.where)
        table = bound.statement.table.lower()
        stack: list[BooleanExpr] = (
            [bound.where] if bound.where is not None else [])
        while stack:
            expr = stack.pop()
            if isinstance(expr, (And, Or)):
                stack.extend(expr.children)
            elif isinstance(expr, Not):
                stack.append(expr.child)
            else:
                distinct.add((table, expr))
    return legacy, len(distinct) + samples
