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
context runs every group through plain ``Database.execute``.

Execution is single-threaded: a plan's groups run in order on the
calling thread, and one request context is only ever used by the thread
serving its request, so the memos below are plain dicts.

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
from repro.sqldb.database import Database, QueryResult
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


class _RequestContext:
    """Work shared across all groups of one request.

    Holds the leaf-predicate mask cache, index-selection cache and the
    numeric GROUP BY factorisations; all are keyed on bound
    (schema-canonical) objects so textual variations of the same
    predicate share one entry, and each distinct leaf is scanned at
    most once per context.  One context may serve several ``run_plan``
    calls of the same request (the progressive strategies execute one
    plan per emitted update) — create it with :func:`request_context`.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._masks: dict[tuple[str, BooleanExpr], np.ndarray] = {}
        self._selections: dict[
            tuple[str, str, BooleanExpr], np.ndarray | None] = {}
        self._numeric_factors: dict[
            tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
        self.masks_computed = 0
        self.masks_reused = 0
        self.sample_masks = 0
        self.legacy_scans = 0  # masks the per-group rung would have built
        self.index_statements = 0
        self._leaf_counts: dict[int, int] = {}

    # -- counters --------------------------------------------------------

    def record_statement(self, where: BooleanExpr | None, sampled: bool,
                         indexed: bool) -> None:
        """Charge one executed statement: the full-column scans the
        per-group rung would pay for it (one per leaf, plus the
        TABLESAMPLE draw), the draw itself, and an index answer."""
        self.legacy_scans += self.leaf_count(where) + int(sampled)
        self.sample_masks += int(sampled)
        self.index_statements += int(indexed)

    def counters(self) -> dict[str, int]:
        """Snapshot of the effectiveness counters; ``run_plan`` records
        per-plan deltas between two snapshots so a shared context keeps
        every plan's numbers honest."""
        return {
            "masks_computed": self.masks_computed,
            "masks_reused": self.masks_reused,
            "sample_masks": self.sample_masks,
            "legacy_scans": self.legacy_scans,
            "index_statements": self.index_statements,
        }

    def leaf_count(self, where: BooleanExpr | None) -> int:
        """Leaf predicates of a bound WHERE tree, memoised by identity
        (bound statements are cached, so trees recur across requests)."""
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
        request's dict, then the database's cross-request mask cache
        (leaf masks are pure functions of table data; the database drops
        them on any mutation).  Combinators replicate the engine's
        evaluation (including its short-circuiting) exactly.  Returned
        arrays may be cache-owned — callers must not mutate them in
        place (all call sites combine with ``&``/``~``/fancy indexing,
        which allocate).
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
        mask = self._masks.get(key)
        if mask is not None:
            self.masks_reused += 1
            return mask
        mask = self.database.cached_mask(key)
        if mask is not None:
            # Warm from an earlier request: the leaf was never scanned.
            self.masks_reused += 1
        else:
            mask = expr.evaluate(table)
            self.masks_computed += 1
            self.database.store_mask(key, mask)
        self._masks[key] = mask
        return mask

    # -- index selections ------------------------------------------------

    def selection(self, where: BooleanExpr,
                  table: Table) -> np.ndarray | None:
        """Index-resolved selection of a bound WHERE tree, or None.

        Leaf selections (postings, range positions/masks) share the same
        two-level memoisation as boolean leaf masks — this request's
        dict, then the database's cross-request cache (dropped on any
        data mutation) — under ``("idx", table, expr)`` keys so they
        never collide with scan masks for the same predicate.  A leaf
        with no index path memoises ``None`` for the request, which
        makes the whole tree fall back to the mask path.
        """
        table_key = table.schema.name.lower()

        def leaf(expr: BooleanExpr, leaf_table: Table):
            key = ("idx", table_key, expr)
            if key in self._selections:
                value = self._selections[key]
                if value is not None:
                    self.masks_reused += 1
                return value
            value = self.database.cached_mask(key)
            if value is not None:
                self.masks_reused += 1
            else:
                value = resolve_leaf(expr, leaf_table)
                if value is not None:
                    self.database.store_mask(key, value)
            self._selections[key] = value
            return value

        return resolve_selection(where, table, leaf_cache=leaf)

    # -- shared numeric factorisation ------------------------------------

    def numeric_factor(self, table: Table,
                       column: str) -> tuple[np.ndarray, np.ndarray]:
        """``(uniques, codes)`` of a numeric column over the *full* table.

        Computed once per request and masked per group; ``np.unique``
        sorts, so per-group codes keep the same value order the engine's
        per-group factorisation would produce.
        """
        key = (table.schema.name.lower(), column)
        factor = self._numeric_factors.get(key)
        if factor is None:
            uniques, codes = np.unique(table.column(column),
                                       return_inverse=True)
            factor = self._numeric_factors[key] = (uniques, codes)
        return factor


def request_context(database: Database) -> _RequestContext:
    """Shared per-request batch state.

    The progressive strategies create one context per request and pass
    it through every ``run_plan`` call they make, so all emitted updates
    share one mask cache.
    """
    return _RequestContext(database)


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
    group.  Effectiveness counters are recorded as per-plan deltas, so
    one context may serve several plans of a request.

    ``ctx=None`` is the per-group rung of the degradation ladder: every
    group runs through plain ``Database.execute`` behind the
    ``executor.group`` fault point.  Both give the same results bit for
    bit, including TABLESAMPLE draws (the rng derives from the statement
    text), NULL/zero-row normalisation and result-cache entries (keyed
    on the same group SQL).  The request deadline is polled per group.
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

    if ctx is None:
        parts = [run_group(group) for group in plan.groups]
    else:
        with trace_span("executor.batch") as batch_span:
            batch_span.set_attribute("groups", len(plan.groups))
            base = ctx.counters()
            parts = [run_group(group) for group in plan.groups]
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
