"""Vectorized execution of SELECT statements.

The pipeline is sample -> filter -> (group-by) aggregate with two
engine-level optimisations:

* **Mask fusion** — Bernoulli sampling and the WHERE clause each produce a
  boolean mask over the base table; they are AND-combined and applied
  once (sampling then filtering commutes for Bernoulli samples).
* **Projection pushdown** — only the columns referenced by the GROUP BY
  and the aggregates are ever materialised under the mask; untouched
  columns are never copied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ExecutionError, NullAggregateError
from repro.observability import current_span
from repro.sqldb.expressions import (
    AggregateCall,
    AggregateFunction,
    BooleanExpr,
    combine_masks,
)
from repro.sqldb.index import (
    ZONE_BLOCK_ROWS,
    record_index_fallback,
    record_index_statement,
    resolve_leaf,
    resolve_selection,
    selection_size,
)
from repro.sqldb.parser import SelectStatement
from repro.sqldb.table import Table
from repro.sqldb.types import DataType

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.caching.selection import SelectionCache

#: Rows per chunk of the SUM/AVG kernel below — 8 zone-map blocks.  The
#: chunking holds the kernel's float64 weights and intp group-id
#: temporaries to one chunk instead of the whole selection, so peak
#: memory does not grow with the rows a grouped SUM/AVG reads.  Float
#: addition is not associative, so the chunking also fixes the SUM/AVG
#: values: chunk boundaries depend only on the row count.  Tests may
#: monkeypatch this to a small value to exercise chunk boundaries on
#: small tables.
MORSEL_ROWS = 8 * ZONE_BLOCK_ROWS


@dataclass(frozen=True)
class BoundStatement:
    """A parsed statement with its expressions type-checked against a
    schema — the unit the statement cache stores.

    Binding resolves column-name case, coerces literals to column types
    and validates aggregate typing; it only depends on the schema, so a
    bound statement may be reused across executions (and across threads:
    all fields are immutable).
    """

    statement: SelectStatement
    where: BooleanExpr | None
    aggregates: tuple[AggregateCall, ...]
    group_columns: tuple[str, ...]


def bind_statement(statement: SelectStatement,
                   table: Table) -> BoundStatement:
    """Type-check *statement* against *table*'s schema once."""
    return BoundStatement(
        statement=statement,
        where=(statement.where.bind(table.schema)
               if statement.where is not None else None),
        aggregates=tuple(agg.bind(table.schema)
                         for agg in statement.aggregates),
        group_columns=tuple(table.schema.column(name).name
                            for name in statement.group_by),
    )


def execute_bound(bound: BoundStatement, table: Table,
                  rng: np.random.Generator | None,
                  selections: SelectionCache, epoch: int,
                  ) -> tuple[tuple[str, ...], list[tuple[Any, ...]]]:
    """Run an already-bound statement (the statement-cache fast path).

    Leaf predicates resolve through *selections*, the database's memo of
    leaf selections, keyed on the bound (schema-canonical) leaf: index
    postings under ``("idx", table, leaf)`` and scan masks under
    ``(table, leaf)``, so the two never collide.  *epoch* is the cache's
    :attr:`~repro.caching.selection.SelectionCache.epoch` read before
    *table* was looked up.  Each distinct leaf is probed or scanned once
    until the data changes; AND/OR/NOT combine the leaves
    (:func:`~repro.sqldb.index.resolve_selection` on the index path,
    :func:`~repro.sqldb.expressions.combine_masks` on the scan path).
    Memoised arrays are shared, so nothing here mutates them in place.
    Numeric GROUP BY columns are factorised on the filtered rows.
    """
    statement = bound.statement
    bound_where = bound.where
    bound_aggs = bound.aggregates
    group_columns = bound.group_columns
    table_key = table.schema.name.lower()

    def scanned(leaf: BooleanExpr) -> np.ndarray:
        key = (table_key, leaf)
        mask = selections.get(key, epoch)
        if mask is None:
            mask = leaf.evaluate(table)
            selections.store(key, mask, epoch)
        return mask

    def probed(leaf: BooleanExpr, leaf_table: Table) -> np.ndarray | None:
        key = ("idx", table_key, leaf)
        selection = selections.get(key, epoch)
        if selection is None:
            selection = resolve_leaf(leaf, leaf_table)
            if selection is not None:
                selections.store(key, selection, epoch)
        return selection

    # ``selection`` is either a boolean mask or an int64 array of row
    # positions in ascending order — numpy fancy indexing treats both
    # identically, so everything downstream is representation-agnostic.
    selection: np.ndarray | None = None
    access_path = "scan"
    if statement.sample_fraction is not None \
            and statement.sample_fraction < 1.0:
        if rng is None:
            raise ExecutionError(
                "TABLESAMPLE execution requires an explicit rng")
        selection = rng.random(table.num_rows) < statement.sample_fraction
        if bound_where is not None:
            selection = selection & combine_masks(bound_where, table, scanned)
    elif bound_where is not None:
        selection = resolve_selection(bound_where, table, leaf_cache=probed)
        if selection is not None:
            access_path = "index"
            record_index_statement(selection_size(selection),
                                   table.num_rows)
        else:
            record_index_fallback()
            selection = combine_masks(bound_where, table, scanned)

    needed = {agg.column for agg in bound_aggs
              if agg.column is not None}
    if selection is None:
        arrays = {name: table.column(name) for name in needed}
        row_count = table.num_rows
    else:
        arrays = {name: table.column(name)[selection]
                  for name in needed}
        row_count = selection_size(selection)
    # Annotate whatever stage is being traced (typically the enclosing
    # ``sqldb.execute`` span) with the scan shape; a no-op when tracing
    # is off or no span is active.
    span = current_span()
    span.set_attribute("rows_scanned", row_count)
    span.set_attribute("rows_total", table.num_rows)
    span.set_attribute("access_path", access_path)

    if group_columns:
        # TEXT group columns reuse the table's dictionary codes, gathered
        # at the selected rows — O(result), not O(rows), when the
        # predicate came out of an index.  Numeric columns are
        # factorised on the filtered rows; ``np.unique`` sorts, so the
        # group order is the value order either way.
        group_factors: list[tuple[np.ndarray, np.ndarray]] = []
        for name in group_columns:
            if table.schema.column(name).dtype == DataType.TEXT:
                uniques, codes, _ = table.dictionary(name)
                group_factors.append(
                    (uniques,
                     codes if selection is None else codes[selection]))
            else:
                column = table.column(name)
                group_factors.append(np.unique(
                    column if selection is None else column[selection],
                    return_inverse=True))
        names, rows = _grouped_aggregate(
            arrays, row_count, group_columns, group_factors, bound_aggs,
            having=statement.having)
    else:
        names, rows = _scalar_aggregate(arrays, row_count, bound_aggs)
        if statement.having:
            rows = _apply_having(names, rows, statement)
    rows = _order_and_limit(names, rows, statement)
    return names, rows


_HAVING_COMPARATORS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _resolve_having(names: tuple[str, ...],
                    having) -> list[tuple[int, Any, Any]]:
    """Map HAVING clauses to result-column positions (validates even
    when there are zero groups to filter)."""
    indexed = {name.lower(): position
               for position, name in enumerate(names)}
    resolved = []
    for clause in having:
        position = indexed.get(clause.target.lower())
        if position is None:
            raise ExecutionError(
                f"HAVING target {clause.target!r} is not in the result "
                f"columns {list(names)}")
        resolved.append((position,
                         _HAVING_COMPARATORS[clause.op.value],
                         clause.value))
    return resolved


def _having_mask(values, comparator, value, n_groups: int) -> np.ndarray:
    """Per-group HAVING verdicts over one aggregate (or key) column.

    Numeric aggregate arrays compare vectorized — NaN measures fail
    every comparator, matching the per-row semantics.  Object columns
    (text keys, DISTINCT result lists) fall back to a per-value loop
    with the NULL-never-qualifies guard.
    """
    if isinstance(values, np.ndarray) and values.dtype != object:
        with np.errstate(invalid="ignore"):
            return np.asarray(comparator(values, value), dtype=bool)
    return np.fromiter(
        (v is not None and bool(comparator(v, value)) for v in values),
        dtype=bool, count=n_groups)


def _apply_having(names: tuple[str, ...], rows: list[tuple[Any, ...]],
                  statement: SelectStatement) -> list[tuple[Any, ...]]:
    """Post-aggregation group filter; NULL measures never qualify.

    Retained for the scalar-aggregate path (one row); the grouped path
    filters vectorized inside :func:`_grouped_aggregate` before any row
    materialisation.
    """
    resolved = _resolve_having(names, statement.having)
    kept = []
    for row in rows:
        if all(row[position] is not None
               and comparator(row[position], value)
               for position, comparator, value in resolved):
            kept.append(row)
    return kept


def _order_and_limit(names: tuple[str, ...],
                     rows: list[tuple[Any, ...]],
                     statement: SelectStatement) -> list[tuple[Any, ...]]:
    """Apply ORDER BY (stable, last key applied first) and LIMIT.

    The common single-key ORDER BY + LIMIT k shape selects the top k
    with ``np.argpartition`` — O(groups + k log k) instead of a full
    O(groups log groups) sort — whenever the key column is numeric.
    """
    if statement.order_by:
        indexed = {name.lower(): position
                   for position, name in enumerate(names)}
        positions = []
        for item in reversed(statement.order_by):
            position = indexed.get(item.target.lower())
            if position is None:
                raise ExecutionError(
                    f"ORDER BY target {item.target!r} is not in the "
                    f"result columns {list(names)}")
            positions.append(position)
        if len(statement.order_by) == 1 and statement.limit is not None \
                and 0 < statement.limit < len(rows):
            selected = _stable_topk(rows, positions[0],
                                    statement.order_by[0].descending,
                                    statement.limit)
            if selected is not None:
                return selected
        for position, item in zip(positions,
                                  reversed(statement.order_by)):
            rows = sorted(rows, key=lambda row: row[position],
                          reverse=item.descending)
    if statement.limit is not None:
        rows = rows[:statement.limit]
    return rows


def _stable_topk(rows: list[tuple[Any, ...]], position: int,
                 descending: bool, k: int) -> list[tuple[Any, ...]] | None:
    """Top-k rows by one numeric key, replicating a stable full sort.

    Partitions to find the k-th value, keeps everything strictly inside
    the threshold plus just enough threshold ties *in ascending row
    order* (what a stable sort — ascending or descending — would keep),
    then stably sorts only those k survivors.  Returns None when the key
    is non-numeric or contains NaN, deferring to the general sort.
    """
    try:
        values = np.asarray([row[position] for row in rows],
                            dtype=np.float64)
    except (TypeError, ValueError):
        return None
    if np.isnan(values).any():
        return None
    if len(values) and np.abs(values).max() >= 2.0 ** 53:
        # Integer keys beyond float53 could collide after conversion;
        # defer to the exact Python sort.
        return None
    if descending:
        values = -values
    threshold = np.partition(values, k - 1)[k - 1]
    inside = np.nonzero(values < threshold)[0]
    ties = np.nonzero(values == threshold)[0][:k - len(inside)]
    candidates = np.concatenate([inside, ties])
    order = np.argsort(values[candidates], kind="stable")
    return [rows[index] for index in candidates[order]]


def _scalar_aggregate(arrays: dict[str, np.ndarray], row_count: int,
                      aggs: tuple[AggregateCall, ...],
                      ) -> tuple[tuple[str, ...], list[tuple[Any, ...]]]:
    names = tuple(agg.to_sql().lower() for agg in aggs)
    values = tuple(
        _compute_aggregate(agg, arrays.get(agg.column or ""), row_count)
        for agg in aggs)
    return names, [values]


def _compute_aggregate(agg: AggregateCall, array: np.ndarray | None,
                       row_count: int):
    """One aggregate over a filtered column array (or bare row count)."""
    if agg.column is None:
        return float(row_count)
    assert array is not None
    if agg.distinct:
        distinct_values = set(array.tolist())
        array = np.empty(len(distinct_values), dtype=array.dtype)
        for position, value in enumerate(distinct_values):
            array[position] = value
    if agg.func == AggregateFunction.COUNT:
        return float(len(array))
    if len(array) == 0:
        raise NullAggregateError(
            f"{agg.func.value.upper()}({agg.column}) over zero rows "
            "has no value (SQL NULL)")
    if array.dtype == object:
        if agg.func == AggregateFunction.MIN:
            return min(array)
        if agg.func == AggregateFunction.MAX:
            return max(array)
        raise ExecutionError(
            f"{agg.func.value.upper()} not supported on text")
    if agg.func == AggregateFunction.SUM:
        return float(array.sum())
    if agg.func == AggregateFunction.AVG:
        return float(array.mean())
    if agg.func == AggregateFunction.MIN:
        return float(array.min())
    return float(array.max())


def _chunked_weighted_bincount(row_groups: np.ndarray, array: np.ndarray,
                               n_groups: int) -> np.ndarray:
    """``np.bincount(row_groups, weights=array.astype(float))`` computed
    in fixed :data:`MORSEL_ROWS` chunks, partials summed in chunk order.

    The temporaries (weights as float64, group ids widened to intp) live
    for one chunk at a time, and the per-chunk partial sums are always
    added in the same fixed order.  Inputs of at most one chunk
    degenerate to the single-pass kernel.
    """
    n_rows = len(row_groups)
    totals = np.bincount(row_groups[:MORSEL_ROWS],
                         weights=array[:MORSEL_ROWS].astype(float),
                         minlength=n_groups)
    for lo in range(MORSEL_ROWS, n_rows, MORSEL_ROWS):
        hi = lo + MORSEL_ROWS
        totals = totals + np.bincount(
            row_groups[lo:hi], weights=array[lo:hi].astype(float),
            minlength=n_groups)
    return totals


def _chunked_bincount(row_groups: np.ndarray, n_groups: int) -> np.ndarray:
    """``np.bincount(row_groups, minlength=n_groups)`` counted in fixed
    :data:`MORSEL_ROWS` chunks, so the group ids are widened to intp one
    chunk at a time.  The partial counts are integers, so the total is
    exact whatever the chunking."""
    totals = np.bincount(row_groups[:MORSEL_ROWS], minlength=n_groups)
    for lo in range(MORSEL_ROWS, len(row_groups), MORSEL_ROWS):
        totals += np.bincount(row_groups[lo:lo + MORSEL_ROWS],
                              minlength=n_groups)
    return totals


def _group_extreme(row_groups: np.ndarray, array: np.ndarray,
                   n_groups: int, maximize: bool) -> np.ndarray:
    """Per-group MIN/MAX.

    NaN measures propagate, as in the scalar path's ``array.min()``: a
    group holding any NaN (an all-NaN group included) yields NaN.  The
    comparisons run under ``np.errstate(invalid="ignore")`` because
    that propagation is the intended result, not a warning.
    """
    out = np.full(n_groups, -np.inf if maximize else np.inf)
    reduce_at = np.maximum.at if maximize else np.minimum.at
    with np.errstate(invalid="ignore"):
        reduce_at(out, row_groups, array.astype(float, copy=False))
    return out


def _dense_group_ids(combined: np.ndarray,
                     id_space: int) -> tuple[np.ndarray, np.ndarray]:
    """The values of ``np.unique(combined, return_inverse=True)``: the
    ascending distinct group ids and each row's index among them.

    When the ids in ``[0, id_space)`` are no more than the rows, a
    ``bincount`` marks the ids present and a cumulative sum numbers
    them: no sort, and int32 row indexes instead of the unique's int64
    sorted copy, permutation and inverse.
    """
    if id_space > len(combined):
        return np.unique(combined, return_inverse=True)
    present = _chunked_bincount(combined, id_space) > 0
    number = np.cumsum(present, dtype=np.int32) - 1
    return np.flatnonzero(present), number[combined]


def _grouped_aggregate(arrays: dict[str, np.ndarray], row_count: int,
                       group_by: tuple[str, ...],
                       group_factors: list[tuple[np.ndarray, np.ndarray]],
                       aggs: tuple[AggregateCall, ...],
                       having=(),
                       ) -> tuple[tuple[str, ...], list[tuple[Any, ...]]]:
    names = tuple(name for name in group_by)
    names += tuple(agg.to_sql().lower() for agg in aggs)

    # HAVING targets must resolve even when no groups survive the
    # filter, so validation precedes the empty-result early return.
    resolved_having = _resolve_having(names, having) if having else []

    if row_count == 0:
        return names, []

    # Combine the per-column codes into one group id per row.
    group_values = [uniques for uniques, _ in group_factors]
    if len(group_factors) == 1:
        combined = group_factors[0][1]
    else:
        combined = np.zeros(row_count, dtype=np.int64)
        for uniques, codes in group_factors:
            combined *= len(uniques)
            combined += codes
    group_ids, row_groups = _dense_group_ids(
        combined, math.prod(len(uniques) for uniques in group_values))
    n_groups = len(group_ids)

    # Decode the combined id back into per-column unique indices.
    decoded: list[np.ndarray] = []
    remainder = group_ids.copy()
    for uniques in reversed(group_values):
        decoded.append(remainder % len(uniques))
        remainder //= len(uniques)
    decoded.reverse()

    agg_columns = [
        _aggregate_per_group(agg, arrays.get(agg.column or ""),
                             row_groups, n_groups)
        for agg in aggs
    ]

    # Evaluate HAVING over the per-group aggregate arrays so only the
    # surviving groups are ever materialised into Python tuples.
    if resolved_having:
        n_keys = len(group_by)
        keep = np.ones(n_groups, dtype=bool)
        for position, comparator, value in resolved_having:
            if position < n_keys:
                column_values = group_values[position][decoded[position]]
            else:
                column_values = agg_columns[position - n_keys]
            keep &= _having_mask(column_values, comparator, value,
                                 n_groups)
        group_indices = np.nonzero(keep)[0]
    else:
        group_indices = range(n_groups)

    rows: list[tuple[Any, ...]] = []
    for group_index in group_indices:
        key = tuple(group_values[level][decoded[level][group_index]]
                    for level in range(len(group_by)))
        key = tuple(v.item() if isinstance(v, np.generic) else v
                    for v in key)
        measures = tuple(column[group_index] for column in agg_columns)
        rows.append(key + measures)
    return names, rows


def _aggregate_per_group(agg: AggregateCall, array: np.ndarray | None,
                         row_groups: np.ndarray, n_groups: int):
    """Compute one aggregate for every group, vectorized where possible.

    Numeric MIN/MAX are single-pass kernels; COUNT, SUM and AVG count
    and sum in fixed :data:`MORSEL_ROWS` chunks (see
    :func:`_chunked_bincount` and :func:`_chunked_weighted_bincount`).
    DISTINCT and object-dtype aggregates are Python loops.
    """
    if agg.distinct and agg.column is not None:
        assert array is not None
        per_group: list[set] = [set() for _ in range(n_groups)]
        for value, group in zip(array, row_groups):
            per_group[group].add(value)
        results = []
        for values in per_group:
            if agg.func == AggregateFunction.COUNT:
                results.append(float(len(values)))
            elif not values:
                results.append(None)
            elif agg.func == AggregateFunction.SUM:
                results.append(float(sum(values)))
            elif agg.func == AggregateFunction.AVG:
                results.append(float(sum(values)) / len(values))
            elif agg.func == AggregateFunction.MIN:
                results.append(min(values))
            else:
                results.append(max(values))
        return results

    if agg.column is None or agg.func == AggregateFunction.COUNT:
        return _chunked_bincount(row_groups, n_groups).astype(float)

    assert array is not None
    if array.dtype == object:
        if agg.func in (AggregateFunction.MIN, AggregateFunction.MAX):
            best: list[Any] = [None] * n_groups
            maximize = agg.func == AggregateFunction.MAX
            for value, group in zip(array, row_groups):
                current = best[group]
                if current is None or (value > current if maximize
                                       else value < current):
                    best[group] = value
            return best
        raise ExecutionError(
            f"{agg.func.value.upper()} not supported on text columns")

    if agg.func == AggregateFunction.SUM:
        return _chunked_weighted_bincount(row_groups, array, n_groups)
    if agg.func == AggregateFunction.AVG:
        sums = _chunked_weighted_bincount(row_groups, array, n_groups)
        counts = _chunked_bincount(row_groups, n_groups)
        return sums / np.maximum(counts, 1)
    if agg.func in (AggregateFunction.MIN, AggregateFunction.MAX):
        return _group_extreme(row_groups, array, n_groups,
                              maximize=agg.func == AggregateFunction.MAX)
    raise ExecutionError(f"unsupported aggregate {agg.func}")
