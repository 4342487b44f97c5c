"""Logical plans with a Postgres-flavoured cost model (the EXPLAIN path).

MUVE uses the optimizer's cost estimates in two places: deciding whether to
merge candidate queries (Section 8.1) and bounding processing overheads in
the processing-cost-aware ILP (Section 8.1/9.3).  This module produces the
same kind of numbers Postgres' ``EXPLAIN`` prints: abstract cost units built
from page reads and per-tuple/per-operator CPU charges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math

from repro.sqldb.expressions import And, Between, BooleanExpr, InList
from repro.sqldb.index import index_leaf_columns
from repro.sqldb.parser import SelectStatement
from repro.sqldb.statistics import TableStatistics
from repro.sqldb.table import Table

# Cost constants, matching Postgres defaults.
SEQ_PAGE_COST = 1.0
RANDOM_PAGE_COST = 4.0
CPU_TUPLE_COST = 0.01
CPU_OPERATOR_COST = 0.0025
PAGE_SIZE_BYTES = 8192


@dataclass(frozen=True)
class CostEstimate:
    """Startup/total cost (abstract units) plus output cardinality."""

    startup: float
    total: float
    rows: float

    def __str__(self) -> str:
        return f"cost={self.startup:.2f}..{self.total:.2f} rows={self.rows:.0f}"


@dataclass(frozen=True)
class PlanNode:
    """One operator in the plan tree."""

    kind: str
    detail: str
    cost: CostEstimate
    children: tuple["PlanNode", ...] = field(default=())

    def render(self, indent: int = 0) -> str:
        """Postgres-style EXPLAIN text."""
        pad = "  " * indent
        arrow = "-> " if indent else ""
        lines = [f"{pad}{arrow}{self.kind}  ({self.cost})"]
        if self.detail:
            lines.append(f"{pad}     {self.detail}")
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


def _count_filter_operators(expr: BooleanExpr | None) -> int:
    """How many scalar comparisons the filter performs per tuple."""
    if expr is None:
        return 0
    if isinstance(expr, InList):
        return max(1, len(expr.values))
    if isinstance(expr, Between):
        return 2
    children = getattr(expr, "children", None)
    if children is not None:
        return sum(_count_filter_operators(child) for child in children)
    child = getattr(expr, "child", None)
    if child is not None:
        return _count_filter_operators(child)
    return 1


def plan_select(statement: SelectStatement, table: Table,
                statistics: TableStatistics) -> PlanNode:
    """Build the plan tree with cost annotations for *statement*.

    There are two access paths: a sequential scan with the filter folded
    in, and — when every leaf of the WHERE clause is servable by a
    secondary index — an index scan; the cheaper one wins, and either
    sits optionally under a hash aggregate.  Scan costing follows
    Postgres: pages * seq_page_cost + rows * cpu_tuple_cost + rows *
    filter_ops * cpu_operator_cost; probe costing charges a binary
    search per leaf, random-page I/O for the touched fraction of the
    table, and cpu_tuple_cost per matching row.  Aggregation adds
    cpu_operator_cost per input row per aggregate and cpu_tuple_cost per
    output group.
    """
    base_rows = float(table.num_rows)
    pages = max(1.0, table.estimated_bytes() / PAGE_SIZE_BYTES)
    sample_fraction = statement.sample_fraction or 1.0
    scanned_rows = base_rows * sample_fraction
    # Sampling is costed SYSTEM-style: a p% sample reads ~p% of the pages
    # (Postgres BERNOULLI would read all pages; MUVE's approximate
    # processing relies on page-proportional sampling to pay off).
    scanned_pages = max(1.0, pages * sample_fraction)
    filter_ops = _count_filter_operators(statement.where)
    scan_cost = (scanned_pages * SEQ_PAGE_COST
                 + scanned_rows * CPU_TUPLE_COST
                 + scanned_rows * filter_ops * CPU_OPERATOR_COST)
    selectivity = statistics.selectivity(statement.where)
    out_rows = max(0.0, scanned_rows * selectivity)

    detail_parts = []
    if statement.sample_fraction is not None:
        detail_parts.append(
            f"Sampling: bernoulli ({statement.sample_fraction * 100:g}%)")
    if statement.where is not None:
        detail_parts.append(f"Filter: {statement.where.to_sql()}")
    scan_node = PlanNode(
        kind=f"Seq Scan on {statement.table}",
        detail="; ".join(detail_parts),
        cost=CostEstimate(startup=0.0, total=scan_cost, rows=out_rows),
    )

    # Index access path: one dictionary/sorted-projection search per
    # leaf, random I/O proportional to the matched fraction of the
    # table, then per-matched-row CPU.  RANDOM_PAGE_COST keeps the probe
    # from winning on tiny tables, mirroring Postgres' preference for a
    # seq scan when everything fits in a few pages.
    if statement.where is not None and statement.sample_fraction is None:
        leaf_columns = index_leaf_columns(statement.where, table.schema)
        if leaf_columns is not None:
            search_cost = sum(
                math.log2(max(2.0, statistics.n_distinct(column)))
                for column in leaf_columns) * CPU_OPERATOR_COST
            probe_cost = (search_cost
                          + max(1.0, pages * min(1.0, selectivity))
                          * RANDOM_PAGE_COST
                          + out_rows * CPU_TUPLE_COST)
            if probe_cost < scan_cost:
                scan_node = PlanNode(
                    kind=f"Index Scan on {statement.table}",
                    detail=f"Index Cond: {statement.where.to_sql()}",
                    cost=CostEstimate(startup=0.0, total=probe_cost,
                                      rows=out_rows),
                )
    scan_cost = scan_node.cost.total

    needs_aggregate = bool(statement.aggregates) or bool(statement.group_by)
    if not needs_aggregate:
        return _wrap_order_limit(scan_node, statement)

    n_aggs = max(1, len(statement.aggregates))
    groups = statistics.estimate_groups(statement.group_by)
    # Cap expected groups by expected qualifying rows.
    groups = min(groups, max(1.0, out_rows)) if out_rows else 1.0
    agg_cost = (out_rows * n_aggs * CPU_OPERATOR_COST
                + groups * CPU_TUPLE_COST)
    kind = "HashAggregate" if statement.group_by else "Aggregate"
    detail = ""
    if statement.group_by:
        detail = f"Group Key: {', '.join(statement.group_by)}"
    node = PlanNode(
        kind=kind,
        detail=detail,
        cost=CostEstimate(
            startup=scan_cost,
            total=scan_cost + agg_cost,
            rows=groups,
        ),
        children=(scan_node,),
    )
    return _wrap_order_limit(node, statement)


def _wrap_order_limit(node: PlanNode,
                      statement: SelectStatement) -> PlanNode:
    """Wrap a plan in Sort and/or Limit operators as the statement asks."""
    if statement.order_by:
        rows = node.cost.rows
        sort_cost = (max(rows, 1.0) * math.log2(max(rows, 2.0))
                     * CPU_OPERATOR_COST * len(statement.order_by))
        keys = ", ".join(
            f"{item.target}{' DESC' if item.descending else ''}"
            for item in statement.order_by)
        node = PlanNode(
            kind="Sort",
            detail=f"Sort Key: {keys}",
            cost=CostEstimate(startup=node.cost.total,
                              total=node.cost.total + sort_cost,
                              rows=rows),
            children=(node,),
        )
    if statement.limit is not None:
        limited = min(node.cost.rows, float(statement.limit))
        node = PlanNode(
            kind="Limit",
            detail=f"Limit: {statement.limit}",
            cost=CostEstimate(startup=node.cost.startup,
                              total=node.cost.total,
                              rows=limited),
            children=(node,),
        )
    return node


def statement_where(statement: SelectStatement) -> BooleanExpr:
    """The statement's WHERE clause, as a (possibly empty) conjunction."""
    if statement.where is None:
        return And(())
    return statement.where
