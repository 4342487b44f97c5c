"""Executing series multiplots with per-plot merged queries.

All series of one plot share a template, so they execute as a *single*
statement (the Section 8.1 idea carried to multi-row results), built by
:func:`repro.execution.merging.group_statement` with the x axis as an
extra leading GROUP BY column:

* ``pred_value`` templates — one two-key GROUP BY
  (``GROUP BY x, anchor``) covering every line's predicate value; a line
  whose query filters the anchor column twice runs on its own, as it
  does for bars (:func:`~repro.execution.merging.can_merge`);
* ``agg_func`` / ``agg_column`` templates — one GROUP BY over x with one
  output column per aggregate;
* anything else runs one GROUP BY statement per series.
"""

from __future__ import annotations

from typing import Any

from repro.execution.merging import _normalize, can_merge, group_statement
from repro.sqldb.database import Database
from repro.sqldb.query import AggregateQuery
from repro.timeseries.model import SeriesMultiplot, SeriesPlot


def execute_series_multiplot(database: Database,
                             multiplot: SeriesMultiplot,
                             ) -> SeriesMultiplot:
    """A copy of *multiplot* with every series' points filled in."""
    rows = []
    for row in multiplot.rows:
        rows.append(tuple(_execute_plot(database, plot) for plot in row))
    return SeriesMultiplot(tuple(rows))


def _execute_plot(database: Database, plot: SeriesPlot) -> SeriesPlot:
    template = plot.template
    merged = [line.query for line in plot.series
              if can_merge(template, line.query)]
    points = (_execute_merged(database, plot, merged)
              if len(merged) > 1 else {})
    filled = []
    for line in plot.series:
        if line.query not in points:
            points[line.query] = _execute_single_series(database, plot,
                                                        line.query)
        filled.append(line.with_points(points[line.query]))
    return SeriesPlot(template, plot.x_column, tuple(filled))


def _series_points(pairs: list[tuple[Any, float]],
                   ) -> tuple[tuple[Any, float], ...]:
    return tuple(sorted(pairs, key=lambda pair: repr(pair[0])))


def _execute_single_series(database: Database, plot: SeriesPlot,
                           query: AggregateQuery,
                           ) -> tuple[tuple[Any, float], ...]:
    result = database.execute(
        group_statement(None, (query,), plot.x_column))
    pairs = [(row[0], _normalize(query, row[1]))
             for row in result.rows]
    return _series_points([(x, v) for x, v in pairs if v is not None])


def _execute_merged(database: Database, plot: SeriesPlot,
                    queries: list[AggregateQuery],
                    ) -> dict[AggregateQuery, tuple[tuple[Any, float], ...]]:
    """Points of every line in *queries* from one shared statement."""
    template = plot.template
    result = database.execute(
        group_statement(template, queries, plot.x_column))
    if template.kind == "pred_value":
        anchor = str(template.anchor)
        by_value: dict[Any, list[tuple[Any, float]]] = {}
        for row in result.rows:
            by_value.setdefault(row[1], []).append((row[0], float(row[2])))
        return {query: _series_points(
                    by_value.get(query.predicate_on(anchor).value, []))
                for query in queries}
    points = {}
    for query in queries:
        index = result.column_index(query.aggregate.to_sql())
        points[query] = _series_points(
            [(row[0], float(row[index])) for row in result.rows])
    return points


def lift_results(multiplot: SeriesMultiplot,
                 query: AggregateQuery) -> tuple[tuple[Any, float], ...]:
    """Convenience: the filled points of one candidate's series."""
    line = multiplot.bar_for(query)
    return line.points if line is not None else ()
