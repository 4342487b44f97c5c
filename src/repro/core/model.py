"""Plots, multiplots and screen geometry (Definitions 2 and 3).

A :class:`Plot` visualizes results of queries sharing one
:class:`~repro.nlq.templates.QueryTemplate`; each query is one :class:`Bar`
whose x-axis label is the placeholder substitution, optionally highlighted
in the markup color (red).  A :class:`Multiplot` arranges plots into rows.
:class:`ScreenGeometry` expresses the paper's width model: every bar has
unit width and plot *i* has base width ``W_i`` (driven by its title), with
each row's total width bounded by the screen width ``W``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, KeysView

from repro.errors import PlanningError
from repro.nlq.templates import QueryTemplate
from repro.sqldb.query import AggregateQuery


@dataclass(frozen=True)
class Bar:
    """One query result inside a plot."""

    query: AggregateQuery
    probability: float
    label: str
    highlighted: bool = False
    value: float | None = None

    def with_value(self, value: float | None) -> "Bar":
        return replace(self, value=value)


@dataclass(frozen=True)
class Plot:
    """A query-group plot: a template (title) plus bars (Definition 2)."""

    template: QueryTemplate
    bars: tuple[Bar, ...]

    def __post_init__(self) -> None:
        seen: set[AggregateQuery] = set()
        for bar in self.bars:
            if bar.query in seen:
                raise PlanningError(
                    f"plot shows query twice: {bar.query.to_sql()!r}")
            seen.add(bar.query)

    @property
    def title(self) -> str:
        return self.template.title()

    @property
    def num_bars(self) -> int:
        return len(self.bars)

    @property
    def num_highlighted(self) -> int:
        return sum(1 for bar in self.bars if bar.highlighted)

    @property
    def has_highlight(self) -> bool:
        return any(bar.highlighted for bar in self.bars)

    def queries(self) -> Iterator[AggregateQuery]:
        for bar in self.bars:
            yield bar.query

    def bar_for(self, query: AggregateQuery) -> Bar | None:
        for bar in self.bars:
            if bar.query == query:
                return bar
        return None

    def probability_mass(self) -> float:
        return sum(bar.probability for bar in self.bars)


@dataclass(frozen=True)
class Multiplot:
    """Plots structured into rows (Definition 3)."""

    rows: tuple[tuple[Plot, ...], ...]

    @classmethod
    def empty(cls, num_rows: int = 1) -> "Multiplot":
        return cls(tuple(() for _ in range(max(1, num_rows))))

    def plots(self) -> Iterator[Plot]:
        for row in self.rows:
            yield from row

    @property
    def num_plots(self) -> int:
        return sum(len(row) for row in self.rows)

    @property
    def num_bars(self) -> int:
        return sum(plot.num_bars for plot in self.plots())

    @property
    def num_highlighted_bars(self) -> int:
        return sum(plot.num_highlighted for plot in self.plots())

    @property
    def num_plots_with_highlight(self) -> int:
        return sum(1 for plot in self.plots() if plot.has_highlight)

    def bar_for(self, query: AggregateQuery) -> Bar | None:
        """The first bar showing *query*, or None."""
        for plot in self.plots():
            bar = plot.bar_for(query)
            if bar is not None:
                return bar
        return None

    def shows(self, query: AggregateQuery) -> bool:
        return self.bar_for(query) is not None

    def highlights(self, query: AggregateQuery) -> bool:
        bar = self.bar_for(query)
        return bar is not None and bar.highlighted

    def displayed_queries(self) -> KeysView[AggregateQuery]:
        """The distinct queries shown, in row-major bar order (first
        occurrence): a set-like view whose iteration order does not
        depend on string hashing, so plans built from it are the same
        in every process."""
        return dict.fromkeys(bar.query for plot in self.plots()
                             for bar in plot.bars).keys()

    def duplicate_queries(self) -> set[AggregateQuery]:
        """Queries shown in more than one plot (targets of the polish
        step)."""
        seen: set[AggregateQuery] = set()
        duplicates: set[AggregateQuery] = set()
        for plot in self.plots():
            for bar in plot.bars:
                if bar.query in seen:
                    duplicates.add(bar.query)
                seen.add(bar.query)
        return duplicates


@dataclass(frozen=True)
class ScreenGeometry:
    """The paper's dimension constraints, in pixel terms.

    Following Section 5.2, widths are normalised so a bar has width one:
    ``width_units`` is the per-row budget ``W``; ``plot_base_units`` is a
    plot's ``W_i`` (title text plus padding, independent of bar count).
    Plot heights are equal and the row count is fixed, so no vertical
    constraint is needed.
    """

    width_pixels: int = 1125          # iPhone-class default, as in Sec. 9.2
    num_rows: int = 1
    bar_width_pixels: int = 60
    char_width_pixels: int = 7
    plot_padding_pixels: int = 30
    row_height_pixels: int = 260

    def __post_init__(self) -> None:
        if self.width_pixels <= 0 or self.num_rows <= 0:
            raise PlanningError("screen dimensions must be positive")
        if self.bar_width_pixels <= 0:
            raise PlanningError("bar width must be positive")

    @property
    def width_units(self) -> float:
        """Row width budget W, in bar-width units."""
        return self.width_pixels / self.bar_width_pixels

    def plot_base_units(self, template: QueryTemplate) -> float:
        """W_i: the plot's width before any bars, in bar-width units."""
        return self.title_units(template.title())

    def title_units(self, title: str) -> float:
        """W_i of a plot titled *title* (what :meth:`plot_base_units`
        computes once the title is rendered)."""
        title_pixels = len(title) * self.char_width_pixels
        base_pixels = max(title_pixels, self.bar_width_pixels)
        return (base_pixels + self.plot_padding_pixels) / self.bar_width_pixels

    def plot_units(self, plot: Plot) -> float:
        """Total width of *plot* (base plus one unit per bar)."""
        return self.plot_base_units(plot.template) + plot.num_bars

    def max_bars(self, template: QueryTemplate) -> int:
        """How many bars a single plot of this template could ever hold."""
        return self.bar_capacity(self.plot_base_units(template))

    def bar_capacity(self, base_units: float) -> int:
        """How many bars fit in one row beside a base of *base_units*."""
        return max(0, int(self.width_units - base_units))

    def row_units_used(self, row: tuple[Plot, ...]) -> float:
        return sum(self.plot_units(plot) for plot in row)

    def fits(self, multiplot: Multiplot) -> bool:
        """True when the multiplot satisfies all dimension constraints."""
        if len(multiplot.rows) > self.num_rows:
            return False
        epsilon = 1e-9
        return all(self.row_units_used(row) <= self.width_units + epsilon
                   for row in multiplot.rows)
