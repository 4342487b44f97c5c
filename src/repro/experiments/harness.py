"""Result tables: collection, formatting, and persistence.

Every experiment returns an :class:`ExperimentTable`; the benchmark suite
prints it (reproducing the paper's rows/series) and saves it under the
git-ignored ``.benchmarks/results/`` so a full run leaves a reviewable
record (``benchmarks/results/`` holds the committed snapshot).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Sequence


@dataclass
class ExperimentTable:
    """A titled table of experiment results."""

    title: str
    columns: Sequence[str]
    rows: list[tuple[Any, ...]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> list[Any]:
        index = list(self.columns).index(name)
        return [row[index] for row in self.rows]

    # ------------------------------------------------------------------

    def render(self) -> str:
        """Fixed-width text rendering of the table."""
        header = [str(c) for c in self.columns]
        body = [[_format_cell(v) for v in row] for row in self.rows]
        widths = [len(h) for h in header]
        for row in body:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * min(len(self.title), 78)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w)
                                   for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def save(self, directory: str, name: str) -> str:
        """Write the rendered table under *directory*; returns the path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render() + "\n")
        return path


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)
