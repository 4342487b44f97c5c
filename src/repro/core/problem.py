"""Multiplot selection problem instances (Definition 5)."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.core.cost_model import UserCostModel
from repro.core.digest import ProblemDigest
from repro.core.model import Multiplot, ScreenGeometry
from repro.errors import PlanningError
from repro.nlq.candidates import CandidateQuery
from repro.nlq.templates import QueryTemplate, templates_of


@dataclass(frozen=True)
class MultiplotSelectionProblem:
    """Everything a solver needs: candidates, geometry, cost model."""

    candidates: tuple[CandidateQuery, ...]
    geometry: ScreenGeometry = field(default_factory=ScreenGeometry)
    cost_model: UserCostModel = field(default_factory=UserCostModel)

    def __post_init__(self) -> None:
        if not self.candidates:
            raise PlanningError("problem needs at least one candidate query")
        total = sum(c.probability for c in self.candidates)
        if total > 1.0 + 1e-6:
            raise PlanningError(
                f"candidate probabilities sum to {total:.4f} > 1")
        queries = {c.query for c in self.candidates}
        if len(queries) != len(self.candidates):
            raise PlanningError("duplicate candidate queries in problem")

    # ------------------------------------------------------------------

    @cached_property
    def digest(self) -> ProblemDigest:
        """The ranked candidates and their templates (the grouping step
        of Algorithm 2), built on first use and shared by every planner
        that reads this problem."""
        return ProblemDigest(self.candidates, self.geometry, templates_of)

    def templates(self) -> list[QueryTemplate]:
        """All templates instantiated by at least one candidate, in a
        deterministic order (these are the candidate plots' shapes)."""
        return list(self.digest.templates)

    def evaluate(self, multiplot: Multiplot) -> float:
        """Expected disambiguation cost of *multiplot* for this instance."""
        return self.cost_model.expected_cost(multiplot, self.candidates)

    def is_feasible(self, multiplot: Multiplot) -> bool:
        """Dimension constraints plus no-duplicate-results check."""
        if not self.geometry.fits(multiplot):
            return False
        if multiplot.duplicate_queries():
            return False
        known = {c.query for c in self.candidates}
        return all(bar.query in known
                   for plot in multiplot.plots() for bar in plot.bars)

    def probability_of(self, query) -> float:
        for candidate in self.candidates:
            if candidate.query == query:
                return candidate.probability
        return 0.0
