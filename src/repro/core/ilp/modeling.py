"""A compact 0/1 MILP modeling layer (the Gurobi-API substitute).

Supports binary and bounded continuous variables, linear expressions,
``<=``/``>=``/``==`` constraints, a linear objective, and
:meth:`Model.product` — the standard linearisation of a product of two
binary variables (``y <= x1``, ``y <= x2``, ``y >= x1 + x2 - 1``) that
Section 5.3 of the paper leans on.  Models compile to the matrix form
consumed by the backends in :mod:`repro.core.ilp.highs` and
:mod:`repro.core.ilp.bnb`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SolverError

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from scipy import sparse


@dataclass(frozen=True)
class Variable:
    """Handle to a model variable (identified by its column index)."""

    index: int
    name: str
    is_integer: bool
    lower: float
    upper: float


class LinExpr:
    """A linear expression: coefficient map over variables plus a constant."""

    __slots__ = ("coefficients", "constant")

    def __init__(self, coefficients: dict[int, float] | None = None,
                 constant: float = 0.0) -> None:
        self.coefficients = coefficients or {}
        self.constant = constant

    @classmethod
    def of(cls, variable: Variable, coefficient: float = 1.0) -> "LinExpr":
        return cls({variable.index: coefficient})

    def add_term(self, variable: Variable, coefficient: float) -> "LinExpr":
        if coefficient:
            self.coefficients[variable.index] = (
                self.coefficients.get(variable.index, 0.0) + coefficient)
        return self

    def add(self, other: "LinExpr", scale: float = 1.0) -> "LinExpr":
        for index, coefficient in other.coefficients.items():
            self.coefficients[index] = (self.coefficients.get(index, 0.0)
                                        + scale * coefficient)
        self.constant += scale * other.constant
        return self

    def add_constant(self, value: float) -> "LinExpr":
        self.constant += value
        return self

    def value(self, assignment: np.ndarray) -> float:
        return self.constant + sum(
            coefficient * assignment[index]
            for index, coefficient in self.coefficients.items())


@dataclass(frozen=True)
class Constraint:
    """``expr <sense> 0`` with sense in {"<=", ">=", "=="} (the constant is
    folded into the expression)."""

    expr: LinExpr
    sense: str
    name: str = ""


@dataclass
class CompiledModel:
    """Matrix form: minimise ``c @ x`` s.t. ``A_ub x <= b_ub``,
    ``A_eq x == b_eq`` (sparse CSR matrices), bounds, integrality flags."""

    c: np.ndarray
    a_ub: sparse.csr_array
    b_ub: np.ndarray
    a_eq: sparse.csr_array
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    objective_constant: float
    variable_names: list[str]


class Model:
    """Incremental MILP builder."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._variables: list[Variable] = []
        self._constraints: list[Constraint] = []
        self._objective = LinExpr()
        self._minimize = True
        self._product_cache: dict[tuple[int, int], Variable] = {}

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    def binary(self, name: str) -> Variable:
        variable = Variable(len(self._variables), name, True, 0.0, 1.0)
        self._variables.append(variable)
        return variable

    def continuous(self, name: str, lower: float = 0.0,
                   upper: float = 1.0) -> Variable:
        if lower > upper:
            raise SolverError(f"variable {name!r} has empty domain")
        variable = Variable(len(self._variables), name, False, lower, upper)
        self._variables.append(variable)
        return variable

    def product(self, x1: Variable, x2: Variable) -> Variable:
        """A variable equal to ``x1 * x2`` for binary inputs (cached).

        Linearised per Section 5.3: ``y <= x1``, ``y <= x2``,
        ``y >= x1 + x2 - 1`` with ``y in [0, 1]`` (continuous suffices —
        the constraints force integrality at binary corners).
        """
        if x1.index == x2.index:
            return x1
        key = (min(x1.index, x2.index), max(x1.index, x2.index))
        cached = self._product_cache.get(key)
        if cached is not None:
            return cached
        y = self.continuous(f"prod[{x1.name},{x2.name}]")
        self.add_le(LinExpr({y.index: 1.0, x1.index: -1.0}))
        self.add_le(LinExpr({y.index: 1.0, x2.index: -1.0}))
        self.add_le(LinExpr({y.index: -1.0, x1.index: 1.0, x2.index: 1.0},
                            constant=-1.0))
        self._product_cache[key] = y
        return y

    # ------------------------------------------------------------------
    # Constraints / objective
    # ------------------------------------------------------------------

    def add_le(self, expr: LinExpr, name: str = "") -> None:
        """Add ``expr <= 0``."""
        self._constraints.append(Constraint(expr, "<=", name))

    def add_ge(self, expr: LinExpr, name: str = "") -> None:
        """Add ``expr >= 0``."""
        self._constraints.append(Constraint(expr, ">=", name))

    def add_eq(self, expr: LinExpr, name: str = "") -> None:
        """Add ``expr == 0``."""
        self._constraints.append(Constraint(expr, "==", name))

    def minimize(self, expr: LinExpr) -> None:
        self._objective = expr
        self._minimize = True

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def compile(self) -> CompiledModel:
        n = len(self._variables)
        c = np.zeros(n)
        for index, coefficient in self._objective.coefficients.items():
            c[index] = coefficient

        ub_rows: list[tuple[dict[int, float], float, float]] = []
        eq_rows: list[tuple[dict[int, float], float, float]] = []
        for constraint in self._constraints:
            bound = -constraint.expr.constant
            if constraint.sense == "<=":
                ub_rows.append((constraint.expr.coefficients, 1.0, bound))
            elif constraint.sense == ">=":
                ub_rows.append((constraint.expr.coefficients, -1.0, -bound))
            else:
                eq_rows.append((constraint.expr.coefficients, 1.0, bound))
        a_ub, b_ub = _sparse_rows(ub_rows, n)
        a_eq, b_eq = _sparse_rows(eq_rows, n)

        return CompiledModel(
            c=c,
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=a_eq,
            b_eq=b_eq,
            lower=np.array([v.lower for v in self._variables]),
            upper=np.array([v.upper for v in self._variables]),
            integrality=np.array([1 if v.is_integer else 0
                                  for v in self._variables]),
            objective_constant=self._objective.constant,
            variable_names=[v.name for v in self._variables],
        )


def _sparse_rows(rows: list[tuple[dict[int, float], float, float]],
                 num_columns: int) -> tuple[sparse.csr_array, np.ndarray]:
    """CSR matrix and right-hand side of ``(coefficients, sign, bound)``
    rows; the models are sparse, and a dense matrix dominates their build
    time once they reach a few thousand columns."""
    from scipy import sparse
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    bounds = np.zeros(len(rows))
    for row, (coefficients, sign, bound) in enumerate(rows):
        indices.extend(coefficients)
        data.extend(sign * value for value in coefficients.values())
        indptr.append(len(indices))
        bounds[row] = bound
    matrix = sparse.csr_array(
        (np.array(data, dtype=float), np.array(indices, dtype=np.int64),
         np.array(indptr, dtype=np.int64)),
        shape=(len(rows), num_columns))
    return matrix, bounds


@dataclass(frozen=True)
class SolveResult:
    """Backend-independent solve outcome."""

    values: np.ndarray
    objective: float
    optimal: bool
    timed_out: bool
    elapsed_seconds: float

    def value_of(self, variable: Variable) -> float:
        return float(self.values[variable.index])

    def is_one(self, variable: Variable, tolerance: float = 0.5) -> bool:
        return self.value_of(variable) > tolerance
