"""The integer-programming multiplot solver (Section 5 of the paper).

* :mod:`repro.core.ilp.modeling` — a small 0/1 MILP modeling layer (the
  Gurobi-API substitute): variables, linear expressions, constraints, and
  automatic linearisation of binary-variable products.
* :mod:`repro.core.ilp.highs` — backend solving models with scipy's HiGHS
  (``scipy.optimize.milp``), with timeout support.
* :mod:`repro.core.ilp.bnb` — a from-scratch branch-and-bound backend over
  LP relaxations (``scipy.optimize.linprog``), removing even the HiGHS MIP
  dependency and giving deterministic timeout semantics.
* :mod:`repro.core.ilp.translate` — the Section 5 formulation (decision
  variables, constraints, objective) plus the Section 8.1 processing-cost
  extension, and extraction of the resulting multiplot.
* :mod:`repro.core.ilp.rowsearch` — the exact combinatorial search that
  solves one-row problems without a MILP (template-set bounds and
  assignment solves).
* :mod:`repro.core.ilp.incremental` — Section 5.4 incremental optimisation
  with exponentially growing timeouts.

The scipy solvers are imported where they are called, so a process that
only plans greedily never loads them; :func:`load_backends` loads them
ahead of the first solve.
"""

from repro.core.ilp.incremental import incremental_solve
from repro.core.ilp.translate import IlpSolution, IlpSolver, ProcessingGroup

__all__ = ["IlpSolution", "IlpSolver", "ProcessingGroup",
           "incremental_solve", "load_backends"]


def load_backends() -> None:
    """Import ``scipy.optimize`` and ``scipy.sparse`` now (about 0.5 s
    and 45 MB), so that the first ILP solve does not pay for them."""
    import scipy.optimize  # noqa: F401
    import scipy.sparse  # noqa: F401
