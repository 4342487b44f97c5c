"""MILP backend on scipy's HiGHS (``scipy.optimize.milp``)."""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core.ilp.modeling import CompiledModel, SolveResult
from repro.errors import ModelInfeasible, SolverError


def solve_with_highs(model: CompiledModel,
                     timeout_seconds: float | None = None,
                     mip_rel_gap: float = 1e-6) -> SolveResult:
    """Solve *model* with HiGHS; honours an optional wall-clock timeout.

    On timeout, HiGHS returns its incumbent when one exists; we surface it
    with ``timed_out=True`` (the paper's ILP "still produces a solution
    which is however not guaranteed to be optimal anymore").  Raises
    :class:`ModelInfeasible` when HiGHS proves no assignment exists and
    :class:`SolverError` when none is available for another reason.
    """
    constraints = []
    if model.a_ub.shape[0]:
        constraints.append(LinearConstraint(
            model.a_ub, -np.inf, model.b_ub))
    if model.a_eq.shape[0]:
        constraints.append(LinearConstraint(
            model.a_eq, model.b_eq, model.b_eq))
    options: dict[str, float] = {"mip_rel_gap": mip_rel_gap}
    if timeout_seconds is not None:
        options["time_limit"] = max(1e-3, timeout_seconds)

    start = time.perf_counter()
    result = milp(
        c=model.c,
        constraints=constraints or None,
        bounds=Bounds(model.lower, model.upper),
        integrality=model.integrality,
        options=options,
    )
    elapsed = time.perf_counter() - start

    timed_out = result.status == 1  # iteration/time limit reached
    if result.x is None:
        if result.status == 2:
            raise ModelInfeasible("HiGHS proved the model infeasible")
        if timed_out:
            raise SolverError(
                "HiGHS hit the time limit before finding any incumbent")
        raise SolverError(f"HiGHS failed: {result.message}")
    objective = float(result.fun) + model.objective_constant
    return SolveResult(
        values=np.asarray(result.x),
        objective=objective,
        optimal=result.status == 0,
        timed_out=timed_out,
        elapsed_seconds=elapsed,
    )
