"""Exception hierarchy shared across the MUVE reproduction.

Every package raises subclasses of :class:`ReproError` so callers can catch
library failures without trapping unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SqlError(ReproError):
    """Base class for errors raised by the ``repro.sqldb`` engine."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class CatalogError(SqlError):
    """A referenced table or column does not exist, or a definition clashes."""


class TypeMismatchError(SqlError):
    """An expression combines operand types that are not compatible."""


class ExecutionError(SqlError):
    """A query failed while being evaluated."""


class NullAggregateError(ExecutionError):
    """An aggregate over zero qualifying rows has no value (SQL NULL).

    This is not a failure of the engine but a data condition: MUVE's
    execution plans report the affected query as missing/zero instead of
    erroring out.  Catching this subclass (rather than bare
    :class:`ExecutionError`) lets callers distinguish "empty result" from
    genuine execution bugs like a bad column reference.
    """


class PlanningError(ReproError):
    """Visualization planning failed (infeasible instance, bad dimensions)."""


class SolverError(ReproError):
    """A MILP backend failed to produce a usable solution."""


class ModelInfeasible(SolverError):
    """The MILP has no feasible assignment (proven, not timed out)."""


class SolverTimeout(SolverError):
    """The solver hit its deadline.

    The best incumbent found so far, if any, is attached so callers can
    still display a (possibly suboptimal) multiplot, mirroring the paper's
    behaviour under ILP timeouts.
    """

    def __init__(self, message: str, incumbent: object | None = None) -> None:
        super().__init__(message)
        self.incumbent = incumbent


class CandidateGenerationError(ReproError):
    """Text-to-multi-SQL could not derive candidate queries."""


class VisualizationError(ReproError):
    """A multiplot could not be rendered."""


class DeadlineExceeded(ReproError):
    """A per-request deadline expired before the request finished.

    Raised by :meth:`repro.resilience.Deadline.check` at the named
    pipeline site.  Stages that can degrade catch this and fall down the
    degradation ladder (see DESIGN.md, "Resilience"); it only escapes to
    the caller when even the cheapest degraded form of the request could
    not be produced.
    """

    def __init__(self, message: str, site: str = "") -> None:
        self.site = site
        super().__init__(message)


class TransientError(ReproError):
    """A failure that is expected to succeed if simply retried.

    The marker class the bounded retry policy
    (:func:`repro.resilience.retry_call`) keys on: only transient errors
    are retried, everything else propagates immediately.
    """


class OverloadedError(ReproError):
    """The server shed this request because too many are in flight.

    Maps to HTTP 429 with a ``Retry-After`` header (never 400/500): the
    request was not malformed and nothing is broken — the caller should
    back off and retry.
    """

    def __init__(self, message: str,
                 retry_after_seconds: float = 1.0) -> None:
        self.retry_after_seconds = retry_after_seconds
        super().__init__(message)
