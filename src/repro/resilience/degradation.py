"""The graceful-degradation ladder: typed events, per-request collection.

When a stage hits deadline pressure or fails, the serving path does not
abort the request — it falls one rung down a fixed ladder and records a
:class:`DegradationEvent` describing what was given up:

========================  =========================  ====================
site                      action                     replaces
========================  =========================  ====================
``speech``                ``identity_transcript``    simulated recognition
``phonetics``             ``alternatives_skipped``   per-element lookup
``candidates``            ``seed_only`` /            full candidate set
                          ``top_m``
``planner``               ``ilp_to_greedy``          ILP / best planning
``planner``               ``ilp_budget_cut``         the row search's budget
``executor``              ``batch_to_per_group``     the plan's first run
``executor``              ``single_plot``            full multiplot
========================  =========================  ====================

``batch_to_per_group`` re-runs the plan through the same group loop
(:func:`repro.execution.batch.run_plan`) after a transient failure:
serially, each group through ``Database.execute``, with bit-identical
values.

Events are appended to a contextvar-scoped collector opened per request
(:func:`degradation_scope`), attached to the outgoing
:class:`~repro.muve.MuveResponse`, counted in the default metrics
registry (``resilience_degraded{site=...,action=...}``), and emitted as
zero-work ``resilience.degrade`` spans so traces show exactly where a
request fell down the ladder.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.observability import get_registry, trace_span

__all__ = [
    "CANDIDATE_PRESSURE_FRACTION",
    "DegradationEvent",
    "EXECUTION_PRESSURE_FRACTION",
    "current_degradations",
    "degradation_scope",
    "exception_reason",
    "record_degradation",
]

#: Truncate the candidate set to top-m when less than this fraction of
#: the deadline budget remains after candidate generation.
CANDIDATE_PRESSURE_FRACTION = 0.5

#: Shrink to the single best plot when less than this fraction of the
#: budget remains at execution time (or the deadline already expired).
EXECUTION_PRESSURE_FRACTION = 0.15


@dataclass(frozen=True)
class DegradationEvent:
    """One rung taken on the degradation ladder for one request."""

    site: str    #: pipeline stage ("planner", "executor", ...)
    action: str  #: the rung taken ("ilp_to_greedy", "single_plot", ...)
    reason: str  #: what forced it ("deadline", "error:FaultError", ...)
    detail: str = ""  #: free-form context ("20 -> 5 candidates")

    def to_dict(self) -> dict[str, str]:
        return {"site": self.site, "action": self.action,
                "reason": self.reason, "detail": self.detail}


_EVENTS: contextvars.ContextVar[list[DegradationEvent] | None] = \
    contextvars.ContextVar("muve_degradations", default=None)


@contextmanager
def degradation_scope() -> Iterator[list[DegradationEvent]]:
    """Collect degradation events for one request.

    Nested scopes are independent (inner events do not leak outward):
    each ask owns exactly the events of its own pipeline run.
    """
    events: list[DegradationEvent] = []
    token = _EVENTS.set(events)
    try:
        yield events
    finally:
        _EVENTS.reset(token)


def current_degradations() -> tuple[DegradationEvent, ...]:
    """Events recorded so far in the active request scope."""
    events = _EVENTS.get()
    return tuple(events) if events else ()


def record_degradation(site: str, action: str, reason: str,
                       detail: str = "") -> DegradationEvent:
    """Record one ladder step: collector + metrics + a marker span.

    Safe to call without an active scope (e.g. a bare planner used
    outside the Muve pipeline): the event is still counted and traced,
    it just is not attached to any response.
    """
    event = DegradationEvent(site=site, action=action, reason=reason,
                             detail=detail)
    events = _EVENTS.get()
    if events is not None:
        events.append(event)
    get_registry().counter("resilience_degraded", site=site,
                           action=action).inc()
    with trace_span("resilience.degrade", site=site, action=action,
                    reason=reason):
        pass
    return event


def exception_reason(exc: BaseException) -> str:
    """The canonical ``reason`` string for an exception-driven rung."""
    from repro.errors import DeadlineExceeded
    if isinstance(exc, DeadlineExceeded):
        return "deadline"
    return f"error:{type(exc).__name__}"
