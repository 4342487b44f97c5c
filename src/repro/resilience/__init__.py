"""Resilience for the MUVE serving path: stay useful when things break.

Four building blocks, wired through the whole pipeline (see DESIGN.md,
"Resilience"):

* :mod:`repro.resilience.deadline` — per-request deadlines carried by
  contextvar (``MUVE_DEADLINE_MS`` / ``Muve(deadline_ms=)`` /
  ``POST /api/ask?deadline_ms=``), polled at stage boundaries.
* :mod:`repro.resilience.degradation` — the graceful-degradation
  ladder: on deadline pressure or stage failure fall ILP→greedy,
  batch→per-group, full candidates→top-m, multiplot→single best plot;
  every rung is a typed :class:`DegradationEvent` on the response and a
  ``resilience_degraded`` counter increment.
* :mod:`repro.resilience.admission` — bounded in-flight admission
  control for the demo server (429 + ``Retry-After`` when saturated).
* :mod:`repro.resilience.retry` — bounded deterministic-jitter retries
  for :class:`~repro.errors.TransientError` failures (used by
  :class:`~repro.session.MuveSession`).

The deterministic fault-injection harness driving the chaos tests lives
in :mod:`repro.testing.faults`.
"""

from repro.resilience.admission import AdmissionController
from repro.resilience.deadline import (
    Deadline,
    current_deadline,
    deadline_grace,
    deadline_scope,
    default_deadline_ms,
)
from repro.resilience.degradation import (
    CANDIDATE_PRESSURE_FRACTION,
    EXECUTION_PRESSURE_FRACTION,
    DegradationEvent,
    current_degradations,
    degradation_scope,
    exception_reason,
    record_degradation,
)
from repro.resilience.retry import backoff_ms, is_transient, retry_call

__all__ = [
    "AdmissionController",
    "CANDIDATE_PRESSURE_FRACTION",
    "Deadline",
    "DegradationEvent",
    "EXECUTION_PRESSURE_FRACTION",
    "backoff_ms",
    "current_deadline",
    "current_degradations",
    "deadline_grace",
    "deadline_scope",
    "default_deadline_ms",
    "degradation_scope",
    "exception_reason",
    "is_transient",
    "record_degradation",
    "retry_call",
]
