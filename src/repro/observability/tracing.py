"""Span-based request tracing (zero-dependency, contextvar-propagated).

One request produces one :class:`Trace`: a tree of :class:`Span` objects,
each timing a pipeline stage (speech, translation, candidate generation,
planning, execution, rendering) with free-form attributes (solver choice,
cache hits, rows scanned, cost-estimation error).  This is the
measurement substrate of the paper's evaluation — planning time vs.
execution time per request (Figures 8–13), now recorded on the live
serving path rather than in offline experiment harnesses.

Usage::

    with trace_span("planner.plan") as span:
        span.set_attribute("candidates", len(problem.candidates))
        ...

Propagation uses a :mod:`contextvars` variable, so concurrent requests on
different threads (the demo server, ``--load-test --workers``) build
disjoint trees — spans never leak across requests.  When a root span
(no active parent) finishes, its :class:`Trace` is appended to the global
:class:`TraceLog` ring buffer (``GET /api/traces``; capacity via
``MUVE_TRACE_LOG_SIZE``, default 256) and its duration is recorded into
the ``span_ms`` histogram family of the default metrics registry — with
the request's trace id as the bucket exemplar — which is what
``muve.cli --profile`` tabulates.

Tracing is **on by default** and globally disabled with the environment
variable ``MUVE_TRACING=off`` (or :func:`set_tracing_enabled`).  The
disabled path is a no-op: :func:`trace_span` yields a shared inert span
without allocating, timing, or touching the context variable — the
guarantee ``make profile`` measures.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator

from repro.flags import env_raw, env_switch

__all__ = [
    "DEFAULT_TRACE_LOG_CAPACITY",
    "Span",
    "Trace",
    "TraceLog",
    "current_span",
    "current_trace_id",
    "get_trace_log",
    "register_trace_log_metrics",
    "set_tracing_enabled",
    "trace_log_capacity_from_env",
    "trace_span",
    "tracing_enabled",
]


def _env_enabled() -> bool:
    return env_switch("MUVE_TRACING")


_enabled = _env_enabled()


def tracing_enabled() -> bool:
    return _enabled


def set_tracing_enabled(enabled: bool) -> None:
    """Toggle tracing process-wide (overrides ``MUVE_TRACING``)."""
    global _enabled
    _enabled = bool(enabled)


class Span:
    """One timed stage of a request, with attributes and child spans.

    A span records into whatever tree the current context is building;
    within one request the tree is built single-threaded, so no locking
    is needed on ``children``.
    """

    __slots__ = ("name", "attributes", "children", "status",
                 "duration_ms")

    #: Real spans record; the shared no-op span reports False so callers
    #: can skip building expensive attributes when tracing is off.
    recording = True

    def __init__(self, name: str,
                 attributes: dict[str, Any] | None = None) -> None:
        self.name = name
        self.attributes: dict[str, Any] = attributes or {}
        self.children: list[Span] = []
        self.status = "ok"
        self.duration_ms = 0.0

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def iter_spans(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 4),
            "status": self.status,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration_ms:.3f} ms, "
                f"{len(self.children)} child(ren))")


class _NoopSpan:
    """The inert span yielded when tracing is disabled (or no span is
    active): every operation is a cheap no-op."""

    __slots__ = ()
    recording = False
    name = ""
    status = "ok"
    duration_ms = 0.0
    attributes: dict[str, Any] = {}
    children: list[Span] = []

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def iter_spans(self) -> Iterator[Span]:
        return iter(())

    def to_dict(self) -> dict[str, Any]:
        return {}


NOOP_SPAN = _NoopSpan()

_CURRENT: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "muve_current_span", default=None)
_CURRENT_TRACE_ID: contextvars.ContextVar[str | None] = \
    contextvars.ContextVar("muve_current_trace_id", default=None)


def current_span() -> Span | _NoopSpan:
    """The innermost active span of this context (no-op span if none) —
    lets leaf code annotate whatever stage is running without plumbing."""
    if not _enabled:
        return NOOP_SPAN
    span = _CURRENT.get()
    return span if span is not None else NOOP_SPAN


def current_trace_id() -> str | None:
    """The trace id of the request this context is serving, assigned
    when its root span opened; ``None`` outside a trace (or with tracing
    off).  This is what histogram exemplars carry, linking a latency
    bucket back to its ``/api/traces`` entry."""
    if not _enabled:
        return None
    return _CURRENT_TRACE_ID.get()


class Trace:
    """A finished request: its root span plus identity and wall-clock."""

    __slots__ = ("trace_id", "started_at", "root")

    def __init__(self, trace_id: str, started_at: float,
                 root: Span) -> None:
        self.trace_id = trace_id
        self.started_at = started_at
        self.root = root

    @property
    def duration_ms(self) -> float:
        return self.root.duration_ms

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "started_at": round(self.started_at, 6),
            "duration_ms": round(self.root.duration_ms, 4),
            "root": self.root.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), default=str)


#: Default ring-buffer capacity; override process-wide with the
#: ``MUVE_TRACE_LOG_SIZE`` environment variable.
DEFAULT_TRACE_LOG_CAPACITY = 256


def trace_log_capacity_from_env() -> int:
    """The validated ``MUVE_TRACE_LOG_SIZE`` value (default 256).

    Raises :class:`ValueError` on a non-integer or non-positive setting
    — a silently ignored misconfiguration would leave an operator
    convinced they resized the buffer.
    """
    raw = (env_raw("MUVE_TRACE_LOG_SIZE") or "").strip()
    if not raw:
        return DEFAULT_TRACE_LOG_CAPACITY
    try:
        capacity = int(raw)
    except ValueError:
        raise ValueError(
            f"MUVE_TRACE_LOG_SIZE must be an integer, got {raw!r}"
        ) from None
    if capacity <= 0:
        raise ValueError(
            f"MUVE_TRACE_LOG_SIZE must be positive, got {capacity}")
    return capacity


class TraceLog:
    """A bounded ring buffer of recent traces (oldest evicted first)."""

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is None:
            capacity = trace_log_capacity_from_env()
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._traces: deque[Trace] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.capacity = capacity

    def append(self, trace: Trace) -> None:
        with self._lock:
            self._traces.append(trace)

    def evicted(self, trace_id: str) -> bool:
        """Whether *trace_id* is older than the oldest trace held.

        Trace ids are numbered in start order (``t%08d``), so an id
        below the oldest held one has been evicted; an id of another
        form, or any id while the buffer is empty, is not known to be.
        """
        try:
            oldest = self._traces[0].trace_id
        except IndexError:
            return False
        return len(trace_id) == len(oldest) and trace_id < oldest

    def tail(self, n: int = 20) -> list[Trace]:
        """The most recent *n* traces, oldest first."""
        with self._lock:
            items = list(self._traces)
        return items[-max(n, 0):]

    def to_jsonl(self, n: int | None = None) -> str:
        """The tail as JSON lines, one trace per line (export format)."""
        traces = self.tail(n if n is not None else self.capacity)
        return "\n".join(trace.to_json() for trace in traces)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


def _default_trace_log() -> TraceLog:
    """The process-wide log, built at import: a malformed
    ``MUVE_TRACE_LOG_SIZE`` must not make ``import repro`` impossible,
    so here (and only here) validation degrades to a warning."""
    try:
        return TraceLog()
    except ValueError as exc:
        import warnings
        warnings.warn(f"{exc}; using default capacity "
                      f"{DEFAULT_TRACE_LOG_CAPACITY}", stacklevel=1)
        return TraceLog(DEFAULT_TRACE_LOG_CAPACITY)


_TRACE_LOG = _default_trace_log()
_trace_ids = itertools.count(1)


def get_trace_log() -> TraceLog:
    """The process-wide ring buffer of finished request traces."""
    return _TRACE_LOG


def register_trace_log_metrics(registry=None) -> None:
    """Expose the global trace log as gauges: ``trace_log_entries``
    (current fill) and ``trace_log_capacity`` (configured size), pulled
    through callbacks at read time."""
    from repro.observability.metrics import get_registry
    registry = registry if registry is not None else get_registry()
    registry.register_gauge("trace_log_entries",
                            lambda: float(len(_TRACE_LOG)))
    registry.register_gauge("trace_log_capacity",
                            lambda: float(_TRACE_LOG.capacity))


@contextmanager
def trace_span(name: str, **attributes: Any):
    """Time a stage as a span nested under the context's current span.

    Yields the :class:`Span` (so callers can ``set_attribute``).  On
    exit the span is attached to its parent; a span without a parent is
    a request root — its finished :class:`Trace` goes to the global
    trace log.  An escaping exception marks the span ``status="error"``
    with the exception type and propagates.  Every finished span's
    duration is recorded in the ``span_ms{name=...}`` histogram of the
    default metrics registry.
    """
    if not _enabled:
        yield NOOP_SPAN
        return
    parent = _CURRENT.get()
    span = Span(name, dict(attributes) if attributes else None)
    started_at = time.time() if parent is None else 0.0
    id_token = None
    if parent is None:
        # The trace id is assigned when the root *opens* so every span
        # finishing inside the request (children finish first) can stamp
        # it onto its histogram exemplar.
        id_token = _CURRENT_TRACE_ID.set(f"t{next(_trace_ids):08d}")
    token = _CURRENT.set(span)
    begin = time.perf_counter()
    try:
        yield span
    except BaseException as exc:
        span.status = "error"
        span.attributes.setdefault("error_type", type(exc).__name__)
        raise
    finally:
        span.duration_ms = (time.perf_counter() - begin) * 1000.0
        _CURRENT.reset(token)
        trace_id = _CURRENT_TRACE_ID.get()
        if parent is None:
            _TRACE_LOG.append(Trace(trace_id, started_at, span))
        else:
            parent.children.append(span)
        _record_span_metrics(span, trace_id)
        if id_token is not None:
            _CURRENT_TRACE_ID.reset(id_token)


def _record_span_metrics(span: Span, trace_id: str | None) -> None:
    from repro.observability.metrics import get_registry
    get_registry().histogram("span_ms", name=span.name).observe(
        span.duration_ms, exemplar=trace_id)
