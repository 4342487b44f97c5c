"""Admission control: bound concurrent work, shed the rest with 429.

A :class:`AdmissionController` caps how many requests may be in flight
at once.  When the cap is reached, :meth:`~AdmissionController.admit`
raises :class:`~repro.errors.OverloadedError` *immediately* — no
queueing — which the demo server maps to ``429 Too Many Requests`` with
a ``Retry-After`` header.  Shedding at the door keeps the latency of
admitted requests bounded under overload instead of letting every
request slow down together (``TestLoadShedding`` in
``tests/resilience/test_server_resilience.py`` enforces exactly this).

The in-flight count is exported as the live ``resilience_inflight``
gauge and each shed request increments ``resilience_shed``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from repro.errors import OverloadedError, ReproError
from repro.observability import MetricsRegistry, get_registry

__all__ = ["AdmissionController"]


class AdmissionController:
    """A thread-safe in-flight request limiter.

    Parameters
    ----------
    max_inflight:
        Hard cap on concurrently admitted requests.
    retry_after_seconds:
        The backoff hint attached to shed requests (the server turns it
        into a ``Retry-After`` header).
    metrics:
        Registry receiving the ``resilience_inflight`` gauge and the
        ``resilience_shed`` counter; defaults to the process registry.
    """

    def __init__(self, max_inflight: int,
                 retry_after_seconds: float = 1.0,
                 metrics: MetricsRegistry | None = None) -> None:
        if max_inflight <= 0:
            raise ReproError(
                f"max_inflight must be positive, got {max_inflight}")
        self.max_inflight = int(max_inflight)
        self.retry_after_seconds = float(retry_after_seconds)
        self._lock = threading.Lock()
        self._inflight = 0
        self._shed = 0
        self._metrics = metrics if metrics is not None else get_registry()
        self._metrics.register_gauge("resilience_inflight",
                                     lambda: float(self.inflight))

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def shed_total(self) -> int:
        """Requests rejected so far (mirrors the metrics counter)."""
        with self._lock:
            return self._shed

    def try_acquire(self) -> bool:
        """Claim a slot; False (without blocking) when saturated."""
        with self._lock:
            if self._inflight >= self.max_inflight:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        with self._lock:
            if self._inflight <= 0:  # pragma: no cover - misuse guard
                raise ReproError("release() without a matching acquire")
            self._inflight -= 1

    @contextmanager
    def admit(self) -> Iterator[None]:
        """Hold a slot for the block; shed with ``OverloadedError``."""
        if not self.try_acquire():
            with self._lock:
                self._shed += 1
            self._metrics.counter("resilience_shed").inc()
            raise OverloadedError(
                f"server saturated: {self.max_inflight} requests "
                f"already in flight",
                retry_after_seconds=self.retry_after_seconds)
        try:
            yield
        finally:
            self.release()
