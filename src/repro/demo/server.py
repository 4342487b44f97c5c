"""The demo HTTP server (standard library only).

Endpoints:

* ``GET /`` — the single-page UI.
* ``GET /api/schema`` — table name and columns (for autocomplete/help).
* ``GET /api/stats`` — cache hit/miss counters of the serving path.
* ``GET /api/metrics`` — the process metrics registry: JSON snapshot by
  default, the Prometheus text exposition format with
  ``?format=prometheus``.
* ``GET /api/traces`` — the most recent request traces from the ring
  buffer (``?n=`` limits, ``?format=jsonl`` emits one trace per line).
* ``GET /api/slo`` — burn-rate report of the serving objectives
  (latency, error rate, truth coverage) over the fast/slow windows.
* ``GET /api/workload`` — what the traffic asks: top query templates
  and vocabulary probes from the sliding-window sketches (``?n=``
  limits).
* ``GET /api/quality`` — the ``quality_*`` instrument family distilled
  (coverage, costs, optimality gap, intended-query outcomes).
* ``GET /dashboard`` — the three reports above plus cache stats as one
  server-rendered HTML page (no JS; refresh to update).
* ``POST /api/ask`` — body ``{"question": str, "voice": bool,
  "trend": bool}``; returns transcript, seed SQL, planner info, the
  candidate distribution, the rendered SVG and the terminal rendering.
  With ``?trace=1`` (or ``"trace": true`` in the body) the response also
  carries the full span tree of its own execution under ``"trace"``;
  traced requests bypass the response cache so the tree reflects real
  pipeline work.  With ``?deadline_ms=`` (or ``"deadline_ms"`` in the
  body) the ask runs under that latency budget and may answer degraded
  (``"degraded": true`` plus the ``"degradations"`` events).  Error
  responses carry a machine-readable ``error_type``; when more than
  ``max_inflight`` asks are in flight, new ones are shed with 429 +
  ``Retry-After``.

The server runs on a background thread (``ThreadingHTTPServer``) and
handles requests **concurrently**: the MUVE pipeline is thread-safe
(randomness is derived per call, lazy caches are locked, planner and
executor hold no per-request state), so no server-wide lock is needed.
Answers are additionally memoised in a response cache keyed on
``(question, voice, trend)`` — the pipeline is deterministic per question,
so a repeated question is served straight from memory.  Only undegraded
answers are stored (whatever the request's deadline), and under an
active fault plan the cache is bypassed.

Every request — including ones that fail — is measured into the metrics
registry (``http_request_ms``, ``http_requests``, ``errors``), and with
``access_log=True`` each is also written as one JSON line (method, path,
status, duration) to the configured stream.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.caching import LruCache
from repro.demo.page import PAGE, render_dashboard
from repro.errors import OverloadedError, ReproError
from repro.muve import Muve
from repro.observability import (
    StructuredLogger,
    get_trace_log,
    get_workload_analytics,
    quality_summary,
    trace_span,
)
from repro.resilience import AdmissionController, deadline_scope
from repro.testing.faults import active_fault_plan

#: The single route table: ``(method, path) -> Handler method name``.
#: Adding an endpoint here is the only registration needed —
#: ``_KNOWN_PATHS`` (the ``path`` label set of the HTTP metrics) is
#: derived from it, so the dispatch and the metric labels can never
#: drift apart.
_ROUTES: dict[tuple[str, str], str] = {
    ("GET", "/"): "_get_index",
    ("GET", "/dashboard"): "_get_dashboard",
    ("GET", "/api/schema"): "_get_schema",
    ("GET", "/api/stats"): "_get_stats",
    ("GET", "/api/metrics"): "_get_metrics",
    ("GET", "/api/traces"): "_get_traces",
    ("GET", "/api/slo"): "_get_slo",
    ("GET", "/api/workload"): "_get_workload",
    ("GET", "/api/quality"): "_get_quality",
    ("POST", "/api/ask"): "_post_ask",
}

#: Paths that become the ``path`` label on HTTP metrics.  Everything else
#: is folded into ``other`` so typo-scanning traffic cannot blow up the
#: label cardinality.
_KNOWN_PATHS = tuple(sorted({path for _, path in _ROUTES}))


class _DemoHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer with a listen backlog sized for bursts.

    The stdlib default backlog of 5 resets connections at the TCP layer
    under a concurrent burst, before the admission controller ever sees
    them.  Overload policy belongs to :class:`AdmissionController` (a
    typed 429 + ``Retry-After``), so the accept queue is sized to pass
    bursts through to it.
    """

    request_queue_size = 128


class MuveDemoServer:
    """Serves one :class:`Muve` instance to a browser.

    ``access_log=True`` enables structured access logging (one JSON line
    per request to ``access_log_stream``, default stderr); it is off by
    default so tests and the REPL stay quiet.
    """

    def __init__(self, muve: Muve, host: str = "127.0.0.1",
                 port: int = 0,
                 response_cache_size: int = 128,
                 access_log: bool = False,
                 access_log_stream=None,
                 max_inflight: int = 32,
                 retry_after_seconds: float = 1.0) -> None:
        self.muve = muve
        self.metrics = muve.metrics
        self.access_log = StructuredLogger(stream=access_log_stream,
                                           enabled=access_log)
        self._responses = LruCache(response_cache_size)
        #: Load shedding for ``POST /api/ask``: at most ``max_inflight``
        #: pipeline runs at once; excess requests are rejected
        #: immediately with 429 + ``Retry-After`` rather than queued
        #: (queuing under overload only grows the latency of every
        #: request behind the queue).
        self.admission = AdmissionController(
            max_inflight, retry_after_seconds=retry_after_seconds,
            metrics=self.metrics)
        handler = _make_handler(self)
        self._http = _DemoHTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self._http.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}/"

    def start(self) -> None:
        """Serve on a daemon thread; returns immediately."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._http.serve_forever,
                                        daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:  # pragma: no cover - interactive
        self._http.serve_forever()

    def shutdown(self) -> None:
        self._http.shutdown()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # ------------------------------------------------------------------

    def handle_ask(self, payload: dict,
                   want_trace: bool = False,
                   deadline_ms: float | None = None) -> dict:
        question = str(payload.get("question", "")).strip()
        if not question:
            raise ReproError("empty question")
        voice = bool(payload.get("voice", False))
        trend = bool(payload.get("trend", False))
        if deadline_ms is None:
            deadline_ms = _parse_deadline_ms(payload.get("deadline_ms"))
        with deadline_scope(deadline_ms):
            if want_trace or payload.get("trace"):
                return self._answer_traced(question, voice, trend)
            if active_fault_plan() is not None:
                # Injected faults fire regardless of cache warmth.
                return self._answer(question, voice, trend)
            key = (question, voice, trend)
            result = self._responses.get(key)
            if result is None:
                result = self._answer(question, voice, trend)
                # A degraded answer is never stored, or a later
                # pressure-free ask of the same question would be served
                # the shrunk multiplot from memory.
                if not result["degraded"]:
                    self._responses.put(key, result)
            return result

    def _answer_traced(self, question: str, voice: bool,
                       trend: bool) -> dict:
        """Answer under a root ``request`` span and attach its tree.

        Bypasses the response cache: a cached answer would produce an
        empty trace, and the whole point of ``?trace=1`` is to see where
        the time of a real pipeline run goes.
        """
        with trace_span("request", path="/api/ask") as root:
            root.set_attribute("question", question)
            result = dict(self._answer(question, voice, trend))
        # Identify our trace in the ring buffer by root-span identity; a
        # concurrent traced request may have appended after ours, so scan
        # a small tail window rather than only the newest entry.
        for trace in reversed(get_trace_log().tail(16)):
            if trace.root is root:
                result["trace"] = trace.to_dict()
                break
        return result

    def _answer(self, question: str, voice: bool, trend: bool) -> dict:
        if trend:
            response = self.muve.ask_trend(question)
            return {
                "transcript": response.transcript,
                "seed_sql": (f"{response.seed_query.to_sql()} "
                             f"BY {response.x_column}"),
                "planner": "series planner (cardinality greedy)",
                "candidates": [
                    {"sql": c.query.to_sql(),
                     "probability": c.probability}
                    for c in response.candidates],
                "svg": self._render_svg(response),
                "text": self._render_text(response),
                "degraded": response.degraded,
                "degradations": [event.to_dict()
                                 for event in response.degradations],
                "quality": (response.quality.to_dict()
                            if response.quality else None),
            }
        if voice:
            response = self.muve.ask_voice(question)
        else:
            response = self.muve.ask(question)
        planning = response.planning
        return {
            "transcript": response.transcript,
            "seed_sql": response.seed_query.to_sql(),
            "planner": (f"{planning.solver_name}, expected "
                        f"{planning.expected_cost:.0f} ms, planned in "
                        f"{planning.elapsed_seconds * 1000:.0f} ms"),
            "candidates": [
                {"sql": c.query.to_sql(), "probability": c.probability}
                for c in response.candidates],
            "svg": self._render_svg(response),
            "text": self._render_text(response),
            "degraded": response.degraded,
            "degradations": [event.to_dict()
                             for event in response.degradations],
            "quality": (response.quality.to_dict()
                        if response.quality else None),
        }

    def _render_svg(self, response) -> str:
        with trace_span("render.svg") as span:
            svg = response.to_svg()
            span.set_attribute("bytes", len(svg))
            return svg

    def _render_text(self, response) -> str:
        with trace_span("render.text") as span:
            text = response.to_text()
            span.set_attribute("bytes", len(text))
            return text

    def handle_schema(self) -> dict:
        table = self.muve.database.table(self.muve.table_name)
        return {
            "table": self.muve.table_name,
            "rows": table.num_rows,
            "columns": [
                {"name": column.name, "type": column.dtype.value}
                for column in table.schema.columns],
        }

    def handle_slo(self) -> dict:
        return self.muve.slo.report()

    def handle_workload(self, limit: int = 20) -> dict:
        return get_workload_analytics().report(limit)

    def handle_quality(self) -> dict:
        return quality_summary(self.metrics)

    def handle_dashboard(self) -> str:
        """The server-rendered observability page (``GET /dashboard``)."""
        return render_dashboard(
            slo=self.handle_slo(),
            quality=self.handle_quality(),
            workload=self.handle_workload(),
            stats=self.handle_stats(),
        )

    def handle_stats(self) -> dict:
        snapshot = self._responses.stats
        stats = {
            "responses": {
                "hits": snapshot.hits, "misses": snapshot.misses,
                "evictions": snapshot.evictions, "size": snapshot.size,
                "hit_rate": snapshot.hit_rate},
        }
        stats.update(self.muve.cache_stats())
        from repro.phonetics.index import phonetic_stats
        from repro.sqldb.index import index_stats
        stats["phonetics"] = phonetic_stats()
        stats["indexes"] = index_stats()
        return stats


def _parse_deadline_ms(raw) -> float | None:
    """Validate a deadline from a query param or JSON body field."""
    if raw is None or raw == "":
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ReproError(
            f"deadline_ms must be a number, got {raw!r}") from None
    if value <= 0:
        raise ReproError(
            f"deadline_ms must be positive, got {value}")
    return value


def _make_handler(server: MuveDemoServer):
    class Handler(BaseHTTPRequestHandler):
        _status: int = 0

        def log_message(self, *args) -> None:
            # The default hostname-resolving stderr log is replaced by
            # the structured access log written in _handle().
            pass

        def _send(self, status: int, body: bytes,
                  content_type: str,
                  headers: dict[str, str] | None = None) -> None:
            self._status = status
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, status: int, payload: dict,
                       headers: dict[str, str] | None = None) -> None:
            self._send(status, json.dumps(payload).encode("utf-8"),
                       "application/json; charset=utf-8",
                       headers=headers)

        def _send_text(self, status: int, text: str) -> None:
            self._send(status, text.encode("utf-8"),
                       "text/plain; charset=utf-8")

        # --------------------------------------------------------------

        def _handle(self, method: str) -> None:
            """Run one request with timing, metrics and error mapping.

            Dispatch is table-driven: the ``_ROUTES`` entry for
            ``(method, path)`` names the handler method; no entry means
            404.  Every error response carries a machine-readable
            ``error_type`` (the exception class name) next to the
            human-readable ``error`` message, and increments the typed
            ``errors`` counter.  :class:`OverloadedError` (load
            shedding) maps to 429 with a ``Retry-After`` header; other
            domain errors (:class:`ReproError`) map to 400; anything
            else maps to a 500 JSON error (never a stack trace down a
            closed socket).
            """
            path = urlsplit(self.path).path
            if path == "/index.html":
                path = "/"
            label = path if path in _KNOWN_PATHS else "other"
            started = time.perf_counter()
            try:
                handler_name = _ROUTES.get((method, path))
                if handler_name is None:
                    self._send_json(404, {"error": "not found",
                                          "error_type": "NotFound"})
                else:
                    getattr(self, handler_name)()
            except OverloadedError as exc:
                server.metrics.counter(
                    "errors", where="http",
                    type=type(exc).__name__).inc()
                self._send_json(
                    429,
                    {"error": str(exc),
                     "error_type": type(exc).__name__,
                     "retry_after_seconds": exc.retry_after_seconds},
                    headers={"Retry-After":
                             f"{exc.retry_after_seconds:.0f}"})
            except ReproError as exc:
                server.metrics.counter(
                    "errors", where="http",
                    type=type(exc).__name__).inc()
                self._send_json(400, {"error": str(exc),
                                      "error_type": type(exc).__name__})
            except BrokenPipeError:  # pragma: no cover - client gone
                self._status = self._status or 499
            except Exception as exc:
                server.metrics.counter(
                    "errors", where="http",
                    type=type(exc).__name__).inc()
                self._send_json(500, {
                    "error": f"internal error: {type(exc).__name__}: "
                             f"{exc}",
                    "error_type": type(exc).__name__})
            duration_ms = (time.perf_counter() - started) * 1000.0
            server.metrics.histogram(
                "http_request_ms", method=method, path=label,
            ).observe(duration_ms)
            server.metrics.counter(
                "http_requests", method=method, path=label,
                status=str(self._status)).inc()
            server.access_log.log(
                "http_request", method=method, path=self.path,
                status=self._status, duration_ms=round(duration_ms, 3))

        def _query(self) -> dict[str, list[str]]:
            return parse_qs(urlsplit(self.path).query)

        def _limit(self, default: int = 20) -> int:
            """The ``?n=`` result-count parameter, validated."""
            try:
                return int(self._query().get("n", [str(default)])[-1])
            except ValueError:
                raise ReproError("?n= must be an integer") from None

        def _send_html(self, status: int, html: str) -> None:
            self._send(status, html.encode("utf-8"),
                       "text/html; charset=utf-8")

        def _get_index(self) -> None:
            self._send_html(200, PAGE)

        def _get_dashboard(self) -> None:
            self._send_html(200, server.handle_dashboard())

        def _get_schema(self) -> None:
            self._send_json(200, server.handle_schema())

        def _get_stats(self) -> None:
            self._send_json(200, server.handle_stats())

        def _get_slo(self) -> None:
            self._send_json(200, server.handle_slo())

        def _get_workload(self) -> None:
            self._send_json(200, server.handle_workload(self._limit()))

        def _get_quality(self) -> None:
            self._send_json(200, server.handle_quality())

        def _get_metrics(self) -> None:
            query = self._query()
            if query.get("format", [""])[-1] == "prometheus":
                self._send_text(
                    200, server.metrics.render_prometheus())
            else:
                self._send_json(200, server.metrics.snapshot())

        def _get_traces(self) -> None:
            query = self._query()
            limit = self._limit()
            log = get_trace_log()
            if query.get("format", [""])[-1] == "jsonl":
                self._send_text(200, log.to_jsonl(limit))
            else:
                self._send_json(200, {
                    "traces": [trace.to_dict()
                               for trace in log.tail(limit)]})

        def _post_ask(self) -> None:
            length = int(self.headers.get("Content-Length", "0"))
            raw = self.rfile.read(length) if length else b"{}"
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                self._send_json(400, {"error": "invalid JSON body",
                                      "error_type": "ReproError"})
                return
            query = self._query()
            want_trace = query.get(
                "trace", ["0"])[-1] not in ("", "0", "false")
            deadline_ms = _parse_deadline_ms(
                query.get("deadline_ms", [""])[-1])
            with server.admission.admit():
                result = server.handle_ask(payload,
                                           want_trace=want_trace,
                                           deadline_ms=deadline_ms)
            self._send_json(200, result)

        def do_GET(self) -> None:
            self._handle("GET")

        def do_POST(self) -> None:
            self._handle("POST")

    return Handler
