"""Tests for the browser demo server."""

import concurrent.futures
import http.client
import io
import json
import time

import pytest

from repro import Database, Muve, ScreenGeometry, VisualizationPlanner
from repro.datasets import make_nyc311_table
from repro.demo import MuveDemoServer


@pytest.fixture(scope="module")
def server():
    db = Database(seed=0)
    db.register_table(make_nyc311_table(num_rows=2000, seed=5))
    muve = Muve(db, "nyc311", seed=1,
                geometry=ScreenGeometry(width_pixels=1400, num_rows=2),
                planner=VisualizationPlanner(strategy="greedy"))
    demo = MuveDemoServer(muve, port=0)
    demo.start()
    yield demo
    demo.shutdown()


def request(server, method, path, body=None):
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    headers = {}
    payload = None
    if body is not None:
        payload = json.dumps(body)
        headers["Content-Type"] = "application/json"
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    raw = response.read()
    connection.close()
    return response.status, raw


class TestPages:
    def test_index_served(self, server):
        status, raw = request(server, "GET", "/")
        assert status == 200
        assert b"MUVE" in raw
        assert b"<script>" in raw

    def test_unknown_path_404(self, server):
        status, raw = request(server, "GET", "/nope")
        assert status == 404

    def test_schema_endpoint(self, server):
        status, raw = request(server, "GET", "/api/schema")
        assert status == 200
        payload = json.loads(raw)
        assert payload["table"] == "nyc311"
        assert payload["rows"] == 2000
        names = {c["name"] for c in payload["columns"]}
        assert "borough" in names


class TestAsk:
    def test_basic_question(self, server):
        status, raw = request(server, "POST", "/api/ask", {
            "question": "average resolution hours for borough Brooklyn"})
        assert status == 200
        payload = json.loads(raw)
        assert payload["seed_sql"].startswith(
            "SELECT AVG(resolution_hours)")
        assert payload["svg"].startswith("<svg")
        assert payload["candidates"]
        total = sum(c["probability"] for c in payload["candidates"])
        assert total == pytest.approx(1.0)

    def test_voice_flag(self, server):
        status, raw = request(server, "POST", "/api/ask", {
            "question": "count of requests for borough Queens",
            "voice": True})
        assert status == 200
        payload = json.loads(raw)
        assert "transcript" in payload

    def test_empty_question_rejected(self, server):
        status, raw = request(server, "POST", "/api/ask",
                              {"question": "   "})
        assert status == 400
        assert "error" in json.loads(raw)

    def test_invalid_json_rejected(self, server):
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        connection.request("POST", "/api/ask", body=b"not json",
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 400
        connection.close()

    def test_post_to_unknown_path(self, server):
        status, raw = request(server, "POST", "/api/other",
                              {"question": "x"})
        assert status == 404

    def test_text_rendering_included(self, server):
        status, raw = request(server, "POST", "/api/ask", {
            "question": "maximum num calls for agency NYPD"})
        payload = json.loads(raw)
        assert "row 0" in payload["text"]


class TestParallelAsk:
    """The server answers concurrent requests without a global lock."""

    QUESTIONS = [
        {"question": "average resolution hours for borough Brooklyn"},
        {"question": "count of requests for borough Queens"},
        {"question": "maximum num calls for agency NYPD"},
        {"question": "average resolution hours for borough Bronx",
         "voice": True},
    ]

    def _bodies(self, count):
        return [self.QUESTIONS[i % len(self.QUESTIONS)]
                for i in range(count)]

    def test_16_simultaneous_asks_all_succeed(self, server):
        bodies = self._bodies(16)
        with concurrent.futures.ThreadPoolExecutor(
                max_workers=16) as pool:
            outcomes = list(pool.map(
                lambda body: request(server, "POST", "/api/ask", body),
                bodies))
        for status, raw in outcomes:
            assert status == 200
            payload = json.loads(raw)
            assert payload["svg"].startswith("<svg")
            assert payload["candidates"]
        # The server is still up and serving afterwards.
        status, _ = request(server, "GET", "/api/schema")
        assert status == 200

    def test_parallel_responses_byte_identical_to_serial(self, server):
        bodies = self._bodies(16)
        serial = [request(server, "POST", "/api/ask", body)[1]
                  for body in self.QUESTIONS]
        baseline = {json.dumps(body, sort_keys=True): raw
                    for body, raw in zip(self.QUESTIONS, serial)}
        with concurrent.futures.ThreadPoolExecutor(
                max_workers=16) as pool:
            outcomes = list(pool.map(
                lambda body: (body,
                              request(server, "POST", "/api/ask", body)),
                bodies))
        for body, (status, raw) in outcomes:
            assert status == 200
            assert raw == baseline[json.dumps(body, sort_keys=True)], (
                f"parallel answer for {body} differs byte-wise from the "
                "serial baseline")

    def test_stats_endpoint_reports_cache_hits(self, server):
        body = {"question": "count of requests for agency DOT"}
        for _ in range(2):
            status, _ = request(server, "POST", "/api/ask", body)
            assert status == 200
        status, raw = request(server, "GET", "/api/stats")
        assert status == 200
        stats = json.loads(raw)
        assert stats["responses"]["hits"] >= 1
        assert set(stats) >= {"responses", "query_results", "plans",
                              "statements", "plan_costs",
                              "batch_executor",
                              "phonetic_probes", "phonetic_indexes",
                              "phonetics", "indexes"}
        for name, counters in stats.items():
            if name in ("batch_executor", "phonetics", "indexes"):
                continue  # subsystem counters, not a cache
            assert counters["hits"] + counters["misses"] >= 0
            assert 0.0 <= counters["hit_rate"] <= 1.0
        indexes = stats["indexes"]
        assert indexes["statements"] >= 0
        assert indexes["rows_avoided"] >= 0
        phonetics = stats["phonetics"]
        assert phonetics["probes"] >= 0
        assert 0.0 <= phonetics["scanned_fraction"] <= 1.0
        batch = stats["batch_executor"]
        assert batch["requests"] >= 0
        assert batch["masks_reused"] >= 0

    def test_cached_repeat_is_5x_faster_than_cold(self):
        # Fresh server so the first request is genuinely cold.
        db = Database(seed=0)
        db.register_table(make_nyc311_table(num_rows=4000, seed=9))
        muve = Muve(db, "nyc311", seed=1,
                    planner=VisualizationPlanner(strategy="greedy"))
        demo = MuveDemoServer(muve, port=0)
        demo.start()
        body = {"question": "average resolution hours for borough "
                            "Brooklyn"}
        try:
            begin = time.perf_counter()
            status, cold_raw = request(demo, "POST", "/api/ask", body)
            cold = time.perf_counter() - begin
            assert status == 200
            warm_times = []
            for _ in range(5):
                begin = time.perf_counter()
                status, warm_raw = request(demo, "POST", "/api/ask", body)
                warm_times.append(time.perf_counter() - begin)
                assert status == 200
                assert warm_raw == cold_raw
            warm = min(warm_times)
            status, raw = request(demo, "GET", "/api/stats")
            assert json.loads(raw)["responses"]["hits"] >= 5
            assert cold >= 5 * warm, (
                f"cached repeat not >=5x faster: cold {cold * 1000:.1f} "
                f"ms vs warm {warm * 1000:.1f} ms")
        finally:
            demo.shutdown()


class TestMetricsEndpoint:
    def test_metrics_json_snapshot(self, server):
        # Generate at least one measured request first.
        status, _ = request(server, "POST", "/api/ask", {
            "question": "average resolution hours for borough Brooklyn"})
        assert status == 200
        status, raw = request(server, "GET", "/api/metrics")
        assert status == 200
        snap = json.loads(raw)
        assert set(snap) == {"counters", "gauges", "histograms"}
        http_hists = {key: value
                      for key, value in snap["histograms"].items()
                      if key.startswith("http_request_ms")}
        assert http_hists, "no http_request_ms histograms recorded"
        ask_keys = [key for key in http_hists
                    if "path=/api/ask" in key]
        assert ask_keys
        hist = http_hists[ask_keys[0]]
        assert hist["count"] >= 1
        assert hist["p50"] > 0.0
        assert hist["p95"] >= hist["p50"]

    def test_request_latency_recorded_in_muve_registry(self, server):
        request(server, "POST", "/api/ask", {
            "question": "count of requests for borough Queens"})
        snap = server.metrics.snapshot()
        hist = snap["histograms"].get("muve_request_ms{request=ask}")
        assert hist is not None and hist["count"] >= 1
        assert hist["p50"] > 0.0

    def test_metrics_prometheus_format(self, server):
        request(server, "GET", "/api/schema")
        status, raw = request(server, "GET",
                              "/api/metrics?format=prometheus")
        assert status == 200
        text = raw.decode("utf-8")
        assert "# TYPE http_requests counter" in text
        assert "http_request_ms_bucket" in text
        assert 'le="+Inf"' in text

    def test_unknown_paths_fold_into_other_label(self, server):
        request(server, "GET", "/definitely/not/a/route")
        status, raw = request(server, "GET", "/api/metrics")
        counters = json.loads(raw)["counters"]
        assert any("path=other" in key and "status=404" in key
                   for key in counters)


class TestTracesEndpoint:
    def test_traces_endpoint_returns_recent_traces(self, server):
        status, _ = request(server, "POST", "/api/ask?trace=1", {
            "question": "maximum num calls for agency NYPD"})
        assert status == 200
        status, raw = request(server, "GET", "/api/traces?n=5")
        assert status == 200
        traces = json.loads(raw)["traces"]
        assert traces
        for trace in traces:
            assert {"trace_id", "started_at", "duration_ms",
                    "root"} <= set(trace)

    def test_traces_jsonl_export(self, server):
        request(server, "POST", "/api/ask?trace=1", {
            "question": "count of requests for borough Queens"})
        status, raw = request(server, "GET",
                              "/api/traces?n=3&format=jsonl")
        assert status == 200
        lines = raw.decode("utf-8").splitlines()
        assert 1 <= len(lines) <= 3
        for line in lines:
            assert "trace_id" in json.loads(line)

    def test_bad_n_rejected(self, server):
        status, raw = request(server, "GET", "/api/traces?n=banana")
        assert status == 400
        assert "integer" in json.loads(raw)["error"]


class TestAskTrace:
    """The ``?trace=1`` span tree is the PR's acceptance criterion."""

    QUESTION = "average resolution hours for borough Bronx"

    def _traced(self, server, body):
        status, raw = request(server, "POST", "/api/ask?trace=1", body)
        assert status == 200
        payload = json.loads(raw)
        assert "trace" in payload, "?trace=1 did not attach a trace"
        return payload["trace"]

    @staticmethod
    def _span_names(span, into):
        into.add(span["name"])
        for child in span["children"]:
            TestAskTrace._span_names(child, into)
        return into

    def test_trace_covers_pipeline_stages(self, server):
        trace = self._traced(server, {"question": self.QUESTION,
                                      "voice": True})
        root = trace["root"]
        assert root["name"] == "request"
        names = self._span_names(root, set())
        # At least five distinct pipeline stages: speech/translation,
        # candidate generation, planning, execution, rendering.
        expected = {"muve.speech", "muve.translate", "muve.candidates",
                    "planner.plan", "executor.run", "render.svg"}
        assert expected <= names
        assert len(names) >= 5

    def test_child_durations_account_for_root(self, server):
        trace = self._traced(server, {"question": self.QUESTION})
        root = trace["root"]
        assert root["duration_ms"] > 0.0
        child_total = sum(child["duration_ms"]
                          for child in root["children"])
        assert child_total >= 0.9 * root["duration_ms"], (
            f"children cover only {child_total:.3f} of "
            f"{root['duration_ms']:.3f} ms")

    def test_trace_flag_in_body_works_too(self, server):
        status, raw = request(server, "POST", "/api/ask", {
            "question": self.QUESTION, "trace": True})
        assert status == 200
        assert "trace" in json.loads(raw)

    def test_untraced_response_has_no_trace_field(self, server):
        status, raw = request(server, "POST", "/api/ask", {
            "question": self.QUESTION})
        assert status == 200
        assert "trace" not in json.loads(raw)

    def test_executor_spans_report_rows_scanned(self, server):
        trace = self._traced(server, {
            "question": "count of requests for agency DOT"})

        def collect(span, name, into):
            if span["name"] == name:
                into.append(span)
            for child in span["children"]:
                collect(child, name, into)
            return into

        sql_spans = collect(trace["root"], "sqldb.execute", [])
        if sql_spans:
            for span in sql_spans:
                assert span["attributes"]["rows_scanned"] >= 0
                assert span["attributes"]["rows_total"] == 2000
        else:
            # Earlier tests may have warmed the result cache for this
            # question's groups, in which case no statement reaches the
            # SQL layer — the trace must say so explicitly.
            groups = collect(trace["root"], "executor.group", [])
            assert groups
            assert all(span["attributes"].get("cache") == "hit"
                       for span in groups)


class TestErrorHandling:
    def test_unexpected_exception_maps_to_500_json(self):
        db = Database(seed=0)
        db.register_table(make_nyc311_table(num_rows=1000, seed=2))
        muve = Muve(db, "nyc311", seed=1,
                    planner=VisualizationPlanner(strategy="greedy"))
        demo = MuveDemoServer(muve, port=0)

        def explode(*args, **kwargs):
            raise ValueError("synthetic failure")

        muve.ask = explode
        demo.start()
        try:
            status, raw = request(demo, "POST", "/api/ask",
                                  {"question": "anything"})
            assert status == 500
            payload = json.loads(raw)
            assert "ValueError" in payload["error"]
            assert "synthetic failure" in payload["error"]
            # The error surfaced in the metrics registry, by type.
            counters = demo.metrics.snapshot()["counters"]
            assert any("type=ValueError" in key and "where=http" in key
                       for key in counters)
            # The server survived and still answers.
            status, _ = request(demo, "GET", "/api/schema")
            assert status == 200
        finally:
            demo.shutdown()


class TestAccessLog:
    def test_access_log_writes_structured_lines(self):
        db = Database(seed=0)
        db.register_table(make_nyc311_table(num_rows=1000, seed=2))
        muve = Muve(db, "nyc311", seed=1,
                    planner=VisualizationPlanner(strategy="greedy"))
        stream = io.StringIO()
        demo = MuveDemoServer(muve, port=0, access_log=True,
                              access_log_stream=stream)
        demo.start()
        try:
            request(demo, "GET", "/api/schema")
            request(demo, "GET", "/missing")
        finally:
            demo.shutdown()
        lines = [json.loads(line)
                 for line in stream.getvalue().splitlines()]
        assert len(lines) == 2
        by_path = {line["path"]: line for line in lines}
        assert by_path["/api/schema"]["status"] == 200
        assert by_path["/missing"]["status"] == 404
        for line in lines:
            assert line["event"] == "http_request"
            assert line["method"] == "GET"
            assert line["duration_ms"] >= 0.0
            assert "ts" in line

    def test_access_log_off_by_default(self, server):
        assert not server.access_log.enabled


class TestTrendAsk:
    def test_trend_question(self):
        from repro.datasets import make_flights_table
        db = Database(seed=0)
        db.register_table(make_flights_table(num_rows=4000, seed=3))
        muve = Muve(db, "flights",
                    geometry=ScreenGeometry(width_pixels=2400,
                                            num_rows=2),
                    planner=VisualizationPlanner(strategy="greedy"))
        demo = MuveDemoServer(muve, port=0)
        demo.start()
        try:
            status, raw = request(demo, "POST", "/api/ask", {
                "question": ("average arr delay for carrier Delta "
                             "by month"),
                "trend": True})
            assert status == 200
            payload = json.loads(raw)
            assert "BY month" in payload["seed_sql"]
            assert "polyline" in payload["svg"]
        finally:
            demo.shutdown()


class TestObservabilityEndpoints:
    def test_slo_report_served(self, server):
        status, raw = request(server, "GET", "/api/slo")
        assert status == 200
        payload = json.loads(raw)
        assert {"latency_p95", "error_rate", "truth_coverage"} <= \
            set(payload["objectives"])
        for entry in payload["objectives"].values():
            assert entry["status"] in ("ok", "slow_burn", "fast_burn")
            assert "300s" in entry["windows"]

    def test_slo_counts_requests(self, server):
        request(server, "POST", "/api/ask",
                {"question": "count requests where borough brooklyn"})
        status, raw = request(server, "GET", "/api/slo")
        payload = json.loads(raw)
        window = payload["objectives"]["error_rate"]["windows"]["300s"]
        assert window["events"] >= 1

    def test_workload_endpoint(self, server):
        request(server, "POST", "/api/ask",
                {"question": "average resolution hours where "
                             "borough brooklyn"})
        status, raw = request(server, "GET", "/api/workload?n=5")
        assert status == 200
        payload = json.loads(raw)
        assert payload["templates"]["total_observed"] >= 1
        assert len(payload["templates"]["top"]) <= 5

    def test_workload_rejects_bad_limit(self, server):
        status, raw = request(server, "GET", "/api/workload?n=xx")
        assert status == 400
        assert json.loads(raw)["error_type"] == "ReproError"

    def test_quality_endpoint(self, server):
        request(server, "POST", "/api/ask",
                {"question": "average resolution hours where "
                             "borough brooklyn"})
        status, raw = request(server, "GET", "/api/quality")
        assert status == 200
        payload = json.loads(raw)
        assert payload["requests"] >= 1
        assert any(key.startswith("truth_coverage")
                   for key in payload["histograms"])

    def test_ask_payload_carries_quality_record(self, server):
        status, raw = request(
            server, "POST", "/api/ask",
            {"question": "average resolution hours where "
                         "borough brooklyn"})
        assert status == 200
        quality = json.loads(raw)["quality"]
        assert 0.0 <= quality["highlight_coverage"] \
            <= quality["truth_coverage"] <= 1.0
        assert quality["intended_outcome"] == "unknown"

    def test_dashboard_served(self, server):
        request(server, "POST", "/api/ask",
                {"question": "average resolution hours where "
                             "borough brooklyn"})
        status, raw = request(server, "GET", "/dashboard")
        assert status == 200
        page = raw.decode("utf-8")
        assert "SLO burn rates" in page
        assert "Top query templates" in page
        assert "<script>" not in page  # server-rendered, no JS

    def test_known_paths_derive_from_route_table(self):
        from repro.demo.server import _KNOWN_PATHS, _ROUTES
        assert set(_KNOWN_PATHS) == {path for _, path in _ROUTES}
        assert "/api/slo" in _KNOWN_PATHS
        assert "/dashboard" in _KNOWN_PATHS

    def test_every_route_has_a_handler(self, server):
        from repro.demo.server import _ROUTES, _make_handler
        handler = _make_handler(server)
        for (_, path), name in _ROUTES.items():
            assert callable(getattr(handler, name)), (path, name)

    def test_ask_response_carries_latency_exemplar(self, server):
        # A traced ask leaves an exemplar pointing at its trace.
        request(server, "POST", "/api/ask?trace=1",
                {"question": "count requests where borough queens"})
        status, raw = request(server, "GET", "/api/metrics")
        snapshot = json.loads(raw)
        histograms = snapshot["histograms"]
        exemplars = [
            entry.get("exemplars", {})
            for key, entry in histograms.items()
            if key.startswith("muve_request_ms")]
        refs = {exemplar["trace_id"]
                for per_bucket in exemplars
                for exemplar in per_bucket.values()}
        assert refs, "expected at least one latency exemplar"
        status, raw = request(server, "GET", "/api/traces?n=64")
        trace_ids = {trace["trace_id"]
                     for trace in json.loads(raw)["traces"]}
        assert refs & trace_ids, (refs, trace_ids)
