"""Resilience at the HTTP surface: deadlines, shedding, typed errors.

Includes the ISSUE acceptance test: with ``MUVE_FAULTS`` stalling
``planner.solve`` and a 500 ms deadline, ``POST /api/ask`` returns a
degraded greedy-planned response within 2x the deadline carrying the
DegradationEvent, and ``/api/metrics`` shows the degradation counter.
"""

from __future__ import annotations

import concurrent.futures
import http.client
import json
import time

import pytest

from repro import Database, Muve, ScreenGeometry, VisualizationPlanner
from repro.datasets import make_nyc311_table
from repro.demo import MuveDemoServer
from repro.testing.faults import inject_faults

from tests.resilience.conftest import QUESTION


@pytest.fixture(scope="module")
def server(muve):
    demo = MuveDemoServer(muve, port=0)
    demo.start()
    yield demo
    demo.shutdown()


@pytest.fixture(scope="module")
def tiny_server(muve):
    """A separate server with a 2-request admission cap."""
    demo = MuveDemoServer(muve, port=0, max_inflight=2,
                          retry_after_seconds=3.0)
    demo.start()
    yield demo
    demo.shutdown()


def request(server, method, path, body=None, timeout=60):
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    payload = json.dumps(body) if body is not None else None
    headers = {"Content-Type": "application/json"} if body else {}
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    raw = response.read()
    headers_out = dict(response.getheaders())
    connection.close()
    return response.status, headers_out, raw


class TestAcceptance:
    def test_stalled_planner_answers_degraded_within_2x_deadline(
            self, server):
        """The ISSUE acceptance criterion, end to end over HTTP."""
        with inject_faults("planner.solve:stall"):
            begin = time.perf_counter()
            status, _, raw = request(
                server, "POST", "/api/ask?deadline_ms=500",
                {"question": QUESTION})
            elapsed_ms = (time.perf_counter() - begin) * 1000.0
        assert status == 200
        assert elapsed_ms < 2 * 500, f"took {elapsed_ms:.0f} ms"
        payload = json.loads(raw)
        assert payload["degraded"] is True
        rungs = {(e["site"], e["action"])
                 for e in payload["degradations"]}
        assert ("planner", "ilp_to_greedy") in rungs
        for event in payload["degradations"]:
            assert set(event) == {"site", "action", "reason", "detail"}
        assert "greedy" in payload["planner"]
        assert payload["svg"] and payload["text"]

        status, _, raw = request(server, "GET", "/api/metrics")
        assert status == 200
        counters = json.loads(raw)["counters"]
        degraded = {key: value for key, value in counters.items()
                    if key.startswith("resilience_degraded")}
        assert degraded
        assert any("site=planner" in key and value > 0
                   for key, value in degraded.items())


class TestDeadlineParameter:
    def test_deadline_in_body(self, server):
        with inject_faults("executor.batch:exhaust_deadline"):
            status, _, raw = request(server, "POST", "/api/ask", {
                "question": QUESTION, "deadline_ms": 60_000})
        assert status == 200
        payload = json.loads(raw)
        assert payload["degraded"] is True
        assert any(e["action"] == "single_plot"
                   for e in payload["degradations"])

    def test_no_deadline_means_no_degradation(self, server):
        status, _, raw = request(server, "POST", "/api/ask",
                                 {"question": QUESTION})
        assert status == 200
        payload = json.loads(raw)
        assert payload["degraded"] is False
        assert payload["degradations"] == []

    @pytest.mark.parametrize("bad", ["banana", "-100", "0"])
    def test_invalid_deadline_is_typed_400(self, server, bad):
        status, _, raw = request(
            server, "POST", f"/api/ask?deadline_ms={bad}",
            {"question": QUESTION})
        assert status == 400
        payload = json.loads(raw)
        assert "deadline_ms" in payload["error"]
        assert payload["error_type"] == "ReproError"

    def test_degraded_answer_not_cached(self, server):
        """A deadline-degraded answer must not be served from the
        response cache to a later pressure-free ask."""
        question = QUESTION + " please"  # unique cache key for the test
        with inject_faults("executor.batch:exhaust_deadline"):
            status, _, raw = request(
                server, "POST", "/api/ask?deadline_ms=60000",
                {"question": question})
        assert status == 200
        assert json.loads(raw)["degraded"] is True
        status, _, raw = request(server, "POST", "/api/ask",
                                 {"question": question})
        assert status == 200
        assert json.loads(raw)["degraded"] is False


#: The overload-shedding gate: 16 deadline-carrying clients against a
#: 4-request admission cap while every admitted request's execution is
#: slowed by 400 ms (clamped by its 250 ms deadline, which then takes
#: the single-plot rung -- still a 200, just a slow one).
SHED_CLIENTS = 16
SHED_INFLIGHT = 4
SHED_DEADLINE_MS = 250.0
SHED_FAULT = "executor.batch:delay=400"
SCHEDULING_SLACK_MS = 500.0


@pytest.fixture()
def shed_server():
    database = Database(seed=0)
    database.register_table(make_nyc311_table(num_rows=2000, seed=0))
    muve = Muve(database, "nyc311", seed=0, geometry=ScreenGeometry(),
                planner=VisualizationPlanner(strategy="greedy"))
    demo = MuveDemoServer(muve, port=0, max_inflight=SHED_INFLIGHT)
    demo.start()
    yield demo
    demo.shutdown()


class TestLoadShedding:
    def test_saturation_sheds_429_with_retry_after(self, tiny_server):
        with inject_faults("executor.batch:delay=400"):
            with concurrent.futures.ThreadPoolExecutor(6) as pool:
                futures = [
                    pool.submit(request, tiny_server, "POST",
                                "/api/ask",
                                {"question": f"{QUESTION} v{i}"})
                    for i in range(6)]
                outcomes = [f.result() for f in futures]
        by_status: dict[int, list] = {}
        for status, headers, raw in outcomes:
            by_status.setdefault(status, []).append((headers, raw))
        assert set(by_status) <= {200, 429}
        assert len(by_status.get(200, [])) >= 1
        assert len(by_status.get(429, [])) >= 1
        for headers, raw in by_status[429]:
            assert headers.get("Retry-After") == "3"
            payload = json.loads(raw)
            assert payload["error_type"] == "OverloadedError"
            assert payload["retry_after_seconds"] == 3.0
        for _, raw in by_status[200]:
            assert json.loads(raw)["text"]

    def test_slots_released_after_burst(self, tiny_server):
        assert tiny_server.admission.inflight == 0
        status, _, raw = request(tiny_server, "POST", "/api/ask",
                                 {"question": QUESTION})
        assert status == 200
        assert tiny_server.admission.inflight == 0

    def test_shed_metrics_exported(self, tiny_server):
        status, _, raw = request(tiny_server, "GET", "/api/metrics")
        assert status == 200
        snapshot = json.loads(raw)
        assert "resilience_shed" in snapshot["counters"]
        assert "resilience_inflight" in snapshot["gauges"]

    def test_overload_gate(self, shed_server):
        """16 clients against a cap of 4: sheds cleanly, and admitted
        requests still meet their deadline."""
        def timed(index):
            begin = time.perf_counter()
            status, headers, raw = request(
                shed_server, "POST",
                f"/api/ask?deadline_ms={SHED_DEADLINE_MS:g}",
                {"question": "average resolution hours for borough "
                             f"Brooklyn run {index}"})
            elapsed_ms = (time.perf_counter() - begin) * 1000.0
            return status, elapsed_ms, headers, json.loads(raw)

        with inject_faults(SHED_FAULT, seed=0):
            with concurrent.futures.ThreadPoolExecutor(
                    SHED_CLIENTS) as pool:
                outcomes = list(pool.map(timed, range(SHED_CLIENTS)))

        answered = [o for o in outcomes if o[0] == 200]
        shed = [o for o in outcomes if o[0] == 429]
        assert {o[0] for o in outcomes} <= {200, 429}
        assert answered, "no request was admitted"
        assert shed, "no request was shed (cap never reached)"
        for _, _, headers, payload in shed:
            assert "Retry-After" in headers
            assert payload["error_type"] == "OverloadedError"
        slowest_ms = max(o[1] for o in answered)
        bound_ms = 2 * SHED_DEADLINE_MS + SCHEDULING_SLACK_MS
        assert slowest_ms <= bound_ms, (
            f"slowest 200 took {slowest_ms:.0f} ms > {bound_ms:.0f} ms")
        assert shed_server.admission.shed_total == len(shed)
        assert shed_server.admission.inflight == 0


class TestTypedErrors:
    def test_unexpected_error_carries_error_type(self, server,
                                                 monkeypatch):
        def explode():
            raise ValueError("synthetic failure")

        monkeypatch.setattr(server, "handle_schema", explode)
        status, _, raw = request(server, "GET", "/api/schema")
        assert status == 500
        payload = json.loads(raw)
        assert payload["error_type"] == "ValueError"
        assert "synthetic failure" in payload["error"]

    def test_domain_error_carries_error_type(self, server):
        status, _, raw = request(server, "POST", "/api/ask",
                                 {"question": "   "})
        assert status == 400
        payload = json.loads(raw)
        assert payload["error_type"] == "ReproError"
        assert "empty question" in payload["error"]
