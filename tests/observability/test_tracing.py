"""Tests for the span tracer: nesting, propagation, the disabled path."""

import json
import threading

import pytest

from repro.observability import tracing
from repro.observability.tracing import (
    NOOP_SPAN,
    Span,
    Trace,
    TraceLog,
    current_span,
    get_trace_log,
    set_tracing_enabled,
    trace_span,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def clean_tracer():
    """Each test starts with tracing on and an empty ring buffer."""
    previous = tracing_enabled()
    set_tracing_enabled(True)
    get_trace_log().clear()
    yield
    set_tracing_enabled(previous)
    get_trace_log().clear()


class TestSpanNesting:
    def test_nested_spans_build_a_tree(self):
        with trace_span("request") as root:
            with trace_span("plan") as plan:
                plan.set_attribute("solver", "greedy")
            with trace_span("execute"):
                with trace_span("sql"):
                    pass
        assert [child.name for child in root.children] == \
            ["plan", "execute"]
        assert root.children[1].children[0].name == "sql"
        assert root.children[0].attributes["solver"] == "greedy"

    def test_durations_are_positive_and_nested(self):
        with trace_span("outer") as outer:
            with trace_span("inner") as inner:
                pass
        assert inner.duration_ms >= 0.0
        assert outer.duration_ms >= inner.duration_ms

    def test_current_span_tracks_innermost(self):
        assert current_span() is NOOP_SPAN
        with trace_span("a") as a:
            assert current_span() is a
            with trace_span("b") as b:
                assert current_span() is b
            assert current_span() is a
        assert current_span() is NOOP_SPAN

    def test_exception_marks_error_and_propagates(self):
        with pytest.raises(ValueError):
            with trace_span("request") as span:
                raise ValueError("boom")
        assert span.status == "error"
        assert span.attributes["error_type"] == "ValueError"

    def test_iter_spans_walks_depth_first(self):
        with trace_span("a") as a:
            with trace_span("b"):
                with trace_span("c"):
                    pass
            with trace_span("d"):
                pass
        assert [span.name for span in a.iter_spans()] == \
            ["a", "b", "c", "d"]

    def test_to_dict_round_trips_through_json(self):
        with trace_span("request", path="/api/ask") as span:
            span.set_attribute("rows", 42)
        payload = json.loads(json.dumps(span.to_dict()))
        assert payload["name"] == "request"
        assert payload["attributes"] == {"path": "/api/ask", "rows": 42}
        assert payload["status"] == "ok"


class TestDisabledTracer:
    def test_disabled_yields_shared_noop(self):
        set_tracing_enabled(False)
        with trace_span("anything") as span:
            assert span is NOOP_SPAN
            assert not span.recording
            span.set_attribute("ignored", 1)  # must not raise
        assert NOOP_SPAN.attributes == {}
        assert len(get_trace_log()) == 0

    def test_disabled_current_span_is_noop(self):
        set_tracing_enabled(False)
        assert current_span() is NOOP_SPAN
        assert not current_span().recording

    def test_env_variable_spellings(self, monkeypatch):
        for value in ("off", "0", "false", "no", " OFF "):
            monkeypatch.setenv("MUVE_TRACING", value)
            assert tracing._env_enabled() is False
        for value in ("on", "1", "true", ""):
            monkeypatch.setenv("MUVE_TRACING", value)
            assert tracing._env_enabled() is True

    def test_recording_flag_distinguishes_real_spans(self):
        with trace_span("real") as span:
            assert span.recording


class TestTraceLog:
    def test_root_span_lands_in_trace_log(self):
        with trace_span("request"):
            with trace_span("child"):
                pass
        traces = get_trace_log().tail(1)
        assert len(traces) == 1
        assert traces[0].root.name == "request"
        assert traces[0].trace_id.startswith("t")
        assert traces[0].duration_ms == traces[0].root.duration_ms

    def test_child_spans_do_not_create_traces(self):
        with trace_span("request"):
            with trace_span("child"):
                pass
        assert len(get_trace_log()) == 1

    def test_ring_buffer_evicts_oldest(self):
        log = TraceLog(capacity=2)
        for index in range(3):
            log.append(Trace(f"t{index}", 0.0, Span(f"s{index}")))
        assert [trace.trace_id for trace in log.tail(10)] == ["t1", "t2"]

    def test_evicted_compares_against_the_oldest_held_id(self):
        log = TraceLog(capacity=2)
        assert not log.evicted("t00000000")   # empty: not known
        for index in range(3):
            log.append(Trace(f"t{index:08d}", 0.0, Span(f"s{index}")))
        assert log.evicted("t00000000")
        assert not log.evicted("t00000001")
        assert not log.evicted("t00000009")   # still in progress
        assert not log.evicted("t0")          # not a numbered id

    def test_evicted_exemplar_yields_to_a_faster_observation(self):
        """A bucket's slowest exemplar holds only while its trace can
        still be fetched; once evicted, a faster observation replaces
        it (so ``/api/metrics`` never links to a vanished trace)."""
        from repro.observability.metrics import Histogram
        from repro.observability.tracing import current_trace_id
        histogram = Histogram((100.0,))
        with trace_span("slow"):
            slow = current_trace_id()
        with trace_span("fast"):
            fast = current_trace_id()
        histogram.observe(90.0, exemplar=slow)
        histogram.observe(10.0, exemplar=fast)   # slow is retained
        assert histogram.snapshot()["exemplars"]["100"]["trace_id"] == slow
        for _ in range(get_trace_log().capacity):
            with trace_span("filler"):
                pass
        histogram.observe(10.0, exemplar=fast)
        assert histogram.snapshot()["exemplars"]["100"]["trace_id"] == fast

    def test_tail_returns_oldest_first(self):
        log = TraceLog(capacity=8)
        for index in range(4):
            log.append(Trace(f"t{index}", 0.0, Span("s")))
        assert [trace.trace_id for trace in log.tail(2)] == ["t2", "t3"]

    def test_jsonl_export_one_line_per_trace(self):
        with trace_span("a"):
            pass
        with trace_span("b"):
            pass
        lines = get_trace_log().to_jsonl().splitlines()
        assert len(lines) == 2
        names = [json.loads(line)["root"]["name"] for line in lines]
        assert names == ["a", "b"]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceLog(capacity=0)


class TestThreadIsolation:
    def test_concurrent_threads_build_disjoint_trees(self):
        barrier = threading.Barrier(4)
        roots: dict[int, Span] = {}

        def worker(worker_id: int) -> None:
            with trace_span("request", worker=worker_id) as root:
                barrier.wait(timeout=10)
                with trace_span("inner", worker=worker_id):
                    barrier.wait(timeout=10)
                roots[worker_id] = root

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(roots) == 4
        for worker_id, root in roots.items():
            assert root.attributes["worker"] == worker_id
            assert len(root.children) == 1, (
                f"worker {worker_id} picked up foreign spans")
            assert root.children[0].attributes["worker"] == worker_id
        assert len(get_trace_log()) == 4


class TestSpanMetrics:
    def test_finished_spans_feed_span_ms_histograms(self):
        from repro.observability.metrics import get_registry
        registry = get_registry()
        before = registry.histogram("span_ms", name="unit.test").count
        with trace_span("unit.test"):
            pass
        after = registry.histogram("span_ms", name="unit.test").count
        assert after == before + 1


class TestTraceLogCapacity:
    def test_default_capacity(self, monkeypatch):
        monkeypatch.delenv("MUVE_TRACE_LOG_SIZE", raising=False)
        assert TraceLog().capacity == \
            tracing.DEFAULT_TRACE_LOG_CAPACITY

    def test_env_sets_capacity(self, monkeypatch):
        monkeypatch.setenv("MUVE_TRACE_LOG_SIZE", "7")
        assert TraceLog().capacity == 7

    def test_explicit_capacity_beats_env(self, monkeypatch):
        monkeypatch.setenv("MUVE_TRACE_LOG_SIZE", "7")
        assert TraceLog(capacity=3).capacity == 3

    @pytest.mark.parametrize("raw", ["zero", "0", "-4", "2.5"])
    def test_invalid_env_raises_on_explicit_construction(
            self, monkeypatch, raw):
        monkeypatch.setenv("MUVE_TRACE_LOG_SIZE", raw)
        with pytest.raises(ValueError):
            TraceLog()
        with pytest.raises(ValueError):
            tracing.trace_log_capacity_from_env()

    def test_capacity_is_enforced(self):
        log = TraceLog(capacity=2)
        for index in range(5):
            log.append(Trace(root=Span(name=f"s{index}"),
                             trace_id=f"t{index}", started_at=0.0))
        assert len(log) == 2

    def test_capacity_gauges(self):
        from repro.observability.metrics import MetricsRegistry
        from repro.observability.tracing import (
            register_trace_log_metrics,
        )
        registry = MetricsRegistry()
        register_trace_log_metrics(registry)
        snapshot = registry.snapshot()["gauges"]
        assert snapshot["trace_log_capacity"] == \
            get_trace_log().capacity
        assert snapshot["trace_log_entries"] == len(get_trace_log())


class TestTraceIds:
    def test_no_trace_id_outside_a_span(self):
        from repro.observability.tracing import current_trace_id
        assert current_trace_id() is None

    def test_root_span_assigns_an_id_visible_to_children(self):
        from repro.observability.tracing import current_trace_id
        with trace_span("request"):
            root_id = current_trace_id()
            assert root_id is not None
            with trace_span("child"):
                assert current_trace_id() == root_id
        assert current_trace_id() is None

    def test_disabled_tracing_has_no_trace_id(self):
        from repro.observability.tracing import current_trace_id
        set_tracing_enabled(False)
        with trace_span("request"):
            assert current_trace_id() is None

    def test_span_metrics_carry_the_trace_exemplar(self):
        from repro.observability.metrics import get_registry
        from repro.observability.tracing import current_trace_id
        with trace_span("exemplar.unit"):
            trace_id = current_trace_id()
        snap = get_registry().histogram(
            "span_ms", name="exemplar.unit").snapshot()
        refs = {entry["trace_id"]
                for entry in snap.get("exemplars", {}).values()}
        assert trace_id in refs
