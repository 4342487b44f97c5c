"""The Prometheus text exposition format, checked with a mini-parser,
and exemplar propagation under concurrency."""

import re
import threading

from repro.observability.metrics import EXEMPLAR_STALENESS, Histogram, MetricsRegistry

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})? "
    r"(?P<value>[^ ]+)$")
_LABEL = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)='
                    r'"(?P<value>(?:\\.|[^"\\])*)"')


def parse_exposition(text: str):
    """(types, samples): the subset of the format the tests assert on.

    ``samples`` is a list of (metric name, labels dict, float value);
    label values are unescaped, so a round-trip through the renderer
    must reproduce the original string.
    """
    types: dict[str, str] = {}
    samples: list[tuple[str, dict[str, str], float]] = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, kind = rest.rsplit(" ", 1)
            types[name] = kind
            continue
        assert not line.startswith("#"), f"unexpected comment: {line}"
        match = _SAMPLE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        labels: dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            consumed = 0
            for found in _LABEL.finditer(raw):
                labels[found.group("key")] = (
                    found.group("value")
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\"))
                consumed += 1
            assert consumed == raw.count("="), \
                f"label block not fully parsed: {raw!r}"
        samples.append((match.group("name"), labels,
                        float(match.group("value"))))
    return types, samples


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("requests", path="/api/ask", status="200").inc(3)
    registry.gauge("inflight").set(2)
    histogram = registry.histogram("latency_ms", (10.0, 100.0),
                                   request="ask")
    for value in (5.0, 50.0, 500.0):
        histogram.observe(value)
    return registry


class TestExpositionFormat:
    def test_every_metric_has_a_type_line(self):
        types, _ = parse_exposition(
            populated_registry().render_prometheus())
        assert types["requests"] == "counter"
        assert types["inflight"] == "gauge"
        assert types["latency_ms"] == "histogram"

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        _, samples = parse_exposition(
            populated_registry().render_prometheus())
        buckets = [(labels["le"], value) for name, labels, value
                   in samples if name == "latency_ms_bucket"]
        assert [le for le, _ in buckets][-1] == "+Inf"
        counts = [value for _, value in buckets]
        assert counts == sorted(counts), "buckets must be cumulative"
        count = next(value for name, _, value in samples
                     if name == "latency_ms_count")
        assert counts[-1] == count == 3

    def test_sum_and_count_agree_with_observations(self):
        _, samples = parse_exposition(
            populated_registry().render_prometheus())
        total = next(value for name, _, value in samples
                     if name == "latency_ms_sum")
        assert total == 555.0

    def test_label_values_roundtrip_through_escaping(self):
        registry = MetricsRegistry()
        nasty = 'he said "hi"\\path\nnewline'
        registry.counter("events", detail=nasty).inc()
        text = registry.render_prometheus()
        assert "\nnewline" not in text.split("# TYPE")[-1].splitlines()[1]
        _, samples = parse_exposition(text)
        labels = next(labels for name, labels, _ in samples
                      if name == "events")
        assert labels["detail"] == nasty

    def test_each_sample_line_is_well_formed(self):
        # The mini-parser asserts per line; this pins the whole output.
        parse_exposition(populated_registry().render_prometheus())


class TestExemplars:
    def test_exemplar_keeps_slowest_recent_observation(self):
        histogram = Histogram((10.0, 100.0))
        histogram.observe(50.0, exemplar="t1")
        histogram.observe(20.0, exemplar="t2")  # smaller: not kept
        assert histogram.snapshot()["exemplars"]["100"]["trace_id"] == "t1"
        histogram.observe(70.0, exemplar="t3")  # larger: replaces
        snap = histogram.snapshot()
        assert snap["exemplars"]["100"]["trace_id"] == "t3"
        assert snap["exemplars"]["100"]["value"] == 70.0

    def test_staleness_bound_refreshes_the_exemplar(self):
        histogram = Histogram((10.0,))
        histogram.observe(9.0, exemplar="old-peak")
        for _ in range(EXEMPLAR_STALENESS + 1):
            histogram.observe(1.0)
        histogram.observe(2.0, exemplar="fresh")
        snap = histogram.snapshot()
        assert snap["exemplars"]["10"]["trace_id"] == "fresh"

    def test_observations_without_exemplars_leave_none(self):
        histogram = Histogram((10.0,))
        histogram.observe(5.0)
        assert "exemplars" not in histogram.snapshot()

    def test_exemplars_survive_an_eight_thread_hammer(self):
        histogram = Histogram((100.0, 1000.0))
        per_thread = 500

        def hammer(thread_index: int) -> None:
            for i in range(per_thread):
                value = float((thread_index * per_thread + i) % 900)
                histogram.observe(value,
                                  exemplar=f"t{thread_index}-{i}")

        threads = [threading.Thread(target=hammer, args=(index,))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert histogram.count == 8 * per_thread
        snap = histogram.snapshot()
        exemplars = snap["exemplars"]
        assert exemplars, "hammer must leave exemplars behind"
        for bucket, entry in exemplars.items():
            # Every surviving exemplar is a real observation that
            # belongs in its bucket.
            thread_index, i = map(
                int, entry["trace_id"][1:].split("-"))
            expected = float((thread_index * per_thread + i) % 900)
            assert entry["value"] == expected
            bound = float("inf") if bucket == "+Inf" else float(bucket)
            assert entry["value"] <= bound
