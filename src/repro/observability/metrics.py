"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

The registry is the aggregation side of the observability layer (the
tracer is the per-request side): cheap, thread-safe instruments that the
serving path updates on every request and that ``/api/metrics`` (or
``muve.cli --profile``) snapshots on demand.

Design constraints, in order:

* **Zero dependencies** — stdlib only, like the rest of the repo.
* **Cheap on the hot path** — recording a value is one lock acquisition
  and a couple of integer updates; nothing allocates per observation.
* **Bounded memory** — histograms keep fixed bucket counts (plus sum /
  min / max), never raw samples, so a million-request load test costs the
  same memory as ten requests.  Percentiles (p50/p95/p99) are estimated
  by linear interpolation inside the owning bucket and clamped to the
  observed min/max, which makes single-value and narrow distributions
  exact; an empty histogram has no quantiles (``percentile`` returns
  ``None``).

Histograms optionally carry **exemplars**: ``observe(value,
exemplar=trace_id)`` keeps, per bucket, the slowest recent observation's
reference, so a p99 bucket in ``/api/metrics`` links straight to the
``/api/traces`` entry that produced it (see
:func:`repro.observability.tracing.current_trace_id`).  An exemplar
older than every trace the trace log holds links nowhere, so any newer
observation in its bucket replaces it.

Instruments are identified by ``(name, labels)``; labels are plain
keyword arguments (``registry.counter("errors", type="ValueError")``),
kept to low-cardinality values by convention.  A process-wide default
registry is available via :func:`get_registry`; tests construct private
:class:`MetricsRegistry` instances instead.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterator

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
]

#: Log-spaced latency buckets in milliseconds: sub-millisecond SQL
#: statements up to 10-second outliers all land in a resolving bucket.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: _LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count (requests served, errors seen)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value: either set directly or pulled from a
    callback at read time (how cache counters are exposed)."""

    __slots__ = ("_callback", "_lock", "_value")

    def __init__(self,
                 callback: Callable[[], float] | None = None) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._callback = callback

    def set(self, value: float) -> None:
        with self._lock:
            self._callback = None
            self._value = float(value)

    def set_callback(self, callback: Callable[[], float]) -> None:
        with self._lock:
            self._callback = callback

    @property
    def value(self) -> float:
        with self._lock:
            callback = self._callback
            if callback is None:
                return self._value
        return float(callback())


#: An exemplar older than this many same-bucket observations is replaced
#: even by a faster value — "slowest recent", not "slowest ever", so a
#: one-off cold-start outlier does not pin the link forever.
EXEMPLAR_STALENESS = 1024


def _trace_evicted(reference: str) -> bool:
    """Whether the trace log has evicted the trace *reference* names."""
    from repro.observability.tracing import get_trace_log
    return get_trace_log().evicted(reference)


class Histogram:
    """Fixed-bucket distribution with estimated percentiles.

    ``bounds`` are inclusive upper bucket edges; one implicit overflow
    bucket catches everything larger.  Only counts, the sum, the
    observed min/max, and (when the caller supplies them) one exemplar
    per bucket are stored.
    """

    __slots__ = ("_bounds", "_counts", "_count", "_sum", "_min", "_max",
                 "_exemplars", "_lock")

    def __init__(self, bounds: tuple[float, ...] | None = None) -> None:
        bounds = tuple(bounds) if bounds else DEFAULT_LATENCY_BUCKETS_MS
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must be strictly increasing, "
                             f"got {bounds}")
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: Per bucket: (value, reference, observation seq) or None.
        self._exemplars: list[tuple[float, str, int] | None] = \
            [None] * (len(bounds) + 1)
        self._lock = threading.Lock()

    @property
    def bounds(self) -> tuple[float, ...]:
        return self._bounds

    def observe(self, value: float, exemplar: str | None = None) -> None:
        value = float(value)
        index = self._bucket_index(value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if exemplar is not None:
                stored = self._exemplars[index]
                if (stored is None or value >= stored[0]
                        or self._counts[index] - stored[2]
                        > EXEMPLAR_STALENESS
                        or _trace_evicted(stored[1])):
                    self._exemplars[index] = (value, exemplar,
                                              self._counts[index])

    def _bucket_index(self, value: float) -> int:
        # Linear scan: bucket lists are short (~17) and typical latencies
        # land early; bisect would not pay for its call overhead.
        for index, bound in enumerate(self._bounds):
            if value <= bound:
                return index
        return len(self._bounds)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        with self._lock:
            return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        with self._lock:
            return self._max if self._count else 0.0

    def percentile(self, q: float) -> float | None:
        """The estimated q-quantile (q in [0, 1]) of observed values,
        or ``None`` when nothing has been observed — an empty
        distribution has no quantiles, and 0 would read as "everything
        was instant"."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
            observed_min = self._min
            observed_max = self._max
        if total == 0:
            return None
        rank = max(q * total, 1e-12)
        cumulative = 0.0
        for index, count in enumerate(counts):
            cumulative += count
            if cumulative >= rank and count > 0:
                lower = self._bounds[index - 1] if index > 0 else 0.0
                if index < len(self._bounds):
                    upper = self._bounds[index]
                    fraction = (rank - (cumulative - count)) / count
                    value = lower + (upper - lower) * fraction
                else:
                    value = observed_max  # overflow bucket
                return min(max(value, observed_min), observed_max)
        return observed_max

    def cumulative_buckets(self) -> dict[str, int]:
        """Cumulative per-bucket counts keyed by upper bound
        (Prometheus ``le`` semantics, ``+Inf`` last)."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
        buckets: dict[str, int] = {}
        cumulative = 0
        for bound, count in zip(self._bounds, counts):
            cumulative += count
            buckets[f"{bound:g}"] = cumulative
        buckets["+Inf"] = total
        return buckets

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            counts = list(self._counts)
            exemplars = list(self._exemplars)
            total = self._count
            total_sum = self._sum
        buckets: dict[str, int] = {}
        cumulative = 0
        for bound, count in zip(self._bounds, counts):
            cumulative += count
            buckets[f"{bound:g}"] = cumulative
        buckets["+Inf"] = total

        def rounded(q: float) -> float | None:
            value = self.percentile(q)
            return None if value is None else round(value, 6)

        snap: dict[str, object] = {
            "count": total,
            "sum": round(total_sum, 6),
            "mean": round(total_sum / total, 6) if total else 0.0,
            "min": round(self.min, 6),
            "max": round(self.max, 6),
            "p50": rounded(0.50),
            "p95": rounded(0.95),
            "p99": rounded(0.99),
            "buckets": buckets,
        }
        labelled = {}
        bucket_labels = [f"{bound:g}" for bound in self._bounds] + ["+Inf"]
        for label, stored in zip(bucket_labels, exemplars):
            if stored is not None:
                labelled[label] = {"value": round(stored[0], 6),
                                   "trace_id": stored[1]}
        if labelled:
            snap["exemplars"] = labelled
        return snap


class MetricsRegistry:
    """A namespace of instruments, each keyed on (name, labels).

    ``counter``/``gauge``/``histogram`` are get-or-create and return the
    same instrument for the same identity, so call sites just ask for
    what they need — no separate registration step on the hot path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, _LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, _LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, _LabelKey], Histogram] = {}

    # ------------------------------------------------------------------

    def counter(self, name: str, /, **labels: object) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, /, **labels: object) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge()
        return instrument

    def register_gauge(self, name: str, callback: Callable[[], float],
                       /, **labels: object) -> Gauge:
        """A gauge that evaluates *callback* at read time.  Re-registering
        the same identity replaces the callback (last writer wins), so
        rebuilding a pipeline does not accumulate stale closures."""
        gauge = self.gauge(name, **labels)
        gauge.set_callback(callback)
        return gauge

    def histogram(self, name: str,
                  buckets: tuple[float, ...] | None = None,
                  /, **labels: object) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(buckets)
        return instrument

    # ------------------------------------------------------------------

    def iter_counters(self) -> Iterator[tuple[str, _LabelKey, float]]:
        with self._lock:
            items = list(self._counters.items())
        for (name, labels), counter in items:
            yield name, labels, counter.value

    def iter_gauges(self) -> Iterator[tuple[str, _LabelKey, float]]:
        with self._lock:
            items = list(self._gauges.items())
        for (name, labels), gauge in items:
            yield name, labels, gauge.value

    def iter_histograms(self) -> Iterator[tuple[str, _LabelKey, Histogram]]:
        with self._lock:
            items = list(self._histograms.items())
        for (name, labels), histogram in items:
            yield name, labels, histogram

    def snapshot(self) -> dict[str, dict[str, object]]:
        """A JSON-serialisable view of every instrument."""
        return {
            "counters": {_render_key(name, labels): value
                         for name, labels, value in self.iter_counters()},
            "gauges": {_render_key(name, labels): value
                       for name, labels, value in self.iter_gauges()},
            "histograms": {_render_key(name, labels): hist.snapshot()
                           for name, labels, hist
                           in self.iter_histograms()},
        }

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: list[str] = []
        seen_types: set[str] = set()

        def type_line(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for name, labels, value in self.iter_counters():
            prom = _prom_name(name)
            type_line(prom, "counter")
            lines.append(f"{prom}{_prom_labels(labels)} {value:g}")
        for name, labels, value in self.iter_gauges():
            prom = _prom_name(name)
            type_line(prom, "gauge")
            lines.append(f"{prom}{_prom_labels(labels)} {value:g}")
        for name, labels, histogram in self.iter_histograms():
            prom = _prom_name(name)
            type_line(prom, "histogram")
            for le, cumulative in histogram.cumulative_buckets().items():
                lines.append(f"{prom}_bucket"
                             f"{_prom_labels(labels, ('le', le))} "
                             f"{cumulative}")
            lines.append(f"{prom}_sum{_prom_labels(labels)} "
                         f"{histogram.sum:g}")
            lines.append(f"{prom}_count{_prom_labels(labels)} "
                         f"{histogram.count}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every instrument (test isolation; not a serving feature)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def _prom_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "_:" else "_" for c in name)


def _prom_escape(value: str) -> str:
    """Escape a label value per the text exposition format: backslash,
    double quote, and newline would otherwise corrupt the line."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _prom_labels(labels: _LabelKey,
                 extra: tuple[str, str] | None = None) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{_prom_name(k)}="{_prom_escape(v)}"'
                     for k, v in pairs)
    return f"{{{inner}}}"


_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (what the demo server exposes)."""
    return _GLOBAL_REGISTRY
