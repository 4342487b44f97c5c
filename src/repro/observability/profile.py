"""Per-stage profile rendering (``muve.cli --profile``).

Turns the request traces the :class:`~repro.observability.TraceLog`
holds into a terminal table: how often each pipeline stage ran, how
much time it took *itself* — its span's duration minus its direct
children's, the subtraction ``perfbench/spans.py`` makes — and exact
p50/p95 of that self time over its calls.  Self times of one request
add up to the request's duration, so the share column adds up to 100%.
This is the before/after instrument every performance PR reads first.
"""

from __future__ import annotations

from repro.observability.tracing import get_trace_log, tracing_enabled

__all__ = ["render_profile"]

#: Root span names that time an entire request; only traces rooted at
#: one of these are profiled (start-up work such as index warming is
#: traced too, but is not request time).
_REQUEST_SPANS = ("request", "muve.ask", "muve.ask_voice",
                  "muve.ask_trend")


def _quantile(ordered: list[float], fraction: float) -> float:
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def render_profile() -> str:
    """A per-stage self-time table over the request traces held."""
    if not tracing_enabled():
        return ("per-stage profile: no data — tracing is disabled "
                "(MUVE_TRACING=off)")
    log = get_trace_log()
    requests = [trace for trace in log.tail(log.capacity)
                if trace.root.name in _REQUEST_SPANS]
    if not requests:
        return "per-stage profile: no requests traced yet"

    self_ms: dict[str, list[float]] = {}
    for trace in requests:
        for span in trace.root.iter_spans():
            own = span.duration_ms - sum(child.duration_ms
                                         for child in span.children)
            self_ms.setdefault(span.name, []).append(own)
    request_total = sum(trace.duration_ms for trace in requests)
    rows = sorted(self_ms.items(), key=lambda item: -sum(item[1]))

    width = max(len("stage"), *(len(stage) for stage, _ in rows))
    header = (f"{'stage':<{width}}  {'calls':>7}  {'self ms':>10}  "
              f"{'mean':>8}  {'p50':>8}  {'p95':>8}  {'share':>6}")
    lines = [f"per-stage profile (self time over the {len(requests)} "
             f"request(s) in the trace log):",
             header, "-" * len(header)]
    for stage, times in rows:
        ordered = sorted(times)
        total = sum(ordered)
        share = total / request_total if request_total else 0.0
        lines.append(
            f"{stage:<{width}}  {len(ordered):>7}  {total:>10.1f}  "
            f"{total / len(ordered):>8.2f}  "
            f"{_quantile(ordered, 0.50):>8.2f}  "
            f"{_quantile(ordered, 0.95):>8.2f}  {share:>6.1%}")
    lines.append(
        "(self time excludes nested stages; shares add up to the total "
        "request time)")
    return "\n".join(lines)
