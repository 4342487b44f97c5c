"""Snapshot-and-diff machinery for the metrics regression sentinel.

``scripts/obs_report.py`` runs a deterministic voice workload, distils
the resulting instruments into a flat snapshot
(:func:`collect_report`), and diffs it against a committed baseline
(:func:`compare_reports`) under per-metric tolerance bands.  The
sentinel turns the quality telemetry into a gate: a change that makes
answers slower, less covered, or more often missing the intended query
fails ``make sentinel`` before it merges, the same way the tracing
overhead gate pins the cost of observability itself.

Tolerance bands are directional — latency regresses *upwards*, truth
coverage regresses *downwards* — and allow the larger of a relative and
an absolute slack, so tiny baselines are not held to sub-noise
precision.  Latency is the only machine-dependent dimension, so only
its band is loose (15%); the quality dimensions are deterministic given
the workload seeds, so their bands are tight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.observability.metrics import MetricsRegistry
from repro.observability.quality import quality_summary

__all__ = [
    "Band",
    "DEFAULT_BANDS",
    "Regression",
    "collect_report",
    "compare_reports",
    "render_regressions",
]

REPORT_VERSION = 1


@dataclass(frozen=True)
class Band:
    """Allowed worsening for one metric family.

    ``direction`` says which way is worse: ``"higher"`` (latency,
    costs, error counts) or ``"lower"`` (coverage, hit rates).  The
    allowed slack is ``max(rel * |baseline|, absolute)``.
    """

    rel: float
    absolute: float
    direction: str = "higher"

    def allowed(self, baseline: float) -> float:
        return max(self.rel * abs(baseline), self.absolute)

    def worsening(self, baseline: float, current: float) -> float:
        """How far *current* moved in the bad direction (<= 0 is
        an improvement)."""
        delta = current - baseline
        return delta if self.direction == "higher" else -delta


#: Ordered (prefix, band) rules; the longest matching prefix governs a
#: key, so a specific rule can carve an exception out of a family rule.
DEFAULT_BANDS: tuple[tuple[str, Band], ...] = (
    ("latency.", Band(rel=0.15, absolute=3.0, direction="higher")),
    ("quality.truth_coverage",
     Band(rel=0.0, absolute=0.02, direction="lower")),
    ("quality.highlight_coverage",
     Band(rel=0.0, absolute=0.05, direction="lower")),
    ("quality.realized_cost_ms",
     Band(rel=0.10, absolute=100.0, direction="higher")),
    ("quality.cost_drift_ms",
     Band(rel=0.0, absolute=250.0, direction="higher")),
    ("quality.degraded_rate",
     Band(rel=0.0, absolute=0.02, direction="higher")),
    ("quality.intended_highlighted_rate",
     Band(rel=0.0, absolute=0.05, direction="lower")),
    ("quality.intended_missing_rate",
     Band(rel=0.0, absolute=0.05, direction="higher")),
    ("user_sim.read_ms", Band(rel=0.10, absolute=100.0,
                              direction="higher")),
    ("user_sim.found_rate", Band(rel=0.0, absolute=0.02,
                                 direction="lower")),
    ("errors.", Band(rel=0.0, absolute=0.0, direction="higher")),
)


@dataclass(frozen=True)
class Regression:
    """One metric that moved outside its tolerance band."""

    key: str
    baseline: float
    current: float
    allowed: float
    direction: str

    def describe(self) -> str:
        arrow = "rose" if self.direction == "higher" else "fell"
        return (f"{self.key}: {arrow} from {self.baseline:.4f} to "
                f"{self.current:.4f} (allowed slack {self.allowed:.4f})")


# ----------------------------------------------------------------------
# Collection


def collect_report(metrics: MetricsRegistry,
                   meta: dict[str, Any] | None = None,
                   extra: dict[str, float] | None = None,
                   ) -> dict[str, Any]:
    """Distil *metrics* into the flat snapshot the sentinel diffs.

    Only dimensions with a tolerance rule are worth collecting; the
    full registry snapshot stays available at ``/api/metrics`` for
    humans, this is the machine-comparable subset.  *extra* entries are
    merged last and win on collision — the sentinel script uses this to
    replace the bucket-interpolated registry latencies with exact
    quantiles over its own raw timings (bucket interpolation quantizes
    p95 too coarsely to gate on).
    """
    flat: dict[str, float] = {}
    for name, labels, histogram in metrics.iter_histograms():
        if histogram.count == 0:
            continue
        label_map = dict(labels)
        if name == "muve_request_ms":
            request = label_map.get("request", "ask")
            flat[f"latency.{request}.p50_ms"] = \
                round(histogram.percentile(0.50), 4)
            flat[f"latency.{request}.p95_ms"] = \
                round(histogram.percentile(0.95), 4)
            flat[f"latency.{request}.mean_ms"] = \
                round(histogram.mean, 4)
        elif name == "user_sim_read_ms":
            target = label_map.get("target", "any")
            flat[f"user_sim.read_ms.{target}.mean"] = \
                round(histogram.mean, 4)
    quality = quality_summary(metrics)
    for key, stats in quality["histograms"].items():
        base, _, request = key.partition(".")
        suffix = f".{request}" if request else ""
        flat[f"quality.{base}{suffix}.mean"] = stats["mean"]
    if quality["requests"]:
        flat["quality.degraded_rate"] = round(
            quality["degraded_rate"], 6)
        outcomes = quality["intended_outcomes"]
        known = sum(count for outcome, count in outcomes.items()
                    if outcome != "unknown")
        if known:
            flat["quality.intended_highlighted_rate"] = round(
                outcomes.get("highlighted", 0.0) / known, 6)
            flat["quality.intended_missing_rate"] = round(
                outcomes.get("missing", 0.0) / known, 6)
    sim_outcomes: dict[str, float] = {}
    errors = 0.0
    for name, labels, value in metrics.iter_counters():
        if name == "user_sim_outcomes":
            sim_outcomes[dict(labels).get("target", "any")] = value
        elif name == "errors":
            errors += value
    if sim_outcomes:
        total = sum(sim_outcomes.values())
        found = total - sim_outcomes.get("missing", 0.0)
        flat["user_sim.found_rate"] = round(found / total, 6)
    flat["errors.total"] = errors
    flat.update(extra or {})
    return {
        "version": REPORT_VERSION,
        "meta": dict(meta or {}),
        "metrics": flat,
    }


# ----------------------------------------------------------------------
# Comparison


def _band_for(key: str,
              bands: tuple[tuple[str, Band], ...]) -> Band | None:
    best: tuple[int, Band] | None = None
    for prefix, band in bands:
        if key.startswith(prefix):
            if best is None or len(prefix) > best[0]:
                best = (len(prefix), band)
    return best[1] if best is not None else None


def compare_reports(baseline: dict[str, Any], current: dict[str, Any],
                    bands: tuple[tuple[str, Band], ...] = DEFAULT_BANDS,
                    ) -> list[Regression]:
    """Every baseline metric that worsened beyond its band.

    A key present in the baseline but absent from the current run is a
    regression too (the instrument disappeared — usually a renamed
    metric silently dropping out of the gate); keys new in the current
    run are ignored, they will be judged once a baseline contains them.
    """
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    regressions: list[Regression] = []
    for key, base_value in sorted(base_metrics.items()):
        band = _band_for(key, bands)
        if band is None:
            continue
        cur_value = cur_metrics.get(key)
        if cur_value is None:
            regressions.append(Regression(
                key=key, baseline=float(base_value),
                current=float("nan"), allowed=band.allowed(base_value),
                direction=band.direction))
            continue
        worsening = band.worsening(float(base_value), float(cur_value))
        if worsening > band.allowed(float(base_value)):
            regressions.append(Regression(
                key=key, baseline=float(base_value),
                current=float(cur_value),
                allowed=band.allowed(float(base_value)),
                direction=band.direction))
    return regressions


def render_regressions(regressions: list[Regression]) -> str:
    if not regressions:
        return "sentinel: no regressions"
    lines = [f"sentinel: {len(regressions)} regression(s)"]
    for regression in regressions:
        lines.append(f"  FAIL {regression.describe()}")
    return "\n".join(lines)
