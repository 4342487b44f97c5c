"""The metrics regression sentinel (``make sentinel``).

Runs a deterministic simulated-voice workload (the Figure 7 shape:
random queries from the workload generator, spoken through the noisy
channel, answered by the full pipeline, then disambiguated by the
Section 4 simulated user), distils the resulting telemetry into a flat
snapshot, and either writes it or diffs it against a committed
baseline::

    python scripts/obs_report.py --snapshot BENCH_quality.json
    python scripts/obs_report.py --check BENCH_quality.json

``--check`` exits 1 when any metric moved outside its tolerance band
(``DEFAULT_BANDS`` in :mod:`repro.observability.report`): latency up
beyond the 15% relative band, truth coverage down, intended queries
missing more often, the simulated user reading longer, any errors at
all.  The workload is seeded, so every quality dimension is
bit-identical run to run — only latency is machine-dependent, and only
latency has a loose band.

Self-test hooks::

    --inject-latency 0.2    inflate the measured latencies by 20%
                            before comparing (must make --check fail)
    --current PATH          compare an existing snapshot file instead
                            of running the workload

The workload: ``REQUESTS`` (40) questions per round on ``ROWS`` (4,000)
nyc311 rows, ``ROUNDS`` (3) cold-cache rounds.
"""

from __future__ import annotations

import argparse
import json
import time

from repro.core.model import ScreenGeometry
from repro.core.planner import VisualizationPlanner
from repro.datasets.generators import DATASET_GENERATORS
from repro.datasets.workload import WorkloadGenerator
from repro.experiments.robustness import _speak
from repro.muve import Muve
from repro.observability import get_workload_analytics
from repro.observability.metrics import MetricsRegistry
from repro.observability.report import (
    collect_report,
    compare_reports,
    render_regressions,
)
from repro.observability.slo import SloEngine
from repro.sqldb.database import Database
from repro.users.simulator import SimulatedUser

ROWS = 4000
REQUESTS = 40
ROUNDS = 3


def build_muve(rows: int, registry: MetricsRegistry, slo: SloEngine,
               seed: int = 0) -> Muve:
    database = Database(seed=seed)
    generator = DATASET_GENERATORS["nyc311"]
    database.register_table(generator(num_rows=rows, seed=seed))
    # Greedy planner: the sentinel gates quality drift and latency, not
    # solver choice, and greedy keeps the rounds fast and deterministic.
    return Muve(database, "nyc311", seed=seed,
                geometry=ScreenGeometry(),
                planner=VisualizationPlanner(strategy="greedy"),
                metrics=registry, slo=slo)


def run_workload(rows: int, count: int, rounds: int,
                 ) -> tuple[MetricsRegistry, list[list[float]]]:
    """The seeded voice workload, *rounds* cold-cache repetitions.

    Every round builds a fresh pipeline (fresh caches) over the same
    data and asks the same spoken questions with the ground-truth query
    attached, then lets the simulated user disambiguate each answer —
    so the registry accumulates the full quality picture: coverage,
    costs, intended-outcome rates, and realized reading times.  The
    second return value is each round's raw per-request latencies.
    """
    registry = MetricsRegistry()
    slo = SloEngine()
    get_workload_analytics().reset()
    latencies: list[list[float]] = []
    for round_index in range(rounds):
        muve = build_muve(rows, registry, slo)
        table = muve.database.table(muve.table_name)
        workload = WorkloadGenerator(table, seed=17)
        user = SimulatedUser(seed=23, metrics=registry)
        targets = [workload.random_query(exact_predicates=1)
                   for _ in range(count)]
        round_ms: list[float] = []
        for target in targets:
            begin = time.perf_counter()
            response = muve.ask_voice(_speak(target), intended=target)
            round_ms.append((time.perf_counter() - begin) * 1000.0)
            user.disambiguate(response.multiplot, target)
        latencies.append(round_ms)
    return registry, latencies


def _latency_stats(latencies: list[list[float]]) -> dict[str, float]:
    """Exact best-of-rounds quantiles over the raw timings.

    Per round the work is identical (same questions, cold caches), so
    the minimum across rounds is the scheduler-noise-free estimate —
    the same best-of idiom the tracing overhead gate uses.  Exact
    quantiles over the raw samples avoid the bucket quantization that
    makes histogram-interpolated p95 jump between bucket edges.
    """
    def quantile(sorted_ms: list[float], fraction: float) -> float:
        index = min(len(sorted_ms) - 1,
                    int(fraction * len(sorted_ms)))
        return sorted_ms[index]

    per_round = []
    for round_ms in latencies:
        ordered = sorted(round_ms)
        per_round.append((quantile(ordered, 0.50),
                          quantile(ordered, 0.95),
                          sum(ordered) / len(ordered)))
    return {
        "latency.ask_voice.p50_ms": round(
            min(stats[0] for stats in per_round), 4),
        "latency.ask_voice.p95_ms": round(
            min(stats[1] for stats in per_round), 4),
        "latency.ask_voice.mean_ms": round(
            min(stats[2] for stats in per_round), 4),
    }


def _inflate_latency(report: dict, fraction: float) -> dict:
    """The sentinel's self-test: a synthetic latency regression.

    Scales every ``latency.*`` entry of *report* by ``1 + fraction`` —
    exactly what a real slowdown of that size would produce — so the
    comparison path can be verified to fail without depending on a
    machine actually getting slower.
    """
    metrics = dict(report["metrics"])
    for key, value in metrics.items():
        if key.startswith("latency."):
            metrics[key] = round(value * (1.0 + fraction), 4)
    return {**report, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--snapshot", metavar="PATH",
                        help="run the workload and write the snapshot")
    parser.add_argument("--check", metavar="BASELINE",
                        help="run the workload (or read --current) and "
                             "diff against BASELINE; exit 1 on "
                             "regression")
    parser.add_argument("--current", metavar="PATH",
                        help="with --check: compare this snapshot file "
                             "instead of running the workload")
    parser.add_argument("--inject-latency", type=float, default=0.0,
                        metavar="FRACTION",
                        help="inflate measured latencies by FRACTION "
                             "(sentinel self-test)")
    args = parser.parse_args(argv)
    if not args.snapshot and not args.check:
        parser.error("one of --snapshot or --check is required")

    if args.check and args.current:
        with open(args.current, encoding="utf-8") as handle:
            report = json.load(handle)
    else:
        registry, latencies = run_workload(ROWS, REQUESTS, ROUNDS)
        report = collect_report(
            registry,
            meta={"rows": ROWS, "requests_per_round": REQUESTS,
                  "rounds": ROUNDS},
            extra=_latency_stats(latencies))
    if args.inject_latency:
        report = _inflate_latency(report, args.inject_latency)

    if args.snapshot:
        with open(args.snapshot, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(report['metrics'])} metrics to "
              f"{args.snapshot}")

    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            baseline = json.load(handle)
        regressions = compare_reports(baseline, report)
        print(render_regressions(regressions))
        if regressions:
            return 1
        improved = sum(
            1 for key, base in baseline["metrics"].items()
            if key in report["metrics"]
            and report["metrics"][key] != base)
        print(f"OK: {len(baseline['metrics'])} metrics within "
              f"tolerance ({improved} moved, none past their band)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
