"""Command-line interface: voice-style querying from the terminal.

Usage::

    python -m repro --dataset nyc311 --query "average resolution hours \
for borough Brooklyn"
    python -m repro --dataset flights --voice --wer 0.2      # REPL mode

Without ``--query`` an interactive prompt starts; besides natural-language
questions it accepts ``\\sql SELECT ...`` (raw SQL against the engine),
``\\explain SELECT ...`` (the cost-annotated plan), ``\\candidates`` (the
interpretation distribution of the last question) and ``\\quit``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.model import ScreenGeometry
from repro.core.planner import VisualizationPlanner
from repro.datasets.generators import DATASET_GENERATORS
from repro.errors import ReproError
from repro.execution.progressive import (
    ApproximateProcessing,
    DefaultProcessing,
    IncrementalPlotting,
    ProcessingStrategy,
)
from repro.muve import Muve, MuveResponse
from repro.sqldb.database import Database

_STRATEGIES = {
    "default": lambda: DefaultProcessing(),
    "inc-plot": lambda: IncrementalPlotting(),
    "app-1": lambda: ApproximateProcessing(fraction=0.01),
    "app-5": lambda: ApproximateProcessing(fraction=0.05),
    "app-d": lambda: ApproximateProcessing(fraction=None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MUVE: robust voice querying with multiplots")
    parser.add_argument("--dataset", choices=sorted(DATASET_GENERATORS),
                        default="nyc311",
                        help="synthetic dataset to load (default: nyc311)")
    parser.add_argument("--rows", type=int, default=20_000,
                        help="table size in rows (default: 20000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed for data, speech and planning")
    parser.add_argument("--planner", choices=("greedy", "ilp", "best"),
                        default="best", help="solver strategy")
    parser.add_argument("--screen-width", type=int, default=1125,
                        help="screen width in pixels (default: 1125)")
    parser.add_argument("--screen-rows", type=int, default=2,
                        help="multiplot rows (default: 2)")
    parser.add_argument("--processing", choices=sorted(_STRATEGIES),
                        default="default",
                        help="query processing strategy")
    parser.add_argument("--voice", action="store_true",
                        help="route questions through the noisy speech "
                             "channel")
    parser.add_argument("--wer", type=float, default=0.15,
                        help="simulated word error rate with --voice")
    parser.add_argument("--candidates", type=int, default=20,
                        help="number of query interpretations to consider")
    parser.add_argument("--svg", metavar="PATH",
                        help="also write the last multiplot as SVG")
    parser.add_argument("--query", metavar="TEXT",
                        help="answer one question and exit (no REPL)")
    parser.add_argument("--trend", action="store_true",
                        help="treat --query as a trend question "
                             "('... by <column>'), answered with line "
                             "plots")
    parser.add_argument("--serve", metavar="PORT", type=int, nargs="?",
                        const=8000, default=None,
                        help="start the browser demo server instead of "
                             "the REPL (default port 8000)")
    parser.add_argument("--load-test", metavar="N", type=int, default=None,
                        help="issue N questions against one shared "
                             "pipeline and report latency/cache stats "
                             "(uses --query when given, else a built-in "
                             "question mix)")
    parser.add_argument("--workers", type=int, default=1,
                        help="concurrent threads for --load-test "
                             "(default: 1)")
    parser.add_argument("--profile", action="store_true",
                        help="print a per-stage latency breakdown from "
                             "the tracer after --load-test or --query")
    parser.add_argument("--access-log", action="store_true",
                        help="with --serve: write one JSON line per "
                             "HTTP request to stderr")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="per-request latency budget; stages that "
                             "would blow it degrade instead of running "
                             "long (default: MUVE_DEADLINE_MS, else "
                             "none)")
    parser.add_argument("--max-inflight", type=int, default=32,
                        help="with --serve: concurrent /api/ask "
                             "requests before shedding with 429 "
                             "(default: 32)")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="activate deterministic fault injection, "
                             "e.g. 'planner.solve:stall;executor.batch:"
                             "error@0.5' (seeded by --seed; see "
                             "repro.testing.faults)")
    return parser


def make_muve(args: argparse.Namespace) -> Muve:
    if getattr(args, "faults", None):
        from repro.testing.faults import FaultPlan, set_fault_plan
        set_fault_plan(FaultPlan.parse(args.faults, seed=args.seed))
    database = Database(seed=args.seed)
    generator = DATASET_GENERATORS[args.dataset]
    database.register_table(generator(num_rows=args.rows, seed=args.seed))
    geometry = ScreenGeometry(width_pixels=args.screen_width,
                              num_rows=args.screen_rows)
    planner = VisualizationPlanner(strategy=args.planner)
    return Muve(database, args.dataset, geometry=geometry,
                planner=planner, max_candidates=args.candidates,
                word_error_rate=args.wer, seed=args.seed,
                deadline_ms=getattr(args, "deadline_ms", None))


def _load_test_questions(muve: Muve, args: argparse.Namespace,
                         count: int) -> list[str]:
    """The question mix for --load-test: --query verbatim, or a cycled
    pool of spoken workload queries over the loaded table."""
    if args.query is not None:
        return [args.query] * count
    from repro.datasets.workload import WorkloadGenerator
    from repro.experiments.robustness import _speak
    table = muve.database.table(muve.table_name)
    workload = WorkloadGenerator(table, seed=args.seed)
    pool = [_speak(workload.random_query(exact_predicates=1))
            for _ in range(min(count, 20))]
    return [pool[i % len(pool)] for i in range(count)]


def run_load_test(muve: Muve, args: argparse.Namespace, out) -> int:
    """Hammer one shared pipeline from --workers threads; print stats."""
    import time as _time
    from concurrent.futures import ThreadPoolExecutor

    from repro.execution.parallel import warm_database

    count = args.load_test
    if count <= 0:
        print("error: --load-test expects a positive request count",
              file=out)
        return 2
    workers = max(1, args.workers)
    questions = _load_test_questions(muve, args, count)
    latencies: list[float] = []
    errors = 0

    # Build statistics and secondary indexes before timing starts, so
    # the measured latencies reflect steady-state serving rather than
    # first-touch builds.
    built = warm_database(muve.database, [muve.table_name])
    print(f"warmed {built} statistics/index structures", file=out)

    def one(question: str) -> float | None:
        begin = _time.perf_counter()
        try:
            if args.voice:
                muve.ask_voice(question)
            else:
                muve.ask(question)
        except ReproError:
            return None
        return _time.perf_counter() - begin

    # --workers N means exactly N questions in flight.
    started = _time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        outcomes = list(pool.map(one, questions))
    for outcome in outcomes:
        if outcome is None:
            errors += 1
        else:
            latencies.append(outcome)
    wall = _time.perf_counter() - started

    latencies.sort()
    def percentile(p: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1,
                             int(p * len(latencies)))]
    print(f"{len(latencies)} ok, {errors} failed in {wall:.2f} s "
          f"({len(latencies) / wall:.1f} req/s, {workers} worker(s))",
          file=out)
    if latencies:
        print(f"latency ms: p50 {percentile(0.50) * 1000:.1f}  "
              f"p95 {percentile(0.95) * 1000:.1f}  "
              f"max {latencies[-1] * 1000:.1f}", file=out)
    for name, counters in muve.cache_stats().items():
        print(f"cache {name}: {counters['hits']:.0f} hits / "
              f"{counters['misses']:.0f} misses "
              f"(hit rate {counters['hit_rate']:.0%})", file=out)
    if args.profile:
        from repro.observability import render_profile
        from repro.observability.quality import render_quality
        from repro.observability.slo import render_slo
        print(render_profile(), file=out)
        print(render_quality(muve.metrics), file=out)
        print(render_slo(muve.slo), file=out)
    return 0 if errors == 0 else 1


def _answer(muve: Muve, text: str, args: argparse.Namespace,
            strategy: ProcessingStrategy, out) -> MuveResponse:
    if args.voice:
        response = muve.ask_voice(text, strategy=strategy)
        if response.transcript != text:
            print(f"(heard: {response.transcript})", file=out)
    else:
        response = muve.ask(text, strategy=strategy)
    print(f"(interpreted as: {response.seed_query.to_sql()})", file=out)
    print(f"(planned by {response.planning.solver_name} in "
          f"{response.planning.elapsed_seconds * 1000:.0f} ms; "
          f"{len(response.candidates)} interpretations covered)", file=out)
    for event in response.degradations:
        detail = f": {event.detail}" if event.detail else ""
        print(f"(degraded: {event.site} {event.action} "
              f"[{event.reason}]{detail})", file=out)
    print(response.to_text(), file=out)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(response.to_svg())
        print(f"(wrote {args.svg})", file=out)
    return response


def _answer_trend(muve: Muve, text: str, args: argparse.Namespace,
                  out) -> None:
    response = muve.ask_trend(text)
    print(f"(interpreted as: {response.seed_query.to_sql()} "
          f"BY {response.x_column})", file=out)
    print(response.to_text(), file=out)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(response.to_svg())
        print(f"(wrote {args.svg})", file=out)


def _handle_command(muve: Muve, line: str,
                    last_response: MuveResponse | None, out) -> bool:
    """Backslash commands; returns False when the REPL should stop."""
    command, _, rest = line.partition(" ")
    if command in ("\\quit", "\\q", "\\exit"):
        return False
    if command == "\\trend":
        _answer_trend(muve, rest,
                      argparse.Namespace(svg=None), out)
        return True
    if command == "\\sql":
        result = muve.database.execute(rest)
        print("  ".join(result.columns), file=out)
        for row in result.rows[:50]:
            print("  ".join(str(v) for v in row), file=out)
        print(f"({len(result.rows)} row(s) in "
              f"{result.elapsed_seconds * 1000:.1f} ms)", file=out)
    elif command == "\\explain":
        print(muve.database.explain(rest).render(), file=out)
    elif command == "\\candidates":
        if last_response is None:
            print("no question asked yet", file=out)
        else:
            for candidate in last_response.candidates:
                print(f"  {candidate.probability:6.4f}  "
                      f"{candidate.query.to_sql()}", file=out)
    else:
        print(f"unknown command {command!r} "
              "(try \\sql, \\explain, \\candidates, \\trend, \\quit)",
              file=out)
    return True


def main(argv: Sequence[str] | None = None, *, stdin=None,
         stdout=None) -> int:
    args = build_parser().parse_args(argv)
    out = stdout if stdout is not None else sys.stdout
    source = stdin if stdin is not None else sys.stdin
    try:
        muve = make_muve(args)
    except ReproError as exc:
        print(f"error: {exc}", file=out)
        return 2
    strategy = _STRATEGIES[args.processing]()

    if args.load_test is not None:
        return run_load_test(muve, args, out)

    if args.serve is not None:
        from repro.demo import MuveDemoServer
        demo = MuveDemoServer(muve, port=args.serve,
                              access_log=args.access_log,
                              max_inflight=args.max_inflight)
        print(f"MUVE demo on {demo.url} (Ctrl-C to stop)", file=out)
        try:
            demo.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive
            demo.shutdown()
        return 0

    if args.query is not None:
        try:
            if args.trend:
                _answer_trend(muve, args.query, args, out)
            else:
                _answer(muve, args.query, args, strategy, out)
        except ReproError as exc:
            print(f"error: {exc}", file=out)
            return 1
        if args.profile:
            from repro.observability import render_profile
            from repro.observability.quality import render_quality
            from repro.observability.slo import render_slo
            print(render_profile(), file=out)
            print(render_quality(muve.metrics), file=out)
            print(render_slo(muve.slo), file=out)
        return 0

    print(f"MUVE on {args.dataset} ({args.rows} rows). Ask questions in "
          "plain language; \\quit exits.", file=out)
    last_response: MuveResponse | None = None
    for line in source:
        line = line.strip()
        if not line:
            continue
        if line.startswith("\\"):
            try:
                if not _handle_command(muve, line, last_response, out):
                    break
            except ReproError as exc:
                print(f"error: {exc}", file=out)
            continue
        try:
            last_response = _answer(muve, line, args, strategy, out)
        except ReproError as exc:
            print(f"error: {exc}", file=out)
    return 0
