"""MUVE voice benchmark: one closed-loop client calling ``Muve.ask_voice``.

Run from the repository root:

    python3 perfbench/run.py --workload voice-append-200k --seed 1 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

A voice user waits for each answer before asking the next question, so
one client thread asks, waits, renders the answer and asks again.  Each
run sets MUVE up three times (data generation, ``Muve()``, and the
program's own warm-up, ``repro.execution.warm_database``) and reports the
median as ``setup_s``; the last set-up serves the timed loop.

``--trace 0`` prints the end-to-end metrics of the untraced loop.  The
result line carries the three ``BENCHMARK.json`` gates (``asks_per_s``,
``setup_s``, ``peak_rss_mb``); the others are printed as ``e2e`` lines:
``ask_p50_ms`` and ``ask_p90_ms`` (on voice-best-20k they sit among ILP
solves ending near the planner's 1 s limit, too unsteady to gate),
``ask_p95_ms`` (inside the after-append mode on voice-append-200k),
``append_p50_ms``, ``error_share`` (the result line's failed/attempted),
``realized_cost_ms`` (mean per distinct question, then over questions; it
moves only when an ILP solve times out, so it can read the same on every
run) and ``intended_shown_share``.  ``metric_map.json`` maps each
per-layer metric to the end-to-end metrics it should move, per workload.
``--trace 1`` runs the same untraced loop, then replays its exact
question and append sequence on a fresh set-up with a span around every
layer entry point (see ``spans.py``), and prints per-layer self times,
cache hit rates, rebuild costs and the tracing overhead.  Rebuild costs
come from probe appends after the replay, each followed by forcing every
rebuild the next ask would pay, so the replay itself stays exact.

Every answer is checked (see ``check.py``); a wrong or malformed answer
exits 1 without printing metrics, except the one known defect ``check.py``
counts as a failed ask.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from check import Checker
from spans import Tracer, instrument
from workloads import TABLE, WORKLOADS, Inputs, Workload

#: Raw ask latencies and span dumps, written when a run ends.
OUTPUT_DIR = Path(".perfbench")

#: Per-layer span name -> metric prefix (self ms per ask).
ASK_LAYERS = ("nlq.speech", "nlq.translate", "nlq.candidates", "core.greedy",
              "core.ilp", "execution.merge_plan", "execution.run",
              "viz.render")
REBUILDS = ("sqldb.rebuild.statistics", "sqldb.rebuild.dictionaries",
            "sqldb.rebuild.indexes", "nlq.rebuild.vocabulary")
CACHES = ("plans", "query_results", "statements", "phonetic_probes")
PROBE_APPENDS = 3
SETUPS = 3  # setup_s is their median


class BenchmarkError(Exception):
    """The run cannot produce trustworthy metrics."""


@dataclass
class LoopResult:
    ask_ms: list[float] = field(default_factory=list)  # inf when failed
    append_ms: list[float] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    signatures: list = field(default_factory=list)     # None when failed
    quality: dict = field(default_factory=dict)        # ask -> record
    queries: list = field(default_factory=list)        # intended, per ask
    timed_s: float = 0.0

    @property
    def asks(self) -> int:
        return len(self.ask_ms)

    @property
    def ok_asks(self) -> int:
        return sum(1 for ms in self.ask_ms if math.isfinite(ms))

    @property
    def attempted(self) -> int:
        return len(self.ask_ms) + len(self.append_ms)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def wrong(self, asks: set[int]) -> None:
        """Count answers that showed a wrong value through the known
        defect (see ``check.py``) as failed asks."""
        for ask in asks:
            self.failures["WrongBarValue"] += 1
            self.ask_ms[ask] = math.inf
            del self.quality[ask]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=None,
                        help="override the workload's table size")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly at small sizes "
                             "and check the printed metrics")
    args = parser.parse_args(argv)
    if args.smoke:
        from smoke import run_smoke
        return run_smoke()
    if args.workload is None:
        parser.error("--workload is required")

    stray = sorted(key for key in os.environ if key.startswith("MUVE_"))
    if stray:
        print(f"perfbench: refusing to run with {', '.join(stray)} set: "
              "it would change the program being measured",
              file=sys.stderr)
        return 2
    source = Path.cwd() / "src"
    if not (source / "repro" / "muve.py").is_file():
        print("perfbench: no src/repro under the current directory; run "
              "from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    workload = WORKLOADS[args.workload]
    rows = args.rows or workload.rows
    try:
        metrics, attempted, failed = run(workload, rows, args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run(workload: Workload, rows: int, args) -> tuple[dict, int, int]:
    import numpy as np
    seed_stream = np.random.SeedSequence([args.seed, 0x6D757665])
    table_seed = int(seed_stream.generate_state(1)[0])
    print(json.dumps({"host": host_info(workload, rows, args)}))

    setups = []
    muve = None
    for _ in range(SETUPS):
        muve = None
        gc.collect()
        muve, timings = set_up(workload, rows, table_seed)
        setups.append(timings)
    inputs = Inputs(workload, args.seed, muve.database.table(TABLE))

    untraced = closed_loop(muve, inputs, args.seconds)
    cache_stats = muve.cache_stats()
    OUTPUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUTPUT_DIR / f"asks-{stem}.txt").write_text(
        "".join(f"{ms:.3f}\n" for ms in untraced.ask_ms), encoding="utf-8")
    report = end_to_end(untraced, setups)
    print_report(workload, untraced, report)
    if not args.trace:
        return gated(report), untraced.attempted, untraced.failed

    muve = None
    gc.collect()
    muve, timings = set_up(workload, rows, table_seed)
    setups.append(timings)
    tracer = Tracer()
    with instrument(tracer):
        traced = closed_loop(muve, inputs, math.inf, asks=untraced.asks,
                             tracer=tracer)
        for probe in range(PROBE_APPENDS):
            append(muve, inputs, 10_000 + probe, LoopResult())
            force_rebuilds(muve.database, tracer)
    # ILP solves stop on a wall-clock limit, so only greedy plans must
    # replay identically.
    if workload.strategy == "greedy" \
            and traced.signatures != untraced.signatures:
        differing = [i for i, (a, b) in enumerate(
            zip(untraced.signatures, traced.signatures)) if a != b]
        raise BenchmarkError(
            f"the traced run served different plots on asks {differing[:10]}")
    tracer.dump(OUTPUT_DIR / f"spans-{stem}.tsv")
    layers = per_layer(tracer, traced, untraced, cache_stats, setups)
    for name, entry in layers.items():
        print(f"layer {name} = {entry['value']:.6g} {entry['unit']}")
    return layers, traced.attempted, traced.failed


def host_info(workload: Workload, rows: int, args) -> dict:
    import numpy
    import scipy
    from repro.execution.parallel import default_workers
    return {"workload": workload.name, "rows": rows, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "execution_pool_workers": default_workers(),
            "machine": platform.machine()}


def set_up(workload: Workload, rows: int, table_seed: int):
    """Generate the table, build ``Muve`` and warm it; returns the
    pipeline and the three phase times in seconds."""
    from repro.core.planner import VisualizationPlanner
    from repro.datasets.generators import make_nyc311_table
    from repro.execution.parallel import warm_database
    from repro.muve import Muve
    from repro.sqldb.database import Database
    begin = time.perf_counter()
    table = make_nyc311_table(rows, seed=table_seed)
    generated = time.perf_counter()
    database = Database()
    database.register_table(table)
    muve = Muve(database, TABLE,
                planner=VisualizationPlanner(strategy=workload.strategy))
    built = time.perf_counter()
    warm_database(database, [TABLE])
    warmed = time.perf_counter()
    return muve, {"table_s": generated - begin, "muve_s": built - generated,
                  "warm_s": warmed - built}


def closed_loop(muve, inputs: Inputs, seconds: float, asks: int | None = None,
                tracer: Tracer | None = None) -> LoopResult:
    """Ask until *seconds* of timed work (or exactly *asks* asks).

    Only the asks and appends are timed; the checker's work between them
    is not.  An append runs before every ``append_every``-th ask.
    """
    workload = inputs.workload
    checker = Checker(muve.database)
    result = LoopResult()
    index = 0
    while index < len(inputs) and (
            result.timed_s < seconds if asks is None else index < asks):
        if inputs.new_pass(index):
            muve.invalidate_caches()  # so the pass misses the plan cache
        if workload.append_every and index \
                and index % workload.append_every == 0:
            result.wrong(checker.verify())
            checker.data_changed()
            append(muve, inputs, index // workload.append_every - 1,
                   result)
        question = inputs.question(index)
        result.queries.append(question.query)
        if tracer is not None:
            tracer.ask = index
        span = tracer.span("ask") if tracer is not None else nullcontext()
        begin = time.perf_counter()
        try:
            with span:
                response = muve.ask_voice(question.utterance,
                                          intended=question.query)
                response.to_svg()
        except Exception as exc:  # every failure is counted, never hidden
            elapsed = time.perf_counter() - begin
            result.failures[type(exc).__name__] += 1
            result.ask_ms.append(math.inf)
            result.signatures.append(None)
        else:
            elapsed = time.perf_counter() - begin
            result.ask_ms.append(elapsed * 1000.0)
            result.signatures.append(checker.response(index, response))
            result.quality[index] = response.quality
        result.timed_s += elapsed
        if tracer is not None:
            tracer.ask = None
        index += 1
    result.wrong(checker.verify())
    if checker.failures:
        raise BenchmarkError(
            f"{len(checker.failures)} wrong or malformed answers "
            f"({checker.bars_checked} bars checked):\n  "
            + "\n  ".join(checker.failures[:20]))
    if result.ok_asks == 0:
        raise BenchmarkError("no ask succeeded")
    return result


def append(muve, inputs: Inputs, batch: int, result: LoopResult) -> None:
    """Insert one block of rows and invalidate MUVE's caches, the
    documented way to mutate data."""
    rows = inputs.append_batch(batch)
    begin = time.perf_counter()
    try:
        muve.database.insert_rows(TABLE, rows)
        muve.invalidate_caches()
    except Exception as exc:  # counted like a failed ask
        result.failures[type(exc).__name__] += 1
        result.append_ms.append(math.inf)
        result.timed_s += time.perf_counter() - begin
        return
    result.append_ms.append((time.perf_counter() - begin) * 1000.0)
    result.timed_s += time.perf_counter() - begin


def force_rebuilds(database, tracer: Tracer) -> None:
    """Rebuild what an append invalidated, one span per structure."""
    from repro.sqldb.types import DataType
    table = database.table(TABLE)
    columns = table.schema.columns
    with tracer.span("sqldb.rebuild.statistics"):
        database.statistics(TABLE)
    with tracer.span("sqldb.rebuild.dictionaries"):
        for column in table.schema.text_columns():
            table.dictionary(column.name)
    with tracer.span("sqldb.rebuild.indexes"):
        indexes = table.indexes()
        for column in columns:
            indexes.inverted(column.name)
            if column.dtype in (DataType.INT, DataType.FLOAT):
                indexes.sorted_projection(column.name)
    with tracer.span("nlq.rebuild.vocabulary"):
        database.vocabulary(TABLE)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile; failed operations (inf) rank slowest."""
    ordered = sorted(values)
    value = ordered[max(1, math.ceil(fraction * len(ordered))) - 1]
    if not math.isfinite(value):
        raise BenchmarkError(
            f"p{fraction * 100:g} of {len(values)} operations falls on a "
            "failed one")
    return value


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(loop: LoopResult, setups: list[dict]) -> dict:
    """Every end-to-end figure of the untraced loop, gated or not."""
    shown = sum(1 for q in loop.quality.values()
                if q.intended_outcome in ("highlighted", "shown"))
    # Realized cost is averaged per distinct question, then over
    # questions, so the head of the Zipf mix does not decide it alone.
    costs: dict = {}
    for ask, record in loop.quality.items():
        costs.setdefault(loop.queries[ask], []).append(
            record.realized_cost_ms)
    report = {
        "asks_per_s": (loop.ok_asks / loop.timed_s, "1/s"),
        "ask_p50_ms": (percentile(loop.ask_ms, 0.50), "ms"),
        "ask_p90_ms": (percentile(loop.ask_ms, 0.90), "ms"),
        "ask_p95_ms": (percentile(loop.ask_ms, 0.95), "ms"),
        "error_share": (loop.failed / loop.attempted, "ratio"),
        "realized_cost_ms": (statistics.fmean(
            statistics.fmean(c) for c in costs.values()), "ms"),
        "intended_shown_share": (shown / loop.asks, "ratio"),
        "setup_s": (statistics.median(sum(s.values()) for s in setups),
                    "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if loop.append_ms:
        report["append_p50_ms"] = (percentile(loop.append_ms, 0.50), "ms")
    return report


#: The end-to-end metrics BENCHMARK.json gates, on every workload.
GATED = ("asks_per_s", "setup_s", "peak_rss_mb")


def gated(report: dict) -> dict:
    return {name: {"value": report[name][0], "unit": report[name][1]}
            for name in GATED}


def print_report(workload: Workload, loop: LoopResult, report: dict) -> None:
    print(f"{workload.name}: {loop.asks} asks, {len(loop.append_ms)} "
          f"appends, {loop.failed} failed {dict(loop.failures)} in "
          f"{loop.timed_s:.2f} s timed")
    for name, (value, unit) in report.items():
        print(f"e2e {name} = {value:.6g} {unit}")


def per_layer(tracer: Tracer, traced: LoopResult, untraced: LoopResult,
              cache_stats: dict, setups: list[dict]) -> dict:
    """Layer self times (children subtracted) as mean ms per ask of the
    traced replay; rebuilds as means over the probe appends; shares are 0
    where the layer never runs."""
    asks = traced.asks
    self_ms: Counter = Counter()
    by_name: dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
        if span.ask is not None:
            self_ms[span.name] += span.self_ms
    metrics: dict[str, tuple[float, str]] = {}
    for layer in ASK_LAYERS:
        metrics[f"{layer}.ms"] = (self_ms[layer] / asks, "ms")
    metrics["pipeline.other.ms"] = (self_ms["ask"] / asks, "ms")

    # A layer call that raised has a span but no result attributes.
    def solved(name: str) -> list:
        return [s for s in by_name.get(name, []) if "cost" in s.attrs]

    ilp = solved("core.ilp")
    metrics["core.ilp.timeout_share"] = (
        sum(1 for s in ilp if s.attrs["timed_out"]) / len(ilp)
        if ilp else 0.0, "ratio")
    greedy_cost = {s.ask: s.attrs["cost"] for s in solved("core.greedy")}
    upgrades = sum(1 for s in ilp
                   if s.attrs["cost"] < greedy_cost.get(s.ask, math.inf))
    metrics["core.ilp.upgrade_share"] = (upgrades / asks, "ratio")
    for metric, name, attribute in (
            ("execution.groups", "execution.merge_plan", "groups"),
            ("nlq.candidates.count", "nlq.candidates", "count")):
        metrics[metric] = (sum(s.attrs.get(attribute, 0)
                               for s in by_name.get(name, [])) / asks,
                           "count")
    for cache in CACHES:
        metrics[f"caching.{cache}.hit_rate"] = (
            cache_stats[cache]["hit_rate"], "ratio")
    inserts = [s.self_ms for s in by_name.get("sqldb.insert", [])]
    metrics["sqldb.insert.ms"] = (statistics.fmean(inserts), "ms")
    for rebuild in REBUILDS:
        metrics[f"{rebuild}_ms"] = (statistics.fmean(
            s.self_ms for s in by_name[rebuild]), "ms")
    for phase in ("table_s", "muve_s", "warm_s"):
        metrics[f"setup.{phase}"] = (
            statistics.median(s[phase] for s in setups), "s")
    traced_rate = traced.ok_asks / traced.timed_s
    metrics["trace.asks_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead"] = (
        1.0 - traced_rate * untraced.timed_s / untraced.ok_asks, "ratio")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
