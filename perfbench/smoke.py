"""Seconds-long smoke test of the benchmark itself.

Runs every workload of ``BENCHMARK.json`` end to end at a small table
size, untraced and traced, under two seeds, each in its own process.
Checks that each run exits 0, that its last line has exactly the agreed
keys, that every metric ``BENCHMARK.json`` names is printed with its
unit, and that both seeds print the same set of metrics.  Also checks
that ``metric_map.json`` maps exactly the per-layer metrics.

    python3 perfbench/run.py --smoke
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SMOKE_ROWS = 5_000
SEEDS = (1, 2)


def run_smoke() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    mapping = json.loads((HERE / "metric_map.json").read_text(
        encoding="utf-8"))
    if set(mapping["per_layer"]) != set(wanted[1]):
        problems.append("metric_map.json per_layer keys differ from "
                        "BENCHMARK.json per_layer names")
    for workload in spec["workloads"]:
        name = workload["name"]
        printed = {}
        for seed in SEEDS:
            for trace in (0, 1):
                label = f"{name} seed {seed} trace {trace}"
                result, error = _one_run(name, seed, trace)
                if error:
                    problems.append(f"{label}: {error}")
                    continue
                metrics = result["metrics"]
                printed[seed, trace] = set(metrics)
                for metric, unit in wanted[trace].items():
                    entry = metrics.get(metric)
                    if entry is None:
                        problems.append(f"{label}: {metric} missing")
                    elif entry.get("unit") != unit or not math.isfinite(
                            entry.get("value", math.nan)):
                        problems.append(f"{label}: {metric} = {entry}")
                extra = set(metrics) - set(wanted[trace])
                if extra:
                    problems.append(f"{label}: unlisted {sorted(extra)}")
                print(f"smoke {label}: {result['attempted']} attempted, "
                      f"{result['failed']} failed, {len(metrics)} metrics",
                      flush=True)
        for trace in (0, 1):
            sets = {frozenset(printed[s, trace]) for s in SEEDS
                    if (s, trace) in printed}
            if len(sets) > 1:
                problems.append(f"{name} trace {trace}: seeds print "
                                "different metric sets")
    for problem in problems:
        print(f"smoke FAIL {problem}", file=sys.stderr)
    print("smoke " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def _one_run(workload: str, seed: int, trace: int):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--rows", str(SMOKE_ROWS)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if done.returncode != 0:
        return None, f"exit {done.returncode}: {done.stderr.strip()[-500:]}"
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, f"keys {sorted(result)}"
    if result["correct"] is not True or result["attempted"] < 1:
        return None, f"correct={result['correct']} " \
                     f"attempted={result['attempted']}"
    return result, None
