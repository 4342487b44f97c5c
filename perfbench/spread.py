"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py voice-append-200k --seeds 1-10 \\
        --seconds 40 [--trace 1]

Runs ``run.py`` once per seed, one after another, and prints for every
metric its median and the distance between its first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  For an end-to-end metric other than ``setup_s`` that share must
stay within the metric's ``bound`` in ``BENCHMARK.json`` (verdict ``ok`` or
``OVER``); ``steady`` marks a share below a third of the bound, the margin
the bounds aim for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", default="1-5",
                        help="inclusive range such as 1-10")
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    # The spread of setup_s is not gated, only its median.
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]
              if m["name"] != "setup_s"}

    values: dict[str, list[float]] = {}
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace], capture_output=True, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: " + json.dumps(
            {k: round(v["value"], 4) for k, v in result["metrics"].items()}),
            flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])

    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f"  bound {bound}  {'ok' if share <= bound else 'OVER'}"
            f"{'  steady' if share < bound / 3 else ''}")
        print(f"{name:36s} median {median:12.5g}  iqr/median "
              f"{share:7.4f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
