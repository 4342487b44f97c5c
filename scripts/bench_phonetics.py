"""Phonetic retrieval benchmark (``make bench-phonetics``).

Builds synthetic vocabularies (10k and 100k terms by default, 1M with
``--full``), probes each with pruned exact top-k retrieval and with the
per-term scan oracle (``tests/phonetics/scan_oracle.py``, which scores
every term with ``phonetic_similarity``), verifies the rankings are
identical, and writes ``BENCH_phonetics.json`` with per-probe latency
percentiles and the pruned-over-exhaustive speedup.  Run it from the
repository root with ``PYTHONPATH=src`` (``make bench-phonetics``).

The synthetic vocabulary is deliberately hostile: syllable soup is far
denser in near-homophones than real categorical data (thousands of codes
within a few Jaro-Winkler points of any probe), so pruning effectiveness
measured here is a lower bound on real vocabularies.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time

from repro.phonetics.index import PhoneticIndex

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from tests.phonetics.scan_oracle import exhaustive_scan

PROBES = 20
#: rounds, best kept
ROUNDS = 3
#: probes per scale timed against the exhaustive oracle
EXHAUSTIVE_PROBES = 5
OUTPUT = "BENCH_phonetics.json"

_SYLLABLES = [
    "ba", "be", "bo", "ka", "ke", "ko", "da", "de", "do", "fa", "fe",
    "fo", "ga", "go", "la", "le", "lo", "ma", "me", "mo", "na", "ne",
    "no", "pa", "pe", "po", "ra", "re", "ro", "sa", "se", "so", "ta",
    "te", "to", "va", "vo", "za", "zo", "shi", "cha", "tha",
]


def synthetic_vocabulary(size: int, seed: int = 7,
                         two_word_fraction: float = 0.25) -> list[str]:
    """*size* distinct pronounceable terms (dense in near-homophones)."""
    rng = random.Random(seed)

    def word() -> str:
        return "".join(rng.choice(_SYLLABLES)
                       for _ in range(rng.randint(2, 4)))

    terms: set[str] = set()
    while len(terms) < size:
        term = word()
        if rng.random() < two_word_fraction:
            term = term + " " + word()
        terms.add(term)
    return sorted(terms)


def sample_probes(count: int, seed: int = 13) -> list[str]:
    """Probe terms drawn from the same generator (mostly vocabulary
    misses, like mis-recognised speech)."""
    rng = random.Random(seed)

    def word() -> str:
        return "".join(rng.choice(_SYLLABLES)
                       for _ in range(rng.randint(2, 4)))

    probes = [word() for _ in range(count)]
    for position in range(0, count, 4):
        probes[position] = probes[position] + " " + word()
    return probes


def measure_pruned(index: PhoneticIndex, probes: list[str], k: int,
                   rounds: int) -> dict:
    """Best-of-round per-probe latencies through the pruned path."""
    for probe in probes:
        index.most_similar(probe, k=k)  # warmup (numpy paths, caches)
    best = [float("inf")] * len(probes)
    for _ in range(rounds):
        for position, probe in enumerate(probes):
            begin = time.perf_counter()
            index.most_similar(probe, k=k)
            best[position] = min(best[position],
                                 (time.perf_counter() - begin) * 1000.0)
    latencies = sorted(best)
    return {
        "probes": len(probes),
        "p50_ms": round(statistics.median(latencies), 4),
        "p95_ms": round(latencies[int(0.95 * (len(latencies) - 1))], 4),
        "mean_ms": round(statistics.fmean(latencies), 4),
    }


def measure_exhaustive(index: PhoneticIndex, probes: list[str],
                       k: int) -> dict:
    """Mean oracle latency, verifying pruned == exhaustive as it goes."""
    latencies = []
    mismatches = 0
    for probe in probes:
        begin = time.perf_counter()
        expected = exhaustive_scan(index, probe, k)
        latencies.append((time.perf_counter() - begin) * 1000.0)
        if index.most_similar(probe, k=k) != expected:
            mismatches += 1
    return {
        "probes": len(probes),
        "mean_ms": round(statistics.fmean(latencies), 4),
        "mismatches": mismatches,
    }


def bench_scale(size: int, probes: int, rounds: int,
                exhaustive_probes: int, k: int = 20) -> dict:
    terms = synthetic_vocabulary(size)
    begin = time.perf_counter()
    index = PhoneticIndex(terms)
    build_seconds = time.perf_counter() - begin
    probe_terms = sample_probes(probes)
    pruned = measure_pruned(index, probe_terms, k, rounds)
    exhaustive = measure_exhaustive(
        index, probe_terms[:exhaustive_probes], k)
    return {
        "terms": len(terms),
        "distinct_codes": len(index._groups),
        "k": k,
        "build_seconds": round(build_seconds, 3),
        "pruned": pruned,
        "exhaustive": exhaustive,
        "speedup_mean": round(
            exhaustive["mean_ms"] / max(pruned["mean_ms"], 1e-9), 1),
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    scales = [10_000, 100_000] + ([1_000_000] if "--full" in argv else [])
    report: dict = {"scales": {}}
    for size in scales:
        # The 1M oracle costs a minute per probe; sample it thinner.
        oracle = EXHAUSTIVE_PROBES if size <= 100_000 \
            else max(1, EXHAUSTIVE_PROBES // 2)
        entry = bench_scale(size, PROBES, ROUNDS, oracle)
        report["scales"][str(size)] = entry
        print(f"{size:>9} terms ({entry['distinct_codes']} codes, "
              f"built in {entry['build_seconds']:.1f}s): "
              f"pruned p50 {entry['pruned']['p50_ms']:.2f} ms / "
              f"p95 {entry['pruned']['p95_ms']:.2f} ms, "
              f"exhaustive {entry['exhaustive']['mean_ms']:.1f} ms, "
              f"speedup {entry['speedup_mean']}x, "
              f"mismatches {entry['exhaustive']['mismatches']}")
        if entry["exhaustive"]["mismatches"]:
            print("FAIL: pruned ranking differs from the exhaustive "
                  "oracle", file=sys.stderr)
            return 1

    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
