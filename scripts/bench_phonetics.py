"""Phonetic retrieval measurements shared by the gate and the tests.

Builds synthetic vocabularies, probes them with pruned exact top-k
retrieval and with the per-term scan oracle
(``tests/phonetics/scan_oracle.py``, which scores every term with
``phonetic_similarity``), verifies the rankings are identical, and
reports per-probe latency percentiles and the pruned-over-exhaustive
speedup (:func:`bench_scale`).  ``scripts/check_phonetics_speedup.py``
(``make profile``) gates on it; ``tests/phonetics/test_large_scale.py``
and ``tests/nlq/test_text_to_sql_vocabulary.py`` reuse the vocabulary
generator.

The synthetic vocabulary is deliberately hostile: syllable soup is far
denser in near-homophones than real categorical data (thousands of codes
within a few Jaro-Winkler points of any probe), so pruning effectiveness
measured here is a lower bound on real vocabularies.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time

from repro.phonetics.index import PhoneticIndex

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from tests.phonetics.scan_oracle import exhaustive_scan

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
