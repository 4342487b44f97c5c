"""Concurrency tests: one shared Muve hammered from many threads.

The pipeline is meant to be shareable without a server-wide lock:
randomness is derived per call, lazy caches are locked, and the serving
caches are thread-safe.  These tests verify the observable contract —
under 8+ threads issuing mixed voice/text/trend questions, every response
is deterministic per question and identical to what a single-threaded run
produces.
"""

import threading

import pytest

from repro import Database, Muve, ScreenGeometry, VisualizationPlanner
from repro.datasets import make_nyc311_table

NUM_THREADS = 8
REPEATS_PER_THREAD = 2

#: (kind, question) mix covering the three ask paths.
QUESTIONS = [
    ("text", "average resolution hours for borough Brooklyn"),
    ("text", "count of requests for borough Queens"),
    ("text", "maximum num calls for agency NYPD"),
    ("voice", "average resolution hours for borough Bronx"),
    ("voice", "count of requests for status closed"),
    ("trend", "average resolution hours for borough Brooklyn by num calls"),
]


def make_muve(enable_caching: bool) -> Muve:
    db = Database(seed=0)
    db.register_table(make_nyc311_table(num_rows=1500, seed=3))
    return Muve(db, "nyc311", seed=1,
                geometry=ScreenGeometry(width_pixels=1400, num_rows=2),
                planner=VisualizationPlanner(strategy="greedy"),
                enable_caching=enable_caching)


def ask(muve: Muve, kind: str, question: str):
    if kind == "voice":
        return muve.ask_voice(question)
    if kind == "trend":
        return muve.ask_trend(question)
    return muve.ask(question)


def fingerprint(response) -> tuple:
    """The stable projection of a response: everything except wall-clock
    timings, which legitimately vary between runs."""
    return (
        response.transcript,
        response.seed_query.to_sql(),
        tuple((c.query.to_sql(), round(c.probability, 9))
              for c in response.candidates),
        response.to_text(),
        response.to_svg(),
    )


def hammer(muve: Muve) -> tuple[dict, list, list]:
    """NUM_THREADS threads interleaving the full question mix; returns
    observed fingerprints per question, any raised exceptions and the
    questions that were answered degraded."""
    observed: dict[tuple, set] = {key: set() for key in QUESTIONS}
    degraded: list = []
    observed_lock = threading.Lock()
    errors: list = []
    barrier = threading.Barrier(NUM_THREADS)

    def worker(worker_id: int) -> None:
        try:
            barrier.wait(timeout=30)
            for repeat in range(REPEATS_PER_THREAD):
                # Each thread walks the mix at a different offset so
                # different questions genuinely overlap in time.
                for step in range(len(QUESTIONS)):
                    kind, question = QUESTIONS[
                        (worker_id + repeat + step) % len(QUESTIONS)]
                    response = ask(muve, kind, question)
                    result = fingerprint(response)
                    with observed_lock:
                        observed[(kind, question)].add(result)
                        if response.degraded:
                            degraded.append((kind, question))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,))
               for n in range(NUM_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=240)
    return observed, errors, degraded


class TestSharedMuve:
    @pytest.mark.parametrize("enable_caching", [True, False],
                             ids=["cached", "uncached"])
    def test_concurrent_answers_match_single_threaded(self, enable_caching):
        # Single-threaded baseline on an identically constructed system.
        baseline_muve = make_muve(enable_caching)
        baseline = {key: fingerprint(ask(baseline_muve, *key))
                    for key in QUESTIONS}

        shared = make_muve(enable_caching)
        observed, errors, degraded = hammer(shared)

        assert not errors, f"worker raised: {errors[0]!r}"
        assert not degraded, f"degraded answers: {degraded}"
        for key, results in observed.items():
            assert len(results) == 1, (
                f"non-deterministic answers for {key}: "
                f"{len(results)} distinct responses")
            assert results == {baseline[key]}, (
                f"concurrent answer for {key} differs from the "
                "single-threaded baseline")

    def test_voice_transcription_deterministic_across_threads(self):
        muve = make_muve(enable_caching=False)
        utterance = "average resolution hours for borough Brooklyn"
        transcripts: set = set()
        lock = threading.Lock()

        def worker():
            for _ in range(5):
                response = muve.ask_voice(utterance)
                with lock:
                    transcripts.add(response.transcript)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(transcripts) == 1

    def test_cache_counters_consistent_after_hammer(self):
        muve = make_muve(enable_caching=True)
        _, errors, degraded = hammer(muve)
        assert not errors
        assert not degraded, f"degraded answers: {degraded}"
        stats = muve.cache_stats()
        # The same few questions were asked over and over: most lookups
        # must be hits, and the totals must add up.
        results = stats["query_results"]
        assert results["hits"] > 0
        assert results["hits"] + results["misses"] >= results["hits"]
        assert stats["plans"]["hits"] > 0
        assert 0.0 <= results["hit_rate"] <= 1.0
        # Every text and voice ask reaches the planner once (trend asks
        # take the series planner), and each is exactly one plan-cache
        # lookup: storing a plan is not counted as one.
        planned = NUM_THREADS * REPEATS_PER_THREAD * sum(
            1 for kind, _ in QUESTIONS if kind != "trend")
        assert stats["plans"]["hits"] + stats["plans"]["misses"] == planned

    def test_no_span_leakage_across_concurrent_requests(self):
        """Each worker's trace tree contains only its own requests.

        Every worker wraps each ask in a private root span; if the
        tracer's contextvar propagation leaked between threads, a root
        would pick up another worker's pipeline spans as extra children
        (or lose its own to a foreign parent)."""
        from repro.observability import (
            current_span,
            set_tracing_enabled,
            trace_span,
            tracing_enabled,
        )

        previous = tracing_enabled()
        set_tracing_enabled(True)
        muve = make_muve(enable_caching=True)
        errors: list = []
        bad: list = []
        barrier = threading.Barrier(NUM_THREADS)
        ask_roots = {"muve.ask", "muve.ask_voice", "muve.ask_trend"}

        def worker(worker_id: int) -> None:
            try:
                barrier.wait(timeout=30)
                for step in range(len(QUESTIONS)):
                    kind, question = QUESTIONS[
                        (worker_id + step) % len(QUESTIONS)]
                    with trace_span("test.request",
                                    worker=worker_id) as root:
                        ask(muve, kind, question)
                    children = [child.name for child in root.children]
                    if len(children) != 1 or \
                            children[0] not in ask_roots:
                        bad.append((worker_id, children))
                    if root.attributes["worker"] != worker_id:
                        bad.append((worker_id, root.attributes))
                if current_span().recording:
                    bad.append((worker_id, "span left active"))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(NUM_THREADS)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=240)
        finally:
            set_tracing_enabled(previous)
        assert not errors, f"worker raised: {errors[0]!r}"
        assert not bad, f"span leakage detected: {bad[:3]}"


class TestSharedSessions:
    def test_independent_sessions_do_not_interfere(self):
        from repro import MuveSession
        muve = make_muve(enable_caching=True)
        question = "average resolution hours for borough Brooklyn"
        solo = MuveSession(muve)
        expected = fingerprint(solo.ask(question))

        results: list = []
        errors: list = []
        lock = threading.Lock()

        def worker():
            try:
                session = MuveSession(muve)
                response = session.ask(question)
                with lock:
                    results.append(fingerprint(response))
                assert session.turns == 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert set(results) == {expected}

    def test_one_session_shared_by_threads_serialises_turns(self):
        from repro import MuveSession
        muve = make_muve(enable_caching=True)
        session = MuveSession(muve)
        errors: list = []

        def worker():
            try:
                for _ in range(3):
                    session.ask(
                        "count of requests for borough Queens")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert session.turns == 8 * 3
