PYTEST := PYTHONPATH=src python -m pytest

.PHONY: check fast concurrency bench bench-serve bench-index \
	bench-phonetics bench-quality sentinel profile chaos lint lockdep \
	paper-shapes

# The gating suite: the full test tree (tier 1), then the concurrency
# and caching suites plus the index differential suite (indexed ==
# scan, bit for bit), the append differential suite (delta
# maintenance == full rebuild, bit for bit), the row-search
# differential suite (one-row search == uncut MILP optimum) and the
# greedy differential suite (greedy over version summaries == the
# plot-object oracle, bit for bit) once more on their own.
# Test-order randomisation is disabled so failures bisect
# deterministically.
check:
	$(PYTEST) -x -q -p no:randomly
	$(PYTEST) -q -p no:randomly tests/test_concurrency.py tests/caching \
		tests/sqldb/test_index_differential.py \
		tests/sqldb/test_append_differential.py \
		tests/core/test_rowsearch_differential.py \
		tests/core/test_greedy_differential.py

# Fast development loop: everything except the paper-experiment
# regeneration suite (marked `slow`).
fast:
	$(PYTEST) -q -p no:randomly -m "not slow"

# The typed core: modules mypy checks under the strict per-module
# settings in pyproject.toml ([[tool.mypy.overrides]]).
TYPED_CORE := src/repro/caching src/repro/resilience \
	src/repro/observability/metrics.py src/repro/execution/parallel.py \
	src/repro/sqldb/index.py src/repro/flags.py

# Static analysis: the repo-specific muvelint rules (stdlib-only,
# always runs) and the README flag-table drift gate, then ruff and
# the typed-core mypy gate when installed (pip install -e ".[lint]";
# both are skipped with a notice on machines without them — CI
# installs them, so skipping locally never hides a failure for long).
lint:
	PYTHONPATH=src python -m tools.muvelint
	PYTHONPATH=src python scripts/gen_flags_doc.py --check
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	else \
		echo "lint: ruff not installed — skipped (pip install -e '.[lint]')"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy $(TYPED_CORE); \
	else \
		echo "lint: mypy not installed — skipped (pip install -e '.[lint]')"; \
	fi

# The gating suite once more with the lockdep runtime checker
# recording the lock acquisition-order graph (repro.testing.lockdep);
# any lock-order cycle fails the session.
lockdep:
	MUVE_LOCKDEP=1 $(MAKE) check

# Just the concurrent-serving surface: shared-pipeline hammering,
# cache semantics, parallel HTTP requests.
concurrency:
	$(PYTEST) -q -p no:randomly tests/test_concurrency.py \
		tests/caching tests/test_demo_server.py

bench:
	$(PYTEST) benchmarks/ --benchmark-only

# The ILP paper-shape checks: Figure 6 (greedy faster, ILP timeouts
# rising with rows, ILP no worse where it proves optimality), Figure 8
# (a tighter processing bound trades disambiguation for execution
# cost) and the HiGHS-vs-branch-and-bound ablation.  They rewrite their
# tables under benchmarks/results/.
paper-shapes:
	$(PYTEST) -q -p no:randomly benchmarks/test_fig6_solver_comparison.py \
		benchmarks/test_fig6_other_datasets.py \
		benchmarks/test_fig8_processing_bound.py \
		benchmarks/test_ablation_bnb_vs_highs.py

# Serving benchmark: shared vs per-group-rung execution over the
# Figure 7 merged-candidate workload; writes BENCH_serving.json.
bench-serve:
	PYTHONPATH=src python scripts/bench_serving.py

# Secondary-index benchmark: the grouped-equality workload alone
# (indexed vs full scans at 1M rows); the full 20k/200k/1M row-scaling
# sweep is written by bench-serve.
bench-index:
	PYTHONPATH=src python scripts/check_index_speedup.py

# Phonetic retrieval benchmark: pruned exact top-k vs the exhaustive
# scan on synthetic 10k/100k (1M with --full) vocabularies;
# writes BENCH_phonetics.json.
bench-phonetics:
	PYTHONPATH=src python scripts/bench_phonetics.py

# Performance gates (each bound is a constant at the top of its
# script): (1) tracing, and an armed deadline, must each cost under 5%
# wall-clock (50 requests on 5,000 rows); (2) shared plan execution must
# be no slower than the per-group rung (run_plan without a request
# context, 2% tolerance) and cut scans per request 1.5x; (3) pruned
# phonetic retrieval must beat the exhaustive scan 5x at 100k terms
# within a 10 ms p50 budget; (4) secondary indexes must beat full scans
# 5x at p50 on the 1M-row grouped-equality workload, with bit-identical
# results; (5) the regression sentinel: the seeded voice workload (40
# requests on 4,000 rows, best of 3 rounds) must stay within the
# DEFAULT_BANDS of the committed BENCH_quality.json baseline (latency
# 15%).  The overload-shedding gate is a test, run by `make chaos`
# (TestLoadShedding::test_overload_gate in
# tests/resilience/test_server_resilience.py).
profile:
	PYTHONPATH=src python scripts/check_overhead.py
	PYTHONPATH=src python scripts/check_batch_speedup.py
	PYTHONPATH=src python scripts/check_phonetics_speedup.py
	PYTHONPATH=src python scripts/check_index_speedup.py
	PYTHONPATH=src python scripts/obs_report.py --check BENCH_quality.json

# Regenerate the sentinel baseline (commit the result deliberately —
# it redefines what "no regression" means).
bench-quality:
	PYTHONPATH=src python scripts/obs_report.py --snapshot BENCH_quality.json

# The sentinel alone: run the seeded voice workload and diff its
# quality/latency snapshot against the committed baseline.
sentinel:
	PYTHONPATH=src python scripts/obs_report.py --check BENCH_quality.json

# Chaos gate: the full resilience suite — deterministic fault
# injection, the degradation ladder, differential subset checks,
# admission/retry and the overload-shedding gate, chaos properties, and
# the representative mixed fault plan replayed under three fixed seeds
# (0, 7, 1234; see test_fixed_seeds_for_make_chaos).
chaos:
	$(PYTEST) -q -p no:randomly tests/resilience
