# Convenience targets for the DAC 2020 bit-parallel IMC reproduction.
#
#   make test         tier-1 verification (the command CI runs)
#   make lint         ruff check + format check (skipped if ruff is absent)
#   make coverage     tier-1 suite under pytest-cov with the CI floor
#                     (skipped if pytest-cov is absent)
#   make bench        regenerate every paper artefact + extension study
#   make bench-smoke  the tracked benchmarks in smoke mode (JSON results)
#   make bench-full   the tracked benchmarks at full fidelity (the nightly
#                     CI tier, locally; 10^6-request traces — minutes)
#   make bench-check  compare results against benchmarks/baselines.json
#   make scale-smoke  boot the gateway single-process and sharded
#                     (--workers N) and assert ledger-sum parity
#   make ci           the full GitHub Actions pipeline, locally:
#                     lint -> docs links -> tests -> coverage ->
#                     bench smoke -> regression -> scale smoke
#   make docs-check   documentation-consistency tests only
#   make docs-links   internal markdown link/anchor checker
#   make loc          Python line counts of src/ and tests/oracle/ (the
#                     ROADMAP's "src/ line count" figure, also in CI)
#   make chip-bench   just the sharded multi-macro scaling benchmark
#   make examples     run every example script end-to-end

PYTHON      ?= python
PYTHONPATH  := src
export PYTHONPATH

#: Benchmarks whose JSON results the regression gate tracks.
TRACKED_BENCHES := benchmarks/bench_chip_scaling.py \
                   benchmarks/bench_matmul_engine.py \
                   benchmarks/bench_serving_throughput.py \
                   benchmarks/bench_cluster_scheduling.py \
                   benchmarks/bench_router_throughput.py \
                   benchmarks/bench_fleet_reliability.py \
                   benchmarks/bench_event_kernel.py \
                   benchmarks/bench_gateway_throughput.py \
                   benchmarks/bench_gateway_resilience.py \
                   benchmarks/bench_obs_overhead.py \
                   benchmarks/bench_fleet_workers.py

#: Coverage floor the CI coverage job enforces (keep in sync with ci.yml).
COV_FAIL_UNDER := 83

.PHONY: test lint coverage bench bench-smoke bench-full bench-check scale-smoke ci docs-check docs-links loc chip-bench examples clean

test:
	$(PYTHON) -m pytest -x -q

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples tools && \
		ruff format --check src tests benchmarks examples tools; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTHON) -m pytest -q --cov=repro \
			--cov-report=term-missing:skip-covered \
			--cov-fail-under=$(COV_FAIL_UNDER); \
	else \
		echo "pytest-cov not installed; skipping coverage (CI runs it)"; \
	fi

bench-smoke:
	REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest -q $(TRACKED_BENCHES)

bench-full:
	$(PYTHON) -m pytest -q $(TRACKED_BENCHES)

bench-check:
	$(PYTHON) benchmarks/check_regression.py

scale-smoke:
	$(PYTHON) tools/scale_smoke.py

# Recursive invocations keep the stages strictly ordered even under -jN
# (bench-check must read the JSON bench-smoke just wrote).
ci:
	$(MAKE) lint
	$(MAKE) docs-links
	$(MAKE) test
	$(MAKE) coverage
	$(MAKE) bench-smoke
	$(MAKE) bench-check
	$(MAKE) scale-smoke

bench:
	$(PYTHON) -m pytest benchmarks/bench_*.py --benchmark-only

docs-check:
	$(PYTHON) -m pytest tests/test_documentation.py -q

docs-links:
	$(PYTHON) tools/check_docs_links.py

loc:
	@for tree in src tests/oracle; do \
		printf '%s %s\n' "$$tree" "$$(find $$tree -name '*.py' -exec cat {} + | wc -l)"; \
	done

chip-bench:
	$(PYTHON) -m pytest benchmarks/bench_chip_scaling.py -q

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf .pytest_cache benchmarks/results
	find . -name __pycache__ -type d -prune -exec rm -rf {} \;
