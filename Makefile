# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test lint sanitize-smoke conformance coverage bench bench-simcore bench-check bench-full chaos chaos-smoke hostif-smoke fleet-smoke service-smoke experiments examples clean

# Minimum line-coverage percentage for the `coverage` gate.
COVERAGE_FLOOR ?= 70

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Static analysis: the repo's own two-phase project-wide rule engine
# (determinism/seed taint, layering, async/executor safety, unit
# suffixes, MSR layout, epoch hygiene — see docs/static_analysis.md);
# any finding fails. Plus ruff as a generic baseline when it is
# installed (CI installs it; the pinned local toolchain may not have it).
lint:
	$(PYTHON) -m repro.lint
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; \
	then ruff check .; \
	else echo "ruff not installed; skipped baseline check"; fi

# Runtime sanitizer smoke: the four-way hostif/fastpath parity run with
# the RNG draw ledger and the epoch-consistency checker armed. Fails on
# any state divergence, ledger divergence, or stale rate cache.
sanitize-smoke:
	$(PYTHON) -m repro.experiments.hostif_parity

# Conformance gate: replay the committed golden trace (bit-identical
# event stream under the current tree), then the differential sweep —
# 4 execution modes x {no chaos, every chaos profile}, serial vs
# jobs=4, with the RNG draw ledger folded into the compared streams.
# See docs/conformance.md.
conformance:
	$(PYTHON) -m repro.conformance

# Coverage gate: tier-1 suite under pytest-cov with a recorded floor.
# pytest-cov is not part of the pinned local toolchain: skipped with a
# note when missing (CI installs it explicitly).
coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; \
	then $(PYTHON) -m pytest tests/ --cov=repro \
		--cov-report=term --cov-fail-under=$(COVERAGE_FLOOR); \
	else echo "pytest-cov not installed; skipped coverage gate"; fi

# The extension studies (study_*, ablation_*); the paper's tables and
# figures are `make experiments`.
bench: bench-simcore
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Simulator-core micro-benchmark (simulated ns per wall second); writes
# BENCH_simcore.json at the repo root. See docs/performance.md.
bench-simcore:
	$(PYTHON) benchmarks/perf/bench_simcore.py

# Perf-regression gate: re-run the simulator-core scenarios (smoke
# durations) and fail when any falls more than the tolerance below the
# scores committed in BENCH_simcore.json. The wide tolerance absorbs
# shared-runner noise; a real hot-path regression (the gate's target is
# the 3x tick-heavy win) blows way past it. See docs/performance.md.
bench-check:
	$(PYTHON) benchmarks/perf/bench_simcore.py --check --smoke \
		--repeats 5 --check-tolerance 0.5

# The extension studies at their paper-length parameterizations.
bench-full:
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Full table/figure suite under a fixed injected-fault seed; --strict
# asserts zero hard failures (degraded/retried outcomes are acceptable).
chaos:
	$(PYTHON) scripts/run_paper.py --chaos 42 --strict

# Fast chaos subset for CI: the experiments that exercise the meters,
# the RAPL counters and the perf sampler, under the same fixed seed.
chaos-smoke:
	$(PYTHON) scripts/run_paper.py --chaos 42 --strict \
		--only table2 fig2 table3 fig5 fig6

# Host-interface smoke: pepcctl info over every subsystem, then the
# governor-in-the-loop parity experiment (hostif vs direct API must be
# bit-identical). See docs/host_interface.md.
hostif-smoke:
	$(PYTHON) -m repro.tools.pepcctl pstates info --cpus 0-3
	$(PYTHON) -m repro.tools.pepcctl cstates info --cpus 0
	$(PYTHON) -m repro.tools.pepcctl power info
	$(PYTHON) -m repro.tools.pepcctl uncore info
	$(PYTHON) scripts/run_paper.py --strict --only hostif

# Fleet crash/resume smoke: 64-node sweep with an injected worker crash
# and straggler, resumed, and diffed byte-for-byte against an
# undisturbed reference sweep of the same plan. See docs/fleet.md.
fleet-smoke:
	$(PYTHON) scripts/fleet_smoke.py

# Experiment-service smoke: serve over a unix socket, submit a
# dataset-targeted sweep with an injected worker crash (completes
# degraded), resubmit identically (100% verified cache hits,
# byte-identical results report). See docs/service.md.
service-smoke:
	$(PYTHON) scripts/service_smoke.py

# Every paper table and figure at the default size: rewrites the
# run_paper_*.txt artifacts, run_paper_report.json and EXPERIMENTS.md,
# and fails if an experiment hard-fails or a paper claim deviates.
experiments:
	$(PYTHON) scripts/run_paper.py --strict

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf benchmarks/output .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
