# Convenience targets for the reproduction.

.PHONY: install test lint bench profile diffexec artifacts sweep sweep-clean serve compare regress baseline examples all

install:
	pip install -e .

test:
	pytest tests/ 2>&1 | tee test_output.txt

# Static checks: ruff (when available) over the Python sources, mypy
# (when available) over the analysis and sweep packages, then the
# repo's own verifier over every shipped kernel and microprogram.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping Python style checks"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy --config-file mypy.ini src/repro/analysis src/repro/sweep; \
	else \
		echo "mypy not installed; skipping type checks"; \
	fi
	PYTHONPATH=src python -m repro.analysis --all

bench:
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Observability smoke: profiled Table 7.1 subset, per-symbol kernel
# profile, Chrome trace, and the BENCH_smoke.json + BENCH_obs.json
# records (the latter: the telemetry plane's enabled-path cost).
profile:
	PYTHONPATH=src python benchmarks/smoke_profile.py results/smoke
	PYTHONPATH=src python benchmarks/bench_obs.py results/smoke
	PYTHONPATH=src python -m repro.harness.runall --profile

# Per-lane lock-step verification of the batched lane engine against
# the reference interpreter at batch 1/4/64 over the default kernel
# set, plus the batch throughput benchmark (mirrors the lanes-diff CI
# job; requires numpy).
diffexec:
	PYTHONPATH=src python -m repro.pete.diffexec \
		--report results/diffexec-report.txt
	PYTHONPATH=src python benchmarks/bench_lanes.py results/smoke

artifacts:
	python -m repro.harness.runall --out results --csv

# Parallel, cached artifact regeneration: same output as `artifacts`,
# fanned over a process pool with results memoized in results/cache/
# (a warm rerun touches zero simulators).
sweep:
	PYTHONPATH=src python -m repro.sweep --out results --csv

sweep-clean:
	rm -rf results/cache

# Service-plane load benchmark: boot the always-on signing service,
# offer mixed sign/verify/ecdh traffic at two arrival rates, and gate
# on zero errors + warm steady state (mirrors the serve-smoke CI job;
# requires numpy).  BENCH_serve.json + telemetry land in results/serve.
serve:
	PYTHONPATH=src python -m repro.serve \
		--requests 250 --rates 200,800 --workers 2 \
		--obs --require-warm \
		--out results/serve --stats-json results/serve/serve_stats.json

compare:
	python -m repro.harness.compare

# Cross-run regression gate: the working tree vs the committed baseline
# snapshot, smoke subset (CI-sized).  The report and the gate's ledger
# record land under results/.
regress:
	PYTHONPATH=src python -m repro.regress gate --smoke \
		--report results/regress/gate_report.txt
	PYTHONPATH=src python -m repro.regress scorecard \
		> results/regress/scorecard.txt

# Regenerate the committed baseline (run after an *intended* cycle or
# energy change, and commit the result with it).
baseline:
	PYTHONPATH=src python -m repro.regress baseline

examples:
	for f in examples/*.py; do echo "== $$f =="; python $$f || exit 1; done

all: install test bench artifacts compare
