# Developer entry points.  CI runs the same commands (see
# .github/workflows/ci.yml); anything green here should be green there.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint file-lint deep-lint deep-baseline perf-lint perf-baseline units-lint units-baseline typecheck ruff test test-fast coverage chaos-smoke resume-smoke bench bench-check bench-suite bench-suite-check gap gap-golden all

## Everything static in one command: all four simlint layers in one
## pass (per-file SIM001-SIM006, whole-program --deep SIM101-SIM106,
## hot-closure --perf SIM201-SIM207, dimensional/streaming --units
## SIM301-SIM308) against the merged committed baselines, plus ruff
## and mypy (the latter two need the dev extra).
lint:
	$(PYTHON) -m tools.simlint --all src --baseline
	$(PYTHON) -m ruff check src tools tests
	$(PYTHON) -m mypy --strict -p repro.simulator -p repro.schedulers \
		-p repro.experiments -p repro.metrics

## Per-file static analysis only (SIM001-SIM006).
file-lint:
	$(PYTHON) -m tools.simlint src

## Whole-program determinism taint + worker purity (SIM101-SIM106),
## checked against the committed suppression baseline.  Fails on any
## new finding or on baseline drift (stale entries).
deep-lint:
	$(PYTHON) -m tools.simlint --deep src --baseline tools/simlint/deep_baseline.json

## Refresh the deep baseline after an intentional change.  Review the
## diff: every entry is a known, tolerated finding.
deep-baseline:
	$(PYTHON) -m tools.simlint --deep src --write-baseline tools/simlint/deep_baseline.json

## Hot-closure performance rules (SIM201-SIM207) over the registry in
## tools/simlint/hotpaths.py, against the committed perf baseline.
perf-lint:
	$(PYTHON) -m tools.simlint --perf src --baseline tools/simlint/perf_baseline.json

## Refresh the perf baseline after an intentional change.  Prefer an
## in-place pragma (ignore[SIM2xx] / hot-ok[reason]) with a reason;
## the committed baseline stays empty by policy.
perf-baseline:
	$(PYTHON) -m tools.simlint --perf src --write-baseline tools/simlint/perf_baseline.json

## Dimensional-analysis + streaming-discipline rules (SIM301-SIM308)
## seeded from the repro.simulator.units annotations, against the
## committed units baseline.
units-lint:
	$(PYTHON) -m tools.simlint --units src --baseline tools/simlint/units_baseline.json

## Refresh the units baseline after an intentional change.  Prefer an
## in-place pragma (ignore[SIM3xx] / unit[...]) with a reason; the
## committed baseline stays empty by policy.
units-baseline:
	$(PYTHON) -m tools.simlint --units src --write-baseline tools/simlint/units_baseline.json

## mypy --strict over the strict-clean packages (needs the dev extra).
typecheck:
	$(PYTHON) -m mypy --strict -p repro.simulator -p repro.schedulers \
		-p repro.experiments -p repro.metrics

## Enforced ruff baseline: E4/E7/E9/F/B/I (needs the dev extra).
ruff:
	$(PYTHON) -m ruff check src tools tests

## Tier-1 test suite.
test:
	$(PYTHON) -m pytest -x -q

## Unit tests only (fast inner loop).
test-fast:
	$(PYTHON) -m pytest tests/unit -x -q

## Re-capture the committed performance trajectory: writes the next
## BENCH_<n+1>.json after the latest committed artifact.  Run on an
## otherwise-idle machine; takes a few minutes.
bench:
	$(PYTHON) benchmarks/perf_trajectory.py --out

## What the perf-smoke CI job runs: the small pinned workload against
## the latest committed BENCH_<n>.json (auto-discovered;
## REPRO_PERF_TOLERANCE overrides the 20% band).
bench-check:
	$(PYTHON) benchmarks/perf_trajectory.py --check --workloads scal-k4

## The layered benchmark suite (benchmarks/suite/README.md): every
## workload once, each in its own child interpreter, end-to-end and
## per-layer metrics written to .bench_build/suite.json.  Several
## minutes; run on an otherwise-idle machine.
bench-suite:
	$(PYTHON) benchmarks/suite/run.py --out .bench_build/suite.json

## What the suite-pins CI job runs: every exact work counter and JCT
## fingerprint against benchmarks/suite/pins.json (a change that moves
## one fails), plus the suite's own self-test.
bench-suite-check:
	$(PYTHON) benchmarks/suite/run.py --check
	$(PYTHON) -m pytest benchmarks/suite -q

## Strict-invariant chaos run (what the chaos-smoke CI job executes),
## including the gap-harness comparators.
chaos-smoke:
	REPRO_INVARIANTS=strict timeout 60 $(PYTHON) -m repro chaos \
		--jobs 10 --fattree-k 4 --profiles link-flap,hr-loss \
		--schedulers pfs,gurita,sg-dag,lp-order

## What the resume-smoke CI job runs: SIGKILL a supervised run as soon
## as durable state hits disk, resume it from the manifest, and fail
## unless the resumed grid's JCT fingerprint is bit-identical to an
## uninterrupted run of the same units.
resume-smoke:
	$(PYTHON) benchmarks/resume_smoke.py

## What the gap-smoke CI job runs: replay the committed golden gap
## artifact's harness parameters and fail on fingerprint divergence.
gap:
	$(PYTHON) -m repro gap --check GAP_GOLDEN.json --parallel 2

## Re-capture the committed gap artifact after an intentional change
## (a new scheduler, a tightened bound, a workload-generator change).
## Review the mean-gap diff: every movement should be explainable.
gap-golden:
	$(PYTHON) -m repro gap --out GAP_GOLDEN.json

## Line coverage over the scheduler and theory layers (needs the dev
## extra; the coverage-gate CI job enforces the same threshold).
coverage:
	$(PYTHON) -m pytest tests/unit tests/property tests/integration -q \
		--cov=repro.schedulers --cov=repro.theory \
		--cov-report=term-missing --cov-fail-under=85

all: file-lint deep-lint perf-lint units-lint test
