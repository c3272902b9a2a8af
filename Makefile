# Developer entry points.  CI runs the same commands (see
# .github/workflows/ci.yml); anything green here should be green there.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint typecheck ruff test test-fast coverage chaos-smoke resume-smoke bench-suite bench-suite-check bench-pairs gap gap-golden all

## Everything static in one command: simlint runs all four layers in
## one pass (per-file SIM001-SIM006, whole-program SIM101-SIM106,
## hot-closure SIM201-SIM207, dimensional/streaming SIM301-SIM308), then
## ruff and mypy (the latter two need the dev extra).  A finding is
## accepted only by a pragma with a reason on its line.
lint:
	$(PYTHON) -m tools.simlint src
	$(PYTHON) -m ruff check src tools tests
	$(PYTHON) -m mypy --strict -p repro.simulator -p repro.schedulers \
		-p repro.experiments -p repro.metrics

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

## Alternating parent/change pairs of one suite workload, with each
## end-to-end metric's medians, quartiles, wins, gain verdict and bound:
## make bench-pairs W=tpcds-k4 PARENT=HEAD~1 [N=10] [SEED=42].  PARENT
## is checked out as a git worktree under .bench_build/ for the run.
## Exits 1 when a median is worse than its BENCHMARK.json bound or this
## tree's runs failed more often than PARENT's; the perf-smoke CI job
## runs it with W=tpcds-k4 N=10 against the base commit.
bench-pairs: N ?= 10
bench-pairs: SEED ?= 42
bench-pairs:
	$(PYTHON) tools/bench_pairs.py --workload $(W) --parent $(PARENT) \
		--pairs $(N) --seed $(SEED)

## Strict-invariant chaos run (what the chaos-smoke CI job executes),
## including the gap-harness comparators.
chaos-smoke:
	REPRO_INVARIANTS=strict timeout 60 $(PYTHON) -m repro chaos \
		--jobs 10 --fattree-k 4 --profiles link-flap,hr-loss \
		--schedulers pfs,gurita,sg-dag,lp-order

## What the resume-smoke CI job runs: SIGKILL a supervised run as soon
## as a simulator checkpoint hits disk, resume it from the manifest, and
## fail unless the resumed grid's JCT fingerprint is bit-identical to an
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

all: lint test
