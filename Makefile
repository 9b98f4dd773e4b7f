# Entry points for local development and CI.  Everything is pure
# Python run from the repo root with PYTHONPATH=src — no build step.

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: check test gates lint effects chaos bench

## The pre-merge bar: full test suite + all eight deterministic gates.
check: test gates

test:
	$(PYTHON) -m pytest -x -q

## The eight gates in one process (tools/gate.py; one check module
## each under tools/gates/).  One gate: `python tools/gate.py <name>`.
gates:
	$(PYTHON) tools/gate.py

## Lint only (no sanitizer sweep); fast inner-loop check.
lint:
	$(PYTHON) -m repro.analysis.cli --effects --baseline tools/analysis_baseline.json src tools benchmarks examples

## Interprocedural effect invariants only.
effects:
	$(PYTHON) -m repro.analysis.cli --effects-only --baseline tools/analysis_baseline.json src/repro

## Full-scale (slower) variants.
chaos:
	$(PYTHON) tools/gate.py chaos_full

## perfbench's three workloads at smoke scale, then the bench smokes.
bench:
	$(PYTHON) perfbench/run.py --workload sweep-77k-k8 --seed 1 --seconds 1 --scale smoke
	$(PYTHON) perfbench/run.py --workload largek-20k-k256 --seed 1 --seconds 1 --scale smoke
	$(PYTHON) perfbench/run.py --workload serve-churn-2t --seed 1 --seconds 1 --scale smoke
	$(PYTHON) benchmarks/bench_chaos.py --smoke
	$(PYTHON) benchmarks/bench_serve.py --smoke
