# Development entry points.  CI runs the same commands (.github/workflows/ci.yml).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint ruff mypy bench-smoke events-smoke serve-smoke docs-check

test:
	$(PYTHON) -m pytest -x -q

## Cold/warm smoke of the persistent coupling cache.
bench-smoke:
	$(PYTHON) benchmarks/smoke_cache.py

## End-to-end smoke of the telemetry event stream (--events-out), its
## schema, the coupling field-solve events and the perf-flight HTML artefact.
events-smoke:
	$(PYTHON) benchmarks/smoke_events.py

## Boot the HTTP job service on an ephemeral port, run one flow job
## end to end (SSE stream, artifacts), save its flight-recorder page to
## benchmarks/out/ for CI artifact upload, shut down cleanly.
serve-smoke:
	$(PYTHON) benchmarks/smoke_service.py benchmarks/out

## Documentation hygiene: docs/README.md indexes every docs file, all
## relative links under docs/ + README resolve, serve --help is current.
docs-check:
	$(PYTHON) -m pytest -x -q tests/test_docs.py

## Full static gate: style (ruff) + types (mypy).  The layer table is
## checked by tier-1 (tests/test_architecture.py).
lint: ruff mypy

ruff:
	ruff check src/ tests/ examples/ benchmarks/

mypy:
	mypy src/repro
