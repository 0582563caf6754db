# Development entry points.  CI runs the same commands (.github/workflows/ci.yml).
#
# ruff and mypy are optional-but-expected dev tools; physlint ships with the
# package itself, so `make physlint` works in any environment that runs the code.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint ruff mypy physlint physlint-baseline bench-smoke events-smoke serve-smoke docs-check

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

## Full static gate: style (ruff) + types (mypy) + physics and
## architecture lint (physlint).
lint: ruff mypy physlint

ruff:
	ruff check src/ tests/ examples/ benchmarks/

mypy:
	mypy src/repro

physlint:
	$(PYTHON) -m repro.cli lint-src src/repro

## Re-accept all current findings (review the diff before committing!).
physlint-baseline:
	$(PYTHON) -m repro.cli lint-src src/repro --no-baseline \
		--write-baseline src/repro/lint/physlint_baseline.json
