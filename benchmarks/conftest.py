"""Shared fixtures for the figure-reproduction benchmarks.

Each benchmark regenerates the data behind one figure of the paper and
writes a text artefact to ``benchmarks/out/`` so EXPERIMENTS.md can quote
the exact series; heavy pipeline artefacts are computed once per session.

Every benchmark additionally runs under a fresh tracer and drops a
``BENCH_<module>__<test>.json`` run report next to its text artefact,
*and* appends the same report to the perf-history store
(``benchmarks/out/perf-history.jsonl``) — the repository's committed
longitudinal perf trajectory, queryable with ``repro-emi perf history``
and ``repro-emi perf diff`` (see docs/OBSERVABILITY.md).
Session-scoped fixtures are built before the first benchmark that requests
them starts its tracer (pytest sets up wider-scoped fixtures first), so
each one traces its own build; its spans, counters, gauges and wall time
join that benchmark's report, whose ``meta["session_fixtures"]`` names it.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from pathlib import Path

import pytest

from repro import obs
from repro.converters import BuckConverterDesign
from repro.core import EmiDesignFlow

OUT_DIR = Path(__file__).parent / "out"


def _traced(unreported: list, name: str, build: Callable):
    """Build a session fixture under its own tracer; its report waits in
    ``unreported`` to join the report of the benchmark being set up."""
    tracer = obs.enable()
    try:
        return build()
    finally:
        obs.disable()
        unreported.append((name, tracer.report()))


def _graft(into: obs.Span, span: obs.Span) -> None:
    """Add the wall time, counters and child spans of ``span`` to ``into``."""
    into.wall_s += span.wall_s
    for key, value in span.counters.items():
        into.counters[key] = into.counters.get(key, 0) + value
    for child in span.children.values():
        node = into.child(child.name)
        node.count += child.count
        _graft(node, child)


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def record(out_dir):
    """Write an artefact file and echo it to the terminal."""

    def _record(name: str, text: str) -> None:
        path = out_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n===== {name} =====\n{text}\n")

    return _record


@pytest.fixture(scope="session")
def unreported() -> list[tuple[str, obs.RunReport]]:
    """(name, run report) of each session fixture built but not yet reported."""
    return []


@pytest.fixture(autouse=True)
def bench_metrics(request, out_dir, unreported):
    """Trace every benchmark; write ``BENCH_*.json`` and append to history."""
    module = Path(str(request.node.fspath)).stem
    test = re.sub(r"[^A-Za-z0-9_.-]+", "_", request.node.name)
    if "benchmark" in request.fixturenames:
        # pytest-benchmark measures its timer's precision once per session,
        # a 1 s spin in the first calibrated benchmark; measure it here,
        # before the tracer starts, so that no report holds it.
        bench = request.getfixturevalue("benchmark")
        bench._get_precision(bench._timer)
    tracer = obs.enable(meta={"benchmark": f"{module}::{request.node.name}"})
    try:
        yield
    finally:
        obs.disable()
        report = tracer.report()
        if unreported:
            report.meta["session_fixtures"] = [name for name, _ in unreported]
            for _, fixture in unreported:
                _graft(report.root, fixture.root)
                report.gauges = {**fixture.gauges, **report.gauges}
            unreported.clear()
        (out_dir / f"BENCH_{module}__{test}.json").write_text(report.to_json() + "\n")
        obs.PerfHistory(out_dir / "perf-history.jsonl").append(report)


@pytest.fixture(scope="session")
def buck_design() -> BuckConverterDesign:
    return BuckConverterDesign()


@pytest.fixture(scope="session")
def design_flow(buck_design, unreported) -> EmiDesignFlow:
    def build() -> EmiDesignFlow:
        flow = EmiDesignFlow(buck_design)
        flow.derive_rules()
        return flow

    return _traced(unreported, "design_flow", build)


@pytest.fixture(scope="session")
def layout_comparison(design_flow, unreported):
    return _traced(unreported, "layout_comparison", design_flow.compare_layouts)
