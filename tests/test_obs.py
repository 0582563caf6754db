"""Unit tests for the observability layer (tracing, counters, reports)."""

import json
import time

import pytest

from repro import obs
from repro.obs import NULL_TRACER, NullTracer, RunReport, Span, Tracer


@pytest.fixture(autouse=True)
def _restore_global_tracer():
    """Never leak an enabled tracer into other tests."""
    yield
    obs.disable()


class TestSpanTree:
    def test_nesting_structure(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        root = tracer.root
        assert set(root.children) == {"a", "c"}
        a = root.children["a"]
        assert set(a.children) == {"b"}
        assert a.count == 1
        assert a.children["b"].count == 2

    def test_wall_time_accumulates(self):
        tracer = Tracer()
        for _ in range(2):
            with tracer.span("sleepy"):
                time.sleep(0.01)
        span = tracer.root.children["sleepy"]
        assert span.count == 2
        assert span.wall_s >= 0.02

    def test_child_time_within_parent(self):
        tracer = Tracer()
        with tracer.span("outer"), tracer.span("inner"):
            time.sleep(0.005)
        outer = tracer.root.children["outer"]
        assert outer.wall_s >= outer.children["inner"].wall_s

    def test_handle_exposes_elapsed(self):
        tracer = Tracer()
        with tracer.span("x") as handle:
            time.sleep(0.002)
        assert handle.elapsed_s is not None
        assert handle.elapsed_s >= 0.002

    def test_span_reentrant_after_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError), tracer.span("boom"):
            raise RuntimeError("x")
        # The stack unwound: new spans land at the root again.
        with tracer.span("after"):
            pass
        assert set(tracer.root.children) == {"boom", "after"}

    def test_find_searches_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"), tracer.span("needle"):
            pass
        assert tracer.root.find("needle") is tracer.root.children["a"].children["needle"]
        assert tracer.root.find("missing") is None

    def test_walk_paths_unique(self):
        tracer = Tracer()
        with tracer.span("a"), tracer.span("x"):
            pass
        with tracer.span("b"), tracer.span("x"):
            pass
        paths = ["/".join(p) for p, _ in tracer.root.walk_paths()]
        assert len(paths) == len(set(paths))
        assert "run/a/x" in paths and "run/b/x" in paths


class TestCounters:
    def test_counts_attach_to_innermost_span(self):
        tracer = Tracer()
        with tracer.span("a"):
            tracer.count("widgets", 2)
            with tracer.span("b"):
                tracer.count("widgets", 3)
        assert tracer.root.children["a"].counters["widgets"] == 2
        assert tracer.root.children["a"].children["b"].counters["widgets"] == 3

    def test_totals_aggregate_over_tree(self):
        tracer = Tracer()
        tracer.count("widgets")
        with tracer.span("a"):
            tracer.count("widgets", 4)
        assert tracer.report().totals()["widgets"] == 5

    def test_gauges_last_write_wins(self):
        tracer = Tracer()
        tracer.gauge("temperature", 1.0)
        tracer.gauge("temperature", 7.5)
        assert tracer.report().gauges == {"temperature": 7.5}


class TestRunReport:
    def _sample_report(self) -> RunReport:
        tracer = Tracer(meta={"command": "test"})
        with tracer.span("stage.one"):
            tracer.count("items", 3)
            with tracer.span("stage.two"):
                tracer.count("items", 1)
        tracer.gauge("cache.hit_rate", 0.5)
        return tracer.report()

    def test_json_round_trip(self):
        report = self._sample_report()
        clone = RunReport.from_json(report.to_json())
        assert clone.to_dict() == report.to_dict()
        assert clone.totals() == {"items": 4}
        assert clone.meta["command"] == "test"
        assert clone.find("stage.two").counters == {"items": 1}

    def test_json_is_schema_versioned(self):
        data = json.loads(self._sample_report().to_json())
        assert data["schema_version"] == 1
        assert data["spans"]["name"] == "run"
        assert data["counters_total"]["items"] == 4

    def test_write_reads_back(self, tmp_path):
        report = self._sample_report()
        path = tmp_path / "metrics.json"
        report.write(path)
        clone = RunReport.from_json(path.read_text())
        assert clone.find("stage.one").count == 1

    def test_table_rendering(self):
        table = self._sample_report().table()
        assert "span" in table and "wall [s]" in table
        assert "stage.one" in table
        assert "  stage.two" not in table.splitlines()[0]
        assert "counters:" in table and "items" in table
        assert "gauges:" in table and "cache.hit_rate" in table

    def test_table_handles_empty_run(self):
        table = Tracer().report().table()
        assert table.splitlines()[1].startswith("run")


class TestNullTracer:
    def test_default_global_tracer_is_null(self):
        assert isinstance(obs.get_tracer(), NullTracer)
        assert obs.get_tracer() is NULL_TRACER

    def test_null_span_is_shared_noop(self):
        handle_a = NULL_TRACER.span("a")
        handle_b = NULL_TRACER.span("b")
        assert handle_a is handle_b
        with handle_a as entered:
            assert entered is handle_a
        assert handle_a.elapsed_s is None

    def test_null_counters_and_gauges_discard(self):
        NULL_TRACER.count("x", 10)
        NULL_TRACER.gauge("y", 1.0)  # must not raise, must not record

    def test_instrumented_code_runs_under_null_tracer(self):
        # Representative hot path: exercised with tracing disabled.
        from repro.components import FilmCapacitorX2
        from repro.coupling import CouplingDatabase
        from repro.geometry import Placement2D

        db = CouplingDatabase()
        cap = FilmCapacitorX2()
        db.coupling(cap, Placement2D.at(0, 0), cap, Placement2D.at(0.03, 0))
        assert isinstance(obs.get_tracer(), NullTracer)


class TestEnableDisable:
    def test_enable_installs_and_disable_restores(self):
        tracer = obs.enable(meta={"k": "v"})
        assert obs.get_tracer() is tracer
        previous = obs.disable()
        assert previous is tracer
        assert obs.get_tracer() is NULL_TRACER

    def test_enabled_tracer_sees_instrumented_code(self):
        from repro.components import FilmCapacitorX2
        from repro.coupling import CouplingDatabase
        from repro.geometry import Placement2D

        tracer = obs.enable()
        db = CouplingDatabase()
        cap = FilmCapacitorX2()
        place = Placement2D.at(0.03, 0)
        db.coupling(cap, Placement2D.at(0, 0), cap, place)
        db.coupling(cap, Placement2D.at(0, 0), cap, place)
        obs.disable()
        report = tracer.report()
        totals = report.totals()
        assert totals["coupling.cache_misses"] == 1
        assert totals["coupling.cache_hits"] == 1
        solve = report.find("coupling.field_solve")
        assert solve is not None and solve.count == 1 and solve.wall_s > 0


class TestCacheStats:
    def test_stats_snapshot(self):
        from repro.components import FilmCapacitorX2
        from repro.coupling import CouplingDatabase
        from repro.geometry import Placement2D

        db = CouplingDatabase()
        cap = FilmCapacitorX2()
        place = Placement2D.at(0.03, 0)
        db.coupling(cap, Placement2D.at(0, 0), cap, place)
        db.coupling(cap, Placement2D.at(0, 0), cap, place)
        stats = db.stats
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate == pytest.approx(0.5)

    def test_stats_empty_database(self):
        from repro.coupling import CouplingDatabase

        stats = CouplingDatabase().stats
        assert stats.lookups == 0
        assert stats.hit_rate == 0.0


class TestSpanSerialization:
    def test_span_dict_round_trip(self):
        span = Span("root")
        span.count = 1
        span.wall_s = 0.25
        child = span.child("leaf")
        child.count = 3
        child.wall_s = 0.1
        child.counters["n"] = 7
        clone = Span.from_dict(span.to_dict())
        assert clone.to_dict() == span.to_dict()
        assert clone.children["leaf"].counters == {"n": 7}


class TestMemTrace:
    def test_mem_gauges_per_top_level_span(self):
        tracer = Tracer(mem_trace=True)
        try:
            with tracer.span("allocating"):
                blob = [0] * 200_000
            assert blob is not None
            with tracer.span("quiet"):
                pass
        finally:
            tracer.stop_mem_trace()
        gauges = tracer.report().gauges
        assert gauges["mem.allocating.peak_bytes"] > 200_000 * 8 * 0.9
        assert gauges["mem.allocating.current_bytes"] >= 0
        assert "mem.quiet.peak_bytes" in gauges

    def test_nested_spans_get_no_mem_gauges(self):
        tracer = Tracer(mem_trace=True)
        try:
            with tracer.span("outer"), tracer.span("inner"):
                pass
        finally:
            tracer.stop_mem_trace()
        gauges = tracer.report().gauges
        assert "mem.outer.peak_bytes" in gauges
        assert "mem.inner.peak_bytes" not in gauges

    def test_off_by_default_and_stop_idempotent(self):
        import tracemalloc

        tracer = Tracer()
        assert not tracer.mem_trace
        with tracer.span("x"):
            pass
        assert "mem.x.peak_bytes" not in tracer.gauges
        mem_tracer = Tracer(mem_trace=True)
        mem_tracer.stop_mem_trace()
        mem_tracer.stop_mem_trace()
        assert not tracemalloc.is_tracing()


class TestRunReportRoundTripProperty:
    """Hypothesis: from_json(to_json(r)) is bit-exact on the whole report."""

    @staticmethod
    def _span_from_spec(spec):
        name, wall, count, counters, children = spec
        span = Span(name)
        span.wall_s = wall
        span.count = count
        span.counters = dict(counters)
        for i, child_spec in enumerate(children):
            child = TestRunReportRoundTripProperty._span_from_spec(child_spec)
            # Children are keyed by name; disambiguate duplicates.
            child.name = f"{child.name}.{i}"
            span.children[child.name] = child
        return span

    def test_round_trip_bit_exact(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        names = st.text(
            alphabet="abcdefgh.xyz_0123456789", min_size=1, max_size=16
        )
        finite = st.floats(allow_nan=False, allow_infinity=False)
        counters = st.dictionaries(names, finite, max_size=4)
        span_spec = st.deferred(
            lambda: st.tuples(
                names,
                finite,
                st.integers(min_value=0, max_value=10**9),
                counters,
                st.lists(span_spec, max_size=3),
            )
        )
        meta_values = st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-(10**12), max_value=10**12),
            finite,
            st.text(max_size=32),
        )

        @settings(max_examples=60, deadline=None)
        @given(
            spec=span_spec,
            gauges=st.dictionaries(names, finite, max_size=4),
            meta=st.dictionaries(names, meta_values, max_size=4),
        )
        def inner(spec, gauges, meta):
            report = RunReport(
                root=self._span_from_spec(spec), gauges=gauges, meta=meta
            )
            clone = RunReport.from_json(report.to_json())
            # Bit-exact: the span tree, gauges and meta all survive.
            assert clone.to_dict() == report.to_dict()
            assert clone.root.to_dict() == report.root.to_dict()
            assert clone.gauges == report.gauges
            assert clone.meta == report.meta

        inner()
