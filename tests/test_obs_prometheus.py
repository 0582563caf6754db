"""Prometheus exposition edge cases: escaping, empty runs, legacy reports."""

import re

from repro.obs import RunReport, Span, to_prometheus

#: One exposition sample line: name, optional labels, numeric value.
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$"
)


def report_with(counters=None, gauges=None) -> RunReport:
    root = Span("run")
    root.count = 1
    root.wall_s = 1.0
    if counters:
        root.counters.update(counters)
    return RunReport(
        root=root,
        gauges=dict(gauges or {}),
        meta={"command": "test"},
    )


class TestLabelEscaping:
    def test_newline_backslash_quote_escaped(self):
        name = 'weird\\name\n"quoted"'
        text = to_prometheus(report_with(counters={name: 3.0}))
        line = next(
            line for line in text.splitlines() if "counter_total" in line and "weird" in line
        )
        assert "\n" not in line  # the raw newline never leaks into a sample
        assert '\\\\' in line and "\\n" in line and '\\"' in line

    def test_every_sample_stays_on_one_line(self):
        text = to_prometheus(
            report_with(
                counters={"evil\ncounter": 1.0},
                gauges={"evil\ngauge\\": 2.0},
            )
        )
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            assert SAMPLE_RE.match(line), f"malformed sample line: {line!r}"


class TestEmptyRun:
    def test_bare_report_exports_cleanly(self):
        text = to_prometheus(RunReport(root=Span("run")))
        assert "repro_emi_span_wall_seconds" in text
        assert "_bucket" not in text
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            assert SAMPLE_RE.match(line), f"malformed sample line: {line!r}"

    def test_empty_report_round_trips_without_histogram_key(self):
        report = RunReport(root=Span("run"))
        assert "histograms" not in report.to_dict()

    def test_legacy_histograms_key_is_ignored(self):
        report = report_with(counters={"coupling.cache_misses": 4.0})
        legacy = report.to_dict()
        legacy["histograms"] = {
            "coupling.pair_seconds": {"count": 1, "sum": 0.002, "counts": [0] * 23}
        }
        clone = RunReport.from_dict(legacy)
        assert clone.to_dict() == report.to_dict()
        assert to_prometheus(clone) == to_prometheus(report)
