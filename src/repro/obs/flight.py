"""The flight recorder: one self-contained HTML artifact per run.

``repro-emi perf flight`` folds everything the obs stack knows about a
run into a single dependency-free HTML file that opens anywhere:

* the run's metadata (command, argv, ``started_at``, status);
* the span tree with per-span wall bars (fraction of the run);
* counter totals and gauges;
* the streamed event timeline (``--events-out`` JSONL, when given):
  an SVG strip of stage transitions over wall time plus an event table
  (head and tail when the log is long);
* recent-history sparklines from :class:`~repro.obs.PerfHistory`
  (wall-time trajectory of the run's series);
* the :func:`~repro.obs.compare` verdict against the previous stored
  run of that series.

Pure function of its inputs — no timestamps are invented here, so the
artifact is reproducible from the same report/event/history files.
"""

from __future__ import annotations

import html
import json
from typing import Any

from .history import HistoryRecord
from .regress import RegressionVerdict
from .report import RunReport
from .tracer import Span

__all__ = ["render_flight_html"]

#: Event-table size guard: show this many head and tail rows when the
#: log is longer than their sum.
_EVENT_TABLE_HEAD = 120
_EVENT_TABLE_TAIL = 60

_CSS = """
body { font: 14px/1.45 -apple-system, "Segoe UI", Roboto, sans-serif;
       margin: 2rem auto; max-width: 70rem; padding: 0 1rem; color: #1a1a1a; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #444; padding-bottom: .3rem; }
h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td { text-align: left; padding: .15rem .6rem; border-bottom: 1px solid #e4e4e4; }
th { background: #f4f4f4; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
code, .mono { font-family: ui-monospace, "SF Mono", Menlo, monospace; font-size: 12px; }
.bar { display: inline-block; height: .7em; background: #4878a8; vertical-align: baseline; }
.indent { color: #999; }
.ok { color: #1a7a2e; } .bad { color: #b3261e; } .muted { color: #888; }
.kind-stage { background: #fff3d6; }
pre { background: #f7f7f7; padding: .6rem; overflow-x: auto; font-size: 12px; }
svg { display: block; }
summary { cursor: pointer; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt_num(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:g}"


def _span_rows(
    span: Span, total: float, depth: int, rows: list[str]
) -> None:
    pct = 100.0 * span.wall_s / total if total > 0 else 0.0
    indent = '<span class="indent">' + "&nbsp;" * (2 * depth) + "</span>"
    rows.append(
        "<tr>"
        f'<td class="mono">{indent}{_esc(span.name)}</td>'
        f'<td class="num">{span.count}</td>'
        f'<td class="num">{span.wall_s:.4f}</td>'
        f'<td class="num">{pct:.1f}</td>'
        f'<td><span class="bar" style="width:{max(pct, 0.0) * 3:.0f}px"></span></td>'
        "</tr>"
    )
    for child in span.children.values():
        _span_rows(child, total, depth + 1, rows)


def _kv_table(items: dict[str, Any], value_class: str = "num") -> str:
    rows = "".join(
        f'<tr><td class="mono">{_esc(k)}</td>'
        f'<td class="{value_class}">{_esc(_fmt_num(v) if isinstance(v, (int, float)) else v)}</td></tr>'
        for k, v in sorted(items.items())
    )
    return f"<table><tbody>{rows}</tbody></table>"


def _sparkline(values: list[float], width: int = 260, height: int = 44) -> str:
    """An inline SVG polyline of a series (last point highlighted)."""
    if not values:
        return '<span class="muted">no history</span>'
    lo, hi = min(values), max(values)
    spread = hi - lo
    if spread <= 0.0:  # flat series: draw a horizontal line
        spread = 1.0
    pad = 4.0
    n = len(values)
    step = (width - 2 * pad) / max(n - 1, 1)
    points = [
        (
            pad + i * step,
            height - pad - (height - 2 * pad) * (v - lo) / spread,
        )
        for i, v in enumerate(values)
    ]
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    last_x, last_y = points[-1]
    return (
        f'<svg width="{width}" height="{height}" role="img" '
        f'aria-label="history sparkline ({n} runs)">'
        f'<polyline points="{path}" fill="none" stroke="#4878a8" stroke-width="1.5"/>'
        f'<circle cx="{last_x:.1f}" cy="{last_y:.1f}" r="2.5" fill="#b3261e"/>'
        "</svg>"
    )


def _stage_strip(events: list[dict[str, Any]], width: int = 900) -> str:
    """An SVG strip of stage start/done marks over wall time."""
    stamped = [e for e in events if isinstance(e.get("ts"), (int, float))]
    if not stamped:
        return ""
    t0 = min(float(e["ts"]) for e in stamped)
    t1 = max(float(e["ts"]) for e in stamped)
    span = t1 - t0
    if span <= 0.0:  # single-instant log: collapse to the left edge
        span = 1.0
    stages = [e for e in stamped if e.get("kind") == "stage"]
    height = 46
    marks: list[str] = []
    open_at: dict[str, float] = {}
    for event in stages:
        name = str(event.get("name", ""))
        status = str(event.get("attrs", {}).get("status", ""))
        x = 20 + (width - 40) * (float(event["ts"]) - t0) / span
        if status == "start":
            open_at[name] = x
            continue
        x0 = open_at.pop(name, x)
        color = "#4878a8" if status == "done" else "#b3261e"
        marks.append(
            f'<rect x="{x0:.1f}" y="12" width="{max(x - x0, 2.0):.1f}" '
            f'height="14" rx="2" fill="{color}" fill-opacity="0.75">'
            f"<title>{_esc(name)} ({_esc(status)})</title></rect>"
        )
        marks.append(
            f'<text x="{x0:.1f}" y="40" font-size="10" fill="#555">'
            f"{_esc(name)}</text>"
        )
    # Stages still open at the end of the log render to the right edge.
    for name, x0 in open_at.items():
        marks.append(
            f'<rect x="{x0:.1f}" y="12" width="{max(width - 20 - x0, 2.0):.1f}" '
            'height="14" rx="2" fill="#999" fill-opacity="0.6">'
            f"<title>{_esc(name)} (open)</title></rect>"
        )
    return (
        f'<svg width="{width}" height="{height}">'
        f'<line x1="20" y1="33" x2="{width - 20}" y2="33" stroke="#ccc"/>'
        + "".join(marks)
        + '<text x="20" y="10" font-size="10" fill="#888">0.0 s</text>'
        f'<text x="{width - 70}" y="10" font-size="10" fill="#888">'
        f"{span:.1f} s</text></svg>"
    )


def _event_rows(events: list[dict[str, Any]], t0: float) -> str:
    rows = []
    for event in events:
        ts = event.get("ts")
        rel = f"{float(ts) - t0:8.3f}" if isinstance(ts, (int, float)) else "?"
        kind = _esc(event.get("kind", "?"))
        value = event.get("value")
        rows.append(
            f'<tr class="kind-{kind}">'
            f'<td class="num">{event.get("seq", "?")}</td>'
            f'<td class="num mono">{rel}</td>'
            f"<td>{kind}</td>"
            f'<td class="mono">{_esc(event.get("name", ""))}</td>'
            f'<td class="num">{_fmt_num(value) if isinstance(value, (int, float)) else ""}</td>'
            f'<td class="mono muted">{_esc(json.dumps(event.get("attrs", {}), sort_keys=True)) if event.get("attrs") else ""}</td>'
            "</tr>"
        )
    return "".join(rows)


def _events_section(events: list[dict[str, Any]]) -> str:
    stamped = [e for e in events if isinstance(e.get("ts"), (int, float))]
    t0 = min((float(e["ts"]) for e in stamped), default=0.0)
    kinds: dict[str, int] = {}
    for event in events:
        kind = str(event.get("kind", "?"))
        kinds[kind] = kinds.get(kind, 0) + 1
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(kinds.items()))
    if len(events) > _EVENT_TABLE_HEAD + _EVENT_TABLE_TAIL:
        head = events[:_EVENT_TABLE_HEAD]
        tail = events[-_EVENT_TABLE_TAIL:]
        elided = len(events) - len(head) - len(tail)
        body = (
            _event_rows(head, t0)
            + f'<tr><td colspan="6" class="muted">… {elided} event(s) elided …</td></tr>'
            + _event_rows(tail, t0)
        )
    else:
        body = _event_rows(events, t0)
    return (
        f"<p>{len(events)} event(s) — {_esc(summary)}</p>"
        + _stage_strip(events)
        + "<details><summary>event table</summary><table><thead><tr>"
        '<th class="num">seq</th><th class="num">t [s]</th><th>kind</th>'
        '<th>name</th><th class="num">value</th><th>attrs</th>'
        f"</tr></thead><tbody>{body}</tbody></table></details>"
    )


def _history_section(history: list[HistoryRecord]) -> str:
    walls = [record.wall_s for record in history]
    rows = "".join(
        f'<tr><td class="mono">{_esc(r.recorded_at)}</td>'
        f'<td class="mono">{_esc(r.git_sha[:10])}</td>'
        f'<td class="num">{r.wall_s:.3f}</td></tr>'
        for r in history[-8:]
    )
    return (
        f"<p>wall-time trajectory, {len(history)} stored run(s):</p>"
        + _sparkline(walls)
        + "<details><summary>recent records</summary><table><thead>"
        '<tr><th>recorded</th><th>git</th><th class="num">wall [s]</th></tr>'
        f"</thead><tbody>{rows}</tbody></table></details>"
    )


def _verdict_section(verdict: RegressionVerdict) -> str:
    css = "ok" if verdict.ok else "bad"
    return (
        f'<p class="{css}"><strong>{_esc(verdict.summary())}</strong></p>'
        f"<pre>{_esc(verdict.table(show_ok=False))}</pre>"
    )


def render_flight_html(
    report: RunReport,
    events: list[dict[str, Any]] | None = None,
    history: list[HistoryRecord] | None = None,
    verdict: RegressionVerdict | None = None,
    title: str = "repro-emi flight recorder",
) -> str:
    """Render the self-contained flight-recorder HTML for one run.

    Args:
        report: the traced run (``--metrics-out`` / ``BENCH_*.json``).
        events: parsed ``--events-out`` JSONL lines, in file order
            (pass ``None`` when no event log exists).
        history: recent :class:`~repro.obs.PerfHistory` records of the
            same series, oldest first, for the sparkline section.
        verdict: the regression verdict of this run against its
            baseline, when one was computed.
        title: the document title.
    """
    span_rows: list[str] = []
    total = report.root.wall_s or 1e-30
    _span_rows(report.root, total, 0, span_rows)
    sections = [
        f"<h1>{_esc(title)}</h1>",
        "<h2>Run</h2>",
        _kv_table(dict(report.meta), value_class="mono"),
        "<h2>Span tree</h2>",
        "<table><thead><tr><th>span</th>"
        '<th class="num">calls</th><th class="num">wall [s]</th>'
        '<th class="num">%</th><th></th></tr></thead>'
        f"<tbody>{''.join(span_rows)}</tbody></table>",
    ]
    totals = report.totals()
    if totals:
        sections += ["<h2>Counters</h2>", _kv_table(dict(totals))]
    if report.gauges:
        sections += ["<h2>Gauges</h2>", _kv_table(dict(report.gauges))]
    if events is not None:
        sections += ["<h2>Event timeline</h2>", _events_section(events)]
    if history:
        sections += ["<h2>Recent history</h2>", _history_section(history)]
    if verdict is not None:
        sections += ["<h2>Regression verdict</h2>", _verdict_section(verdict)]
    body = "\n".join(sections)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style></head>\n"
        f"<body>\n{body}\n</body></html>\n"
    )
