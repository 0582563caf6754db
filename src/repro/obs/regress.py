"""Regression engine: diff one run report against another.

Spans are keyed by their full path (``run/flow.rules/coupling.field_solve``)
so a hot path showing up under a new parent reads as *new*, not as a
mutation of the old one.

Semantics (see docs/OBSERVABILITY.md):

* **span wall times** are noisy — a span regresses only when it exceeds
  the baseline by :data:`WALL_REL` *and* clears the absolute floor
  :data:`MIN_WALL_S`, so micro-spans cannot flap the verdict;
* **counters are work counters** (field solves, filament pairs, MNA
  factorizations): deterministic for a given code state, so the
  threshold :data:`COUNTER_REL` is tight and *more is worse* — a counter
  that grows rates a regression, one that shrinks an improvement;
* spans/counters present only on one side rate ``new`` / ``missing``.

The verdict is a reading aid for ``repro-emi perf diff`` and the flight
recorder, not a gate: exact work counters are gated in tier-1 by
``tests/test_work_counters.py``.

:func:`compare` produces a :class:`RegressionVerdict` — a machine-readable
(``to_dict``) and human-readable (``table``) list of per-metric deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .report import RunReport

__all__ = [
    "Delta",
    "RegressionVerdict",
    "span_walls",
    "compare",
]


#: Relative wall-time growth that rates a span a regression (+30 %).
WALL_REL = 0.30
#: Relative growth that rates a counter a regression.
COUNTER_REL = 0.05
#: Spans whose baseline *and* current wall are below this never rate [s].
MIN_WALL_S = 0.005
#: Counters must move by at least this much to rate (guards integer
#: counters near zero).
MIN_COUNTER = 0.5


@dataclass(frozen=True)
class Delta:
    """One metric compared between baseline and current run.

    Attributes:
        kind: ``"span"`` (wall seconds) or ``"counter"`` (totals).
        name: span path (``/``-joined) or counter name.
        baseline: baseline value (``None`` when the metric is new).
        current: current value (``None`` when the metric went missing).
        ratio: ``current / baseline`` where defined.
        status: ``ok`` | ``regression`` | ``improvement`` | ``new`` |
            ``missing``.
    """

    kind: str
    name: str
    baseline: float | None
    current: float | None
    ratio: float | None
    status: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        return {
            "kind": self.kind,
            "name": self.name,
            "baseline": self.baseline,
            "current": self.current,
            "ratio": self.ratio,
            "status": self.status,
        }


@dataclass
class RegressionVerdict:
    """The full outcome of one run-against-run comparison."""

    deltas: list[Delta]

    @property
    def regressions(self) -> list[Delta]:
        """The deltas rated ``regression``."""
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def improvements(self) -> list[Delta]:
        """The deltas that beat the baseline."""
        return [d for d in self.deltas if d.status == "improvement"]

    @property
    def ok(self) -> bool:
        """True when nothing regressed."""
        return not self.regressions

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable verdict (the ``perf diff --format json`` body)."""
        return {
            "ok": self.ok,
            "thresholds": {
                "wall_rel": WALL_REL,
                "counter_rel": COUNTER_REL,
                "min_wall_s": MIN_WALL_S,
                "min_counter": MIN_COUNTER,
            },
            "regressions": len(self.regressions),
            "improvements": len(self.improvements),
            "deltas": [d.to_dict() for d in self.deltas],
        }

    def table(self, show_ok: bool = True) -> str:
        """Aligned per-metric delta table, worst offenders first."""
        order = {"regression": 0, "missing": 1, "new": 2, "improvement": 3, "ok": 4}
        rows: list[tuple[str, str, str, str, str, str]] = []
        for delta in sorted(
            self.deltas,
            key=lambda d: (order.get(d.status, 9), -(d.ratio or 0.0), d.name),
        ):
            if not show_ok and delta.status == "ok":
                continue
            fmt = "{:.4f}" if delta.kind == "span" else "{:g}"
            rows.append(
                (
                    delta.kind,
                    delta.name,
                    "-" if delta.baseline is None else fmt.format(delta.baseline),
                    "-" if delta.current is None else fmt.format(delta.current),
                    "-"
                    if delta.ratio is None
                    else f"{(delta.ratio - 1.0) * 100.0:+.1f}%",
                    delta.status,
                )
            )
        if not rows:
            return "(all metrics within thresholds)"
        headers = ("kind", "metric", "baseline", "current", "delta", "status")
        widths = [
            max(len(headers[i]), max(len(r[i]) for r in rows)) for i in range(6)
        ]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()
        ]
        for row in rows:
            lines.append(
                "  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip()
            )
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line outcome for terminals and CI logs."""
        verdict = "OK" if self.ok else "REGRESSION"
        return (
            f"perf {verdict}: {len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s)"
        )


def span_walls(report: RunReport) -> dict[str, float]:
    """Wall seconds per ``/``-joined span path (paths are unique)."""
    return {
        "/".join(path): span.wall_s for path, span in report.root.walk_paths()
    }


def _classify_span(base: float | None, cur: float | None) -> tuple[float | None, str]:
    if base is None:
        return None, "new"
    if cur is None:
        return None, "missing"
    if base < MIN_WALL_S and cur < MIN_WALL_S:
        return None, "ok"
    # Floor the denominator so a near-zero baseline cannot explode the
    # ratio for a span that merely crossed the noise floor.
    ratio = cur / max(base, MIN_WALL_S)  # MIN_WALL_S > 0
    if cur >= MIN_WALL_S and ratio > 1.0 + WALL_REL:
        return ratio, "regression"
    if base >= MIN_WALL_S and ratio < 1.0 / (1.0 + WALL_REL):
        return ratio, "improvement"
    return ratio, "ok"


def _classify_counter(base: float | None, cur: float | None) -> tuple[float | None, str]:
    if base is None:
        return None, "new"
    if cur is None:
        return None, "missing"
    ratio = cur / base if base > 0.0 else None
    if abs(cur - base) < MIN_COUNTER:
        return ratio, "ok"
    if cur > base * (1.0 + COUNTER_REL):
        return ratio, "regression"
    if cur < base * (1.0 - COUNTER_REL):
        return ratio, "improvement"
    return ratio, "ok"


def compare(baseline: RunReport, current: RunReport) -> RegressionVerdict:
    """Diff ``current`` against ``baseline``.

    Returns:
        A verdict with one :class:`Delta` per span path and per counter
        seen on either side.
    """
    base_spans, cur_spans = span_walls(baseline), span_walls(current)
    base_counters, cur_counters = baseline.totals(), current.totals()

    deltas: list[Delta] = []
    for name in sorted(base_spans.keys() | cur_spans.keys()):
        base, cur = base_spans.get(name), cur_spans.get(name)
        ratio, status = _classify_span(base, cur)
        deltas.append(Delta("span", name, base, cur, ratio, status))
    for name in sorted(base_counters.keys() | cur_counters.keys()):
        base, cur = base_counters.get(name), cur_counters.get(name)
        ratio, status = _classify_counter(base, cur)
        deltas.append(Delta("counter", name, base, cur, ratio, status))
    return RegressionVerdict(deltas)
