"""Per-layer metrics of a traced run, and the trace report it writes.

Two sources, neither of which adds tracing inside ``src/``:

* spans that the workloads open around their calls into each layer's
  public functions (``coupling.pairwise``, ``placement.autoplace``, ...),
  plus spans opened here around three methods the program calls on its
  own (:func:`instrumented`: persistent-cache get/put and the buck
  converter's emission spectrum);
* the spans, counters and histograms that :mod:`repro.obs` already
  records (``placement.rotation``, ``sensitivity.rank``,
  ``circuit.mna_factorizations``, ...).

Timings are per call (``*_s``, ``*_ms``), work counts are per op, rates
divide a count by the busy time of the span that did the work.  A metric
whose layer a workload never enters reads 0.
"""

from __future__ import annotations

import contextlib
import functools
from collections.abc import Iterator

from repro import obs
from repro.converters import BuckConverterDesign
from repro.obs import RunReport, Span
from repro.parallel import PersistentCouplingCache

#: name -> (unit, better), in report order.  Mirrored by BENCHMARK.json.
PER_LAYER: dict[str, tuple[str, str]] = {
    "peec.field_map_s": ("s", "lower"),
    "peec.field_points_per_s": ("1/s", "higher"),
    "peec.filament_pairs": ("count", "lower"),
    "peec.self_inductance_evals": ("count", "lower"),
    "coupling.pairwise_s": ("s", "lower"),
    "coupling.pairs_per_s": ("1/s", "higher"),
    "coupling.polarized_s": ("s", "lower"),
    "coupling.cache_hit_ratio": ("ratio", "higher"),
    "parallel.cache_get_s": ("s", "lower"),
    "parallel.cache_put_s": ("s", "lower"),
    "placement.autoplace_s": ("s", "lower"),
    "placement.rotation_s": ("s", "lower"),
    "placement.sequential_s": ("s", "lower"),
    "placement.candidates_scored": ("count", "lower"),
    "placement.candidates_per_s": ("1/s", "higher"),
    "placement.drc_move_ms": ("ms", "lower"),
    "placement.check_all_s": ("s", "lower"),
    "sensitivity.rank_s": ("s", "lower"),
    "circuit.mna_factorizations": ("count", "lower"),
    "converters.emission_spectrum_s": ("s", "lower"),
    "rules.derive_s": ("s", "lower"),
    "core.stage_s.sensitivity": ("s", "lower"),
    "core.stage_s.rules": ("s", "lower"),
    "core.stage_s.placement": ("s", "lower"),
    "core.stage_s.verification": ("s", "lower"),
    "obs.trace_overhead_ratio": ("ratio", "lower"),
    "emi_margin_db": ("dB", "higher"),
    "wirelength_mm": ("mm", "lower"),
    "k_err_rel_max": ("ratio", "lower"),
}

#: Program methods called from inside other layers, timed by wrapping.
_WRAPPED = (
    (PersistentCouplingCache, "get", "parallel.cache_get"),
    (PersistentCouplingCache, "put", "parallel.cache_put"),
    (BuckConverterDesign, "emission_spectrum", "converters.emission_spectrum"),
)

#: Span-name prefixes whose code lives in a differently named layer.
_LAYER_OF_PREFIX = {"flow": "core"}


@contextlib.contextmanager
def instrumented() -> Iterator[None]:
    """Open a span around each method in :data:`_WRAPPED` while active."""
    originals = [(cls, attr, getattr(cls, attr)) for cls, attr, _ in _WRAPPED]

    def wrap(fn, name):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with obs.get_tracer().span(name):
                return fn(*args, **kwargs)

        return timed

    for (cls, attr, fn), (_, _, name) in zip(originals, _WRAPPED):
        setattr(cls, attr, wrap(fn, name))
    try:
        yield
    finally:
        for cls, attr, fn in originals:
            setattr(cls, attr, fn)


def span_stats(root: Span) -> dict[str, list[float]]:
    """``name -> [calls, wall_s, self_s]`` summed over every tree position.

    Self time is a span's wall time minus the wall time of its children.
    """
    stats: dict[str, list[float]] = {}
    for _, node in root.walk():
        if node is root:
            continue
        child_wall = sum(c.wall_s for c in node.children.values())
        entry = stats.setdefault(node.name, [0, 0.0, 0.0])
        entry[0] += node.count
        entry[1] += node.wall_s
        entry[2] += node.wall_s - child_wall
    return stats


def layer_of(span_name: str) -> str:
    prefix = span_name.split(".", 1)[0]
    return _LAYER_OF_PREFIX.get(prefix, prefix)


def layer_self_times(stats: dict[str, list[float]]) -> dict[str, dict[str, float]]:
    """Self time, share of the total and span entries per layer."""
    layers: dict[str, dict[str, float]] = {}
    for name, (calls, _wall, self_s) in stats.items():
        entry = layers.setdefault(layer_of(name), {"self_s": 0.0, "spans": 0})
        entry["self_s"] += self_s
        entry["spans"] += calls
    total = sum(e["self_s"] for e in layers.values()) or 1.0
    for entry in layers.values():
        entry["share"] = entry["self_s"] / total
    return dict(sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]))


def op_coverage(root: Span) -> float:
    """Share of op wall time spent inside timed public-layer calls."""
    op = root.children.get("bench.op")
    if op is None or op.wall_s <= 0.0:
        return 0.0
    return sum(c.wall_s for c in op.children.values()) / op.wall_s


def per_layer_metrics(
    timed: RunReport,
    setup: RunReport,
    ops: int,
    overhead_ratio: float,
    quality: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from the traced reports."""
    stats = span_stats(timed.root)
    setup_stats = span_stats(setup.root)
    counters = timed.totals()

    def per_call(name: str, source=stats) -> float:
        calls, wall, _ = source.get(name, (0, 0.0, 0.0))
        return wall / calls if calls else 0.0

    def wall(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[1]

    def per_op(counter: str) -> float:
        return counters.get(counter, 0.0) / ops

    def rate(counter: str, span_name: str) -> float:
        busy = wall(span_name)
        return counters.get(counter, 0.0) / busy if busy else 0.0

    hits = counters.get("coupling.cache_hits", 0.0)
    lookups = hits + counters.get("coupling.cache_misses", 0.0)
    metrics = {
        "peec.field_map_s": per_call("peec.field_map"),
        "peec.field_points_per_s": rate("bench.field_points", "peec.field_map"),
        "peec.filament_pairs": per_op("peec.filament_pairs"),
        "peec.self_inductance_evals": per_op("peec.self_inductance_evals"),
        "coupling.pairwise_s": per_call("coupling.pairwise"),
        "coupling.pairs_per_s": rate("bench.coupling_pairs", "coupling.pairwise"),
        "coupling.polarized_s": per_call("coupling.polarized"),
        "coupling.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "parallel.cache_get_s": per_call("parallel.cache_get"),
        "parallel.cache_put_s": per_call("parallel.cache_put", setup_stats),
        "placement.autoplace_s": per_call("placement.run"),
        "placement.rotation_s": per_call("placement.rotation"),
        "placement.sequential_s": per_call("placement.sequential"),
        "placement.candidates_scored": per_op("placement.candidates_scored"),
        "placement.candidates_per_s": rate("placement.candidates_scored", "placement.sequential"),
        "placement.drc_move_ms": per_call("placement.drc_move") * 1e3,
        "placement.check_all_s": per_call("placement.drc.check_all"),
        "sensitivity.rank_s": per_call("sensitivity.rank"),
        "circuit.mna_factorizations": per_op("circuit.mna_factorizations"),
        "converters.emission_spectrum_s": per_call("converters.emission_spectrum"),
        "rules.derive_s": per_call("flow.rules"),
        "core.stage_s.sensitivity": wall("flow.sensitivity") / ops,
        "core.stage_s.rules": wall("flow.rules") / ops,
        "core.stage_s.placement": wall("flow.placement") / ops,
        "core.stage_s.verification": wall("flow.verification") / ops,
        "obs.trace_overhead_ratio": overhead_ratio,
        "emi_margin_db": quality.get("emi_margin_db", 0.0),
        "wirelength_mm": quality.get("wirelength_mm", 0.0),
        "k_err_rel_max": quality.get("k_err_rel_max", 0.0),
    }
    assert list(metrics) == list(PER_LAYER)
    return metrics


def trace_report(
    timed: RunReport, setup: RunReport, metrics: dict[str, float], meta: dict
) -> dict:
    """The JSON document a traced run writes when it ends."""
    stats = span_stats(timed.root)
    return {
        **meta,
        "op_coverage": op_coverage(timed.root),
        "layers": layer_self_times(stats),
        "spans": {
            name: {"calls": calls, "wall_s": wall, "self_s": self_s}
            for name, (calls, wall, self_s) in sorted(stats.items())
        },
        "counters": timed.totals(),
        "per_layer": metrics,
        "timed_run": timed.to_dict(),
        "setup_run": setup.to_dict(),
    }
