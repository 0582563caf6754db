"""Scaling — placer runtime versus problem size, and the coupling engine.

The paper: "It is well known that layout problems are NP hard concerning
their algorithmic complexity … it is necessary to decompose the placement
problems in sub-tasks and to solve them with efficient heuristic methods."
This bench measures the heuristic's empirical scaling: components from 8
to 48 with a proportional rule count, candidates scored and legality per
size.  The artefacts hold counts only; each size's wall time is its
``bench.placer.nXX`` span (and ``placer.runtime_s.nXX`` gauge) in the
BENCH report.

A second scenario measures the coupling hot path itself: the all-pairs
coupling matrix of the largest board, cold versus answered from a warm
persistent cache (the numbers quoted in docs/PERFORMANCE.md), with the
walls in ``bench.coupling.*`` spans and ``coupling.*_s`` gauges.
"""

import itertools
import math

from repro.components import (
    CeramicCapacitor,
    FilmCapacitorX2,
    small_bobbin_choke,
)
from repro.coupling import CouplingDatabase
from repro.geometry import Placement2D, Polygon2D
from repro.obs import get_tracer
from repro.parallel import PersistentCouplingCache
from repro.placement import AutoPlacer, Board, PlacedComponent, PlacementProblem
from repro.rules import MinDistanceRule, RuleSet
from repro.viz import series_table


def build_problem(n_components: int) -> PlacementProblem:
    # Board area scales with the part count so density stays constant.
    side = 0.03 * math.sqrt(n_components)
    problem = PlacementProblem([Board(0, Polygon2D.rectangle(0, 0, side, side))])
    refs = []
    factories = [FilmCapacitorX2, small_bobbin_choke, CeramicCapacitor]
    for i in range(n_components):
        ref = f"U{i}"
        refs.append(ref)
        problem.add_component(PlacedComponent(ref, factories[i % 3]()))
    # Rules between consecutive field-relevant parts (~n rules) plus a
    # sparse set of cross rules (~n/2).
    rules = []
    for i in range(n_components - 1):
        rules.append(MinDistanceRule(refs[i], refs[i + 1], pemd=0.018))
    for i, j in itertools.islice(
        ((a, a + 5) for a in range(0, n_components - 5, 2)), n_components // 2
    ):
        rules.append(MinDistanceRule(refs[i], refs[j], pemd=0.022))
    problem.rules = RuleSet(min_distance=rules)
    for i in range(0, n_components - 1, 2):
        problem.add_net(f"N{i}", [(refs[i], "1"), (refs[i + 1], "1")])
    return problem


def test_scaling_placer(benchmark, record):
    sizes = (8, 16, 24, 32, 48)
    rows = []
    timings, scored = {}, {}
    tracer = get_tracer()
    for n in sizes:
        problem = build_problem(n)
        name = f"bench.placer.n{n:02d}"
        with tracer.span(name) as span:
            report = AutoPlacer(problem).run()
        timings[n] = span.elapsed_s
        scored[n] = tracer.root.find(name).total_counters()["placement.candidates_scored"]
        # Per-size scalars for the perf-history trajectory (BENCH json +
        # perf-history.jsonl), so `perf history --stats` can chart growth.
        tracer.gauge(f"placer.runtime_s.n{n:02d}", timings[n])
        rows.append(
            [n, len(problem.rules.min_distance), int(scored[n]), report.violations_after]
        )

    def place_16():
        AutoPlacer(build_problem(16)).run()

    benchmark.pedantic(place_16, rounds=3, iterations=1)

    table = series_table(
        ["components", "min-dist rules", "candidates scored", "violations"], rows
    )
    record(
        "scaling_placer",
        f"{table}\n\ncandidates scored 8 -> 48 components: {scored[48] / scored[8]:.1f}x "
        f"(size grew 6x; the heuristic stays usably polynomial)",
    )
    growth = timings[48] / timings[8]

    assert all(int(r[3]) == 0 for r in rows)
    # Far from exponential: 6x the parts may cost at most ~40x the time
    # (the candidate set and the pair checks both grow with n).
    assert growth < 40.0


def placed_layout(n_components: int) -> list[tuple[str, object, Placement2D]]:
    """A deterministic placed board with few repeated relative poses.

    Irregular pitch and per-part rotation keep the in-memory pose dedup
    from short-circuiting the cold run, so the scenario times genuine
    field solves.
    """
    factories = [FilmCapacitorX2, small_bobbin_choke, CeramicCapacitor]
    cols = math.ceil(math.sqrt(n_components))
    placed: list[tuple[str, object, Placement2D]] = []
    for i in range(n_components):
        row, col = divmod(i, cols)
        x = col * 0.021 + 0.0007 * ((i * 7) % 5)
        y = row * 0.019 + 0.0005 * ((i * 11) % 7)
        placement = Placement2D.at(x, y, (i * 37.0) % 360.0)
        placed.append((f"U{i}", factories[i % 3](), placement))
    return placed


def test_scaling_coupling_engine(benchmark, record, tmp_path):
    """All-pairs couplings: cold batch vs. a warm persistent cache.

    The acceptance bar for the persistent cache: on the largest placer
    scenario the warm cached run must be at least 3x faster than the
    memory-only cold run, and every coupling coefficient must match that
    ground truth exactly (a disk hit returns the stored solve, so
    "within 1e-12" is met with equality).
    """
    n = 48
    cache_dir = tmp_path / "coupling-cache"
    tracer = get_tracer()

    with tracer.span("bench.coupling.serial_cold") as span:
        serial = CouplingDatabase().pairwise_couplings(placed_layout(n))
    t_serial = span.elapsed_s

    # Cold run that primes the persistent store.
    priming = CouplingDatabase(persistent=PersistentCouplingCache(cache_dir=cache_dir))
    with tracer.span("bench.coupling.cold_prime") as span:
        priming.pairwise_couplings(placed_layout(n))
    t_cold_prime = span.elapsed_s

    warm = CouplingDatabase(persistent=PersistentCouplingCache(cache_dir=cache_dir))
    with tracer.span("bench.coupling.warm") as span:
        cached = warm.pairwise_couplings(placed_layout(n))
    t_warm = span.elapsed_s

    def warm_lookup():
        db = CouplingDatabase(persistent=PersistentCouplingCache(cache_dir=cache_dir))
        db.pairwise_couplings(placed_layout(n))

    benchmark.pedantic(warm_lookup, rounds=3, iterations=1)

    speedup = t_serial / t_warm
    tracer.gauge("coupling.serial_cold_s", t_serial)
    tracer.gauge("coupling.cold_prime_s", t_cold_prime)
    tracer.gauge("coupling.warm_s", t_warm)
    tracer.gauge("coupling.warm_speedup", speedup)
    rows = [
        ["serial, cold (memory only)", len(serial), 0],
        ["serial, cold (priming cache)", priming.stats.misses, priming.stats.persistent_hits],
        ["serial, warm cache", warm.stats.misses, warm.stats.persistent_hits],
    ]
    table = series_table(["mode", "field solves", "disk hits"], rows)
    record("scaling_coupling_engine", f"{n} components, {len(serial)} pairs\n{table}")

    # Bitwise identity between the memory-only ground truth and the warm run.
    assert list(serial) == list(cached)
    assert all(serial[p].k == cached[p].k for p in serial)
    assert warm.stats.misses == 0
    assert warm.stats.persistent_hits == len(serial)
    assert speedup >= 3.0
