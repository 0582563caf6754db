"""Equivalence gate for the packed all-pairs coupling path.

The coupling layer now places each part once as arrays and evaluates one
kernel call per source part.  The oracle below is the former per-pair
path, kept verbatim in spirit: every pair re-places both parts as
:class:`Filament` objects through :meth:`Transform3D.apply`, packs them
into arrays, runs the two-set Neumann kernel and contracts with the
weights.  Every comparison is exact equality, not approximate.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from filament_oracle import unpack

from repro.components import default_library
from repro.coupling import CouplingDatabase, CouplingResult, component_coupling
from repro.coupling.database import _validated
from repro.geometry import Placement2D, Vec2
from repro.obs import Tracer, set_tracer
from repro.parallel import pair_key
from repro.peec.filament import (
    _gauss_legendre_01,
    _neumann_integral,
    _neumann_scale,
    _rows_per_chunk,
)

ORDER = 8
PLANE_Z = -1.6e-3
COUNTERS = (
    "peec.filament_pairs",
    "peec.mutual_evals",
    "peec.self_inductance_evals",
    "peec.filaments_meshed",
    "coupling.cache_hits",
    "coupling.cache_misses",
)


# -- the former per-pair object path (the oracle) -----------------------------


def old_placed(component, placement):
    transform = placement.to_transform3d()
    return [
        replace(f, start=transform.apply(f.start), end=transform.apply(f.end))
        for f in unpack(component.current_path.packed)
    ]


def old_image(filaments, plane_z):
    return [replace(f.mirrored_z(plane_z), weight=-f.weight) for f in filaments]


def old_pack(filaments):
    starts = np.array([[f.start.x, f.start.y, f.start.z] for f in filaments])
    ends = np.array([[f.end.x, f.end.y, f.end.z] for f in filaments])
    deltas = ends - starts
    return starts, deltas, np.linalg.norm(deltas, axis=1)


def old_neumann_matrix(filaments_a, filaments_b, order):
    nodes, weights = _gauss_legendre_01(order)
    s_a, d_a, len_a = old_pack(filaments_a)
    s_b, d_b, len_b = old_pack(filaments_b)
    # Quadrature points as (3, n, order) coordinate planes, the kernel's operand.
    p_a = np.moveaxis(s_a[:, None, :] + nodes[None, :, None] * d_a[:, None, :], -1, 0)
    p_b = np.moveaxis(s_b[:, None, :] + nodes[None, :, None] * d_b[:, None, :], -1, 0)
    integral = np.empty((len(filaments_a), len(filaments_b)))
    step = _rows_per_chunk(len(filaments_b) * order * order)
    for lo in range(0, len(filaments_a), step):
        integral[lo : lo + step] = _neumann_integral(
            p_a[:, lo : lo + step, None, :, None],
            p_b[:, None, :, None, :],
            np.outer(weights, weights),
        )
    len_a[len_a < 1e-12] = 1e-12
    len_b[len_b < 1e-12] = 1e-12
    t_a = d_a * (1.0 / len_a)[:, None]
    t_b = d_b * (1.0 / len_b)[:, None]
    return _neumann_scale(t_a @ t_b.T, len_a[:, None], len_b[None, :]) * integral


def old_mutual(filaments_a, filaments_b, order, counts):
    counts["peec.mutual_evals"] += 1
    counts["peec.filament_pairs"] += len(filaments_a) * len(filaments_b)
    matrix = old_neumann_matrix(filaments_a, filaments_b, order)
    w_a = np.array([f.weight for f in filaments_a])
    w_b = np.array([f.weight for f in filaments_b])
    return float(np.sum((w_a[:, None] * w_b[None, :]) * matrix))


def old_coupling(comp_a, pl_a, comp_b, pl_b, plane_z, counts, order=ORDER):
    path_a = old_placed(comp_a, pl_a)
    path_b = old_placed(comp_b, pl_b)
    la_geo = comp_a.geometric_inductance
    lb_geo = comp_b.geometric_inductance
    if plane_z is not None:
        m_air = old_mutual(path_a + old_image(path_a, plane_z), path_b, order, counts)
        la_geo = la_geo + old_mutual(old_image(path_a, plane_z), path_a, order, counts)
        lb_geo = lb_geo + old_mutual(old_image(path_b, plane_z), path_b, order, counts)
        la_geo = max(la_geo, 1e-12)
        lb_geo = max(lb_geo, 1e-12)
    else:
        m_air = old_mutual(path_a, path_b, order, counts)
    mu_a, mu_b = comp_a.mu_eff, comp_b.mu_eff
    m = m_air * math.sqrt(mu_a * comp_a.core.stray_fraction * mu_b * comp_b.core.stray_fraction)
    la = la_geo * mu_a
    lb = lb_geo * mu_b
    return m, la, lb, m / math.sqrt(la * lb)


def old_pairwise(placed, plane_z):
    """What a fresh database held and returned under the per-pair path.

    Returns ``(results by refdes pair, cache contents, counter deltas)``.
    """
    counts = dict.fromkeys(("peec.mutual_evals", "peec.filament_pairs"), 0)
    results, cache = {}, {}
    for (ref_a, comp_a, pl_a), (ref_b, comp_b, pl_b) in combinations(placed, 2):
        m, la, lb, k = old_coupling(comp_a, pl_a, comp_b, pl_b, plane_z, counts)
        result = _validated(
            CouplingResult(
                k=k, mutual_h=m, self_a_h=la, self_b_h=lb, shielded=plane_z is not None
            ),
            comp_a.part_number,
            comp_b.part_number,
        )
        cache[pair_key(comp_a, pl_a, comp_b, pl_b, plane_z, ORDER)] = result
        if ref_a < ref_b:
            results[(ref_a, ref_b)] = result
        else:  # keyed by the sorted pair, so self_a_h is the smaller refdes's
            results[(ref_b, ref_a)] = replace(
                result, self_a_h=result.self_b_h, self_b_h=result.self_a_h
            )
    return results, cache, counts


# -- boards -------------------------------------------------------------------

LIBRARY = default_library()


def library_board(seed=None):
    """Every library part once: on a fixed grid, or at seeded random poses.

    Random boards draw rotations, bottom-side mounting and standoffs (the
    first part always sits on the bottom side, the second on a standoff),
    and keep the parts' circumscribed discs 1 mm apart (no CPL001 overlap).
    """
    rng = None if seed is None else random.Random(f"packed-coupling:{seed}")
    names = LIBRARY.part_numbers()
    if rng is not None:
        names = rng.sample(names, rng.randint(8, 12))
    placed, discs = [], []
    for i, name in enumerate(names):
        part = LIBRARY.create(name)
        radius = part.max_extent() / 2.0 + 1e-3
        if rng is None:
            x, y = 0.045 * (i % 5), 0.045 * (i // 5)
            pose = Placement2D(Vec2(x, y), math.radians(37.0 * i), z_offset=0.0, side=1)
        else:
            while True:
                x, y = rng.uniform(0.0, 0.16), rng.uniform(0.0, 0.12)
                if all(math.hypot(x - px, y - py) >= radius + pr for px, py, pr in discs):
                    break
            pose = Placement2D(
                Vec2(x, y),
                math.radians(rng.uniform(0.0, 360.0)),
                z_offset=4e-3 if i == 1 else rng.choice([0.0, 0.0, 1.5e-3, 4e-3]),
                side=-1 if i == 0 else rng.choice([1, 1, -1]),
            )
        discs.append((x, y, radius))
        placed.append((f"{name}#{i}", part, pose))
    return placed


def fresh(placed):
    """The same board with freshly built parts (cold self-L and meshing)."""
    return [(ref, LIBRARY.create(part.part_number), pose) for ref, part, pose in placed]


BOARDS = {"fixed": library_board(), **{f"seed{s}": library_board(s) for s in range(10)}}


def traced(fn):
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        value = fn()
    finally:
        set_tracer(previous)
    totals = tracer.report().totals()
    return value, {name: totals.get(name, 0.0) for name in COUNTERS}


# -- the gate -----------------------------------------------------------------


@pytest.mark.parametrize("plane_z", [None, PLANE_Z], ids=["free", "plane"])
@pytest.mark.parametrize("board", sorted(BOARDS))
def test_database_and_counters_equal_the_per_pair_path(board, plane_z):
    placed = BOARDS[board]
    db = CouplingDatabase(ground_plane_z=plane_z)
    results, counters = traced(lambda: db.pairwise_couplings(fresh(placed)))
    (expected, cache, old_counts), oracle_counters = traced(
        lambda: old_pairwise(fresh(placed), plane_z)
    )
    assert results == expected
    assert db._cache == cache

    # The oracle's kernel calls bypass the tracer; add their counts back.
    for name, n in old_counts.items():
        oracle_counters[name] += n
    oracle_counters["coupling.cache_misses"] = len(expected)
    if plane_z is not None:
        # The own-image term is now solved once per placed part instead of
        # once per pair and side; nothing else is saved.
        sizes = [len(part.current_path) for _, part, _ in placed]
        pairs = list(combinations(sizes, 2))
        oracle_counters["peec.mutual_evals"] -= 2 * len(pairs) - len(sizes)
        oracle_counters["peec.filament_pairs"] -= sum(a * a + b * b for a, b in pairs) - sum(
            n * n for n in sizes
        )
    assert counters == oracle_counters


@pytest.mark.parametrize("plane_z", [None, PLANE_Z], ids=["free", "plane"])
def test_single_pair_view_equals_the_per_pair_path(plane_z):
    placed = BOARDS["seed3"]
    counts = dict.fromkeys(("peec.mutual_evals", "peec.filament_pairs"), 0)
    for (_, comp_a, pl_a), (_, comp_b, pl_b) in combinations(placed[:6], 2):
        result = component_coupling(comp_a, pl_a, comp_b, pl_b, plane_z)
        m, la, lb, k = old_coupling(comp_a, pl_a, comp_b, pl_b, plane_z, counts)
        assert (result.mutual_h, result.self_a_h, result.self_b_h, result.k) == (m, la, lb, k)
