"""Loop and mutual inductance of current paths, and coupling factors.

These routines aggregate the filament-level partial inductances of
:mod:`repro.peec.filament` into the quantities the EMI flow actually uses:

* ``loop_self_inductance(path)`` — the self-inductance of a component's
  internal current loop (its ESL contribution from geometry), from the
  exact near-field pair kernel;
* ``mutual_inductance_paths_fast(a, b)`` — the mutual inductance between
  two placed components, the raw ingredient of interference coupling, from
  the order-8 disjoint-path kernel;
* ``coupling_factor(a, b)`` — the dimensionless ``k = M / sqrt(La * Lb)``
  that the sensitivity analysis and the design rules work with.
"""

from __future__ import annotations

import numpy as np

from ..obs import get_tracer
from ..units import Dimensionless, Henries
from .filament import mutual_inductance_pairs, neumann_mutual_matrix, self_inductance_bars
from .mesh import CurrentPath

__all__ = [
    "loop_self_inductance",
    "mutual_inductance_matrix",
    "mutual_inductance_paths_fast",
    "coupling_factor",
]


def loop_self_inductance(path: CurrentPath, order: int = 12) -> Henries:
    """Self-inductance of a current path [H].

    ``L = sum_i w_i^2 L_ii + 2 sum_{i < j} w_i w_j M_ij`` — the double sum
    over the path's own filaments with their signed turn weights, as one
    broadcast: Ruehli bar self-terms on the diagonal and the exact
    near-field kernel :func:`repro.peec.filament.mutual_inductance_pairs`
    over the upper triangle.  For a physically sensible loop the result is
    positive; a negative value indicates a broken discretisation and raises.
    """
    fils = path.filaments
    n = len(fils)
    tracer = get_tracer()
    with tracer.span("peec.self_inductance"):
        tracer.count("peec.self_inductance_evals")
        tracer.count("peec.filament_pairs", n * (n + 1) // 2)
        weights = np.array([f.weight for f in fils])
        diagonal = self_inductance_bars(
            np.array([f.length for f in fils]),
            np.array([f.width for f in fils]),
            np.array([f.thickness for f in fils]),
        )
        i, j = np.triu_indices(n, 1)
        mutuals = mutual_inductance_pairs(fils, i, j, order)
        total = float(
            np.sum(weights * weights * diagonal)
            + 2.0 * np.sum(weights[i] * weights[j] * mutuals)
        )
    if total <= 0.0:
        raise ValueError(
            f"non-positive loop inductance ({total:.3e} H) for path {path.name!r}: "
            "check filament directions/weights"
        )
    return total


def mutual_inductance_matrix(a: CurrentPath, b: CurrentPath, order: int = 8) -> np.ndarray:
    """Pairwise partial mutuals of two *disjoint* paths as one batch [H].

    A thin path-level wrapper over the vectorised
    :func:`repro.peec.filament.neumann_mutual_matrix` kernel: the whole
    filament-pair double loop collapses into numpy broadcasts.  Weights
    are *not* applied; entry ``(i, j)`` is the raw partial mutual of
    ``a.filaments[i]`` against ``b.filaments[j]``.

    Args:
        a, b: the two current paths (geometry in metres); must belong to
            different components so no filament pair nearly touches.
        order: Gauss–Legendre points per filament (dimensionless count).

    Returns:
        ``(len(a), len(b))`` array of partial mutual inductances [H].
    """
    tracer = get_tracer()
    tracer.count("peec.filament_pairs", len(a.filaments) * len(b.filaments))
    return neumann_mutual_matrix(a.filaments, b.filaments, order)


def mutual_inductance_paths_fast(a: CurrentPath, b: CurrentPath, order: int = 8) -> Henries:
    """Vectorised mutual inductance between two *disjoint* paths [H] (signed).

    Evaluates the Neumann integral for every filament pair in one numpy
    broadcast (:func:`mutual_inductance_matrix`) and contracts with the
    signed turn weights.  Valid when the two paths belong to different
    components — i.e. no filament pair overlaps or nearly touches — which
    is exactly the coupling-sweep use case; there it agrees with the exact
    near-field kernel to within a fraction of a percent at a fraction of
    the cost.  For a path against itself use :func:`loop_self_inductance`.

    The sign encodes the relative winding sense under the chosen terminal
    current directions; the EMI circuit model carries it through so that
    field cancellation by opposed orientation (the paper's design rule)
    is representable.
    """
    tracer = get_tracer()
    tracer.count("peec.mutual_evals")
    matrix = mutual_inductance_matrix(a, b, order)
    w_a = np.array([f.weight for f in a.filaments])
    w_b = np.array([f.weight for f in b.filaments])
    return float(np.sum((w_a[:, None] * w_b[None, :]) * matrix))


def coupling_factor(
    a: CurrentPath,
    b: CurrentPath,
    la: Henries | None = None,
    lb: Henries | None = None,
    order: int = 8,
) -> Dimensionless:
    """Magnetic coupling factor ``k = M / sqrt(La * Lb)`` (signed).

    ``M`` comes from :func:`mutual_inductance_paths_fast` at ``order``
    (so ``a`` and ``b`` must be disjoint), the self-inductances from
    :func:`loop_self_inductance`.  Passing precomputed self-inductances
    avoids recomputing them in sweeps where only the relative placement
    changes (self-L is placement invariant).
    """
    if la is None:
        la = loop_self_inductance(a)
    if lb is None:
        lb = loop_self_inductance(b)
    return mutual_inductance_paths_fast(a, b, order) / np.sqrt(la * lb)
