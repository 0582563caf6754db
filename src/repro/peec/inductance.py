"""Loop and mutual inductance of current paths.

These routines aggregate the filament-level partial inductances of
:mod:`repro.peec.filament` into the quantities the EMI flow actually uses:

* ``loop_self_inductance(path)`` — the self-inductance of a component's
  internal current loop (its ESL contribution from geometry), from the
  exact near-field pair kernel, solved once per isometry class of
  filament pairs;
* ``mutual_inductance_row(source, targets)`` — the mutual inductances of
  one placed component against many others, the raw ingredient of
  interference coupling, from one call of the disjoint-path kernel at
  :data:`~repro.peec.filament.PAIR_ORDER` (``mutual_inductance_paths_fast(a, b)``
  is its single-pair view).

The dimensionless coupling factor ``k = M / sqrt(La * Lb)`` of a placed
part pair is formed in one place, :mod:`repro.coupling.pair`, which also
applies the core permeability and stray-field scaling.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..geometry import unique_rows
from ..obs import get_tracer
from ..units import Henries
from .filament import (
    PAIR_ORDER,
    PackedFilaments,
    _norms,
    mutual_inductance_pairs,
    neumann_mutual_blocks,
    self_inductance_bars,
)
from .mesh import CurrentPath

__all__ = [
    "SELF_INDUCTANCE_ORDER",
    "loop_self_inductance",
    "mutual_inductance_paths_fast",
    "mutual_inductance_row",
]

#: Gauss–Legendre order of :func:`loop_self_inductance`: the order of every
#: part self-inductance (ESL, coupling normalisation) and of its cache key.
SELF_INDUCTANCE_ORDER = 12


def loop_self_inductance(path: CurrentPath, order: int = SELF_INDUCTANCE_ORDER) -> Henries:
    """Self-inductance of a current path [H].

    ``L = sum_i w_i^2 L_ii + 2 sum_{i < j} w_i w_j M_ij`` — the double sum
    over the path's own filaments with their signed turn weights, as one
    broadcast: Ruehli bar self-terms on the diagonal and the exact
    near-field kernel :func:`repro.peec.filament.mutual_inductance_pairs`
    over the upper triangle.  A partial mutual depends only on the pair's
    shape up to rigid motion, so the kernel runs once per isometry class
    of pairs (:func:`_pair_shape_keys`) and its results are scattered
    back; a winding built from congruent segments (``ring_stack``) has
    far fewer classes than pairs.  For a physically sensible loop the
    result is positive; a negative value indicates a broken
    discretisation and raises.
    """
    packed = path.packed
    n = len(packed)
    tracer = get_tracer()
    with tracer.span("peec.self_inductance"):
        tracer.count("peec.self_inductance_evals")
        tracer.count("peec.filament_pairs", n * (n + 1) // 2)
        weights = packed.weights
        lengths = packed.lengths()
        diagonal = self_inductance_bars(lengths, packed.widths, packed.thicknesses)
        i, j = np.triu_indices(n, 1)
        first, inverse = unique_rows(_pair_shape_keys(packed, lengths, i, j))
        tracer.count("peec.pair_classes", len(first))
        mutuals = mutual_inductance_pairs(packed, i[first], j[first], order)[inverse]
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


def _pair_shape_keys(
    packed: PackedFilaments, lengths: np.ndarray, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Integer isometry keys of the filament pairs ``(i[k], j[k])``.

    Four points are fixed up to isometry by their six distances, so each
    pair is keyed on ``|s_i e_i|, |s_j e_j|, |s_i s_j|, |s_i e_j|,
    |e_i s_j|, |e_i e_j|``, rounded to integers at 1e-9 of the largest
    one.  Pairs that differ only by a rigid motion or a reflection share a
    key (unless a distance rounds across an integer boundary, which only
    splits a class); the endpoint order is part of it (a swapped or
    reversed pair is a class of its own).  Every rounded distance is at
    most 1e9 < 2**31, so the six are packed two to an ``int64`` column,
    ``(d0 << 31) | d1``: exact, and in the same lexicographic order.
    """
    s_i, e_i = packed.starts[i], packed.ends[i]
    s_j, e_j = packed.starts[j], packed.ends[j]
    dist = np.empty((len(i), 6))
    dist[:, 0] = lengths[i]
    dist[:, 1] = lengths[j]
    dist[:, 2] = _norms(s_i - s_j)
    dist[:, 3] = _norms(s_i - e_j)
    dist[:, 4] = _norms(e_i - s_j)
    dist[:, 5] = _norms(e_i - e_j)
    resolution = 1e-9 * float(dist.max(initial=0.0))
    if resolution <= 0.0:
        # No pairs (fewer than two filaments): nothing to key.
        return np.zeros((len(i), 3), dtype=np.int64)
    keys = np.rint(dist / resolution).astype(np.int64)
    return np.asarray((keys[:, 0::2] << 31) | keys[:, 1::2])


def mutual_inductance_row(
    source: PackedFilaments, targets: Sequence[PackedFilaments], order: int = PAIR_ORDER
) -> list[Henries]:
    """Signed mutual inductances of one path against several *disjoint* paths [H].

    One call of :func:`repro.peec.filament.neumann_mutual_blocks` evaluates
    the Neumann integral of every source filament against every target
    filament; each ``(len(source), len(target))`` block is then contracted
    with the signed turn weights.  Valid when no filament pair overlaps or
    nearly touches — paths of different components, which is exactly the
    coupling-sweep use case; there it agrees with the exact near-field
    kernel to within a fraction of a percent at a fraction of the cost.
    For a path against itself use :func:`loop_self_inductance`.

    Each entry is bit-identical to the single-pair
    :func:`mutual_inductance_paths_fast` of the source and that target.
    The sign encodes the relative winding sense under the chosen terminal
    current directions; the EMI circuit model carries it through so that
    field cancellation by opposed orientation (the paper's design rule)
    is representable.

    Args:
        source: the source path's filaments (geometry in metres).
        targets: the target paths' filaments.
        order: Gauss–Legendre points per filament (dimensionless count).

    Returns:
        One mutual inductance [H] per target, in order.
    """
    tracer = get_tracer()
    tracer.count("peec.mutual_evals", len(targets))
    tracer.count("peec.filament_pairs", len(source) * int(math.fsum(map(len, targets))))
    w_a = source.weights[:, None]
    return [
        float(np.sum((w_a * target.weights[None, :]) * np.ascontiguousarray(block)))
        for target, block in zip(
            targets, neumann_mutual_blocks(source, targets, order), strict=True
        )
    ]


def mutual_inductance_paths_fast(
    a: CurrentPath, b: CurrentPath, order: int = PAIR_ORDER
) -> Henries:
    """Vectorised mutual inductance between two *disjoint* paths [H] (signed).

    The single-pair view of :func:`mutual_inductance_row`.
    """
    return mutual_inductance_row(a.packed, [b.packed], order)[0]
