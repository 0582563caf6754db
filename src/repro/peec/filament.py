"""Partial inductances of straight current filaments.

The PEEC method (Ruehli 1974) discretises only the conducting structures of
a circuit into straight segments and computes *partial* self and mutual
inductances for them; summing over a closed current path yields loop
inductances and, between two paths, the mutual inductance that drives
magnetic interference coupling.

Three formulas live here, each implemented once and vectorised:

* the **Neumann double integral** for the mutual inductance of two arbitrary
  filaments, evaluated with nested Gauss–Legendre quadrature;
* the **closed form** for parallel filaments;
* Ruehli's approximation for the **partial self-inductance of a rectangular
  bar**, which regularises the divergent filament self-term with the
  conductor cross-section.

Two batched kernels combine them: :func:`mutual_inductance_pairs` is the
exact near-field kernel (closed form, zero for perpendicular pairs,
subdivided quadrature for close skew pairs) that a path's self-inductance
needs, and :func:`neumann_mutual_blocks` is the all-pairs fast path (at
:data:`PAIR_ORDER`) for one source path against any number of disjoint
target paths.  Both read :class:`PackedFilaments`, the read-only array form
of a filament set, which is all a path holds and which it places with one
elementwise op.

Both kernels integrate through one Neumann quadrature,
:func:`_neumann_integral`: quadrature points are stored as coordinate
planes, ``r^2`` is built one plane at a time in one buffer, and each
double integral is one two-operand contraction of ``1/r`` with the
product weights.

All quantities are SI (metres, henries).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike

from ..geometry import Placement2D, Transform3D
from ..units import Henries, Meters

__all__ = [
    "MU0",
    "PAIR_ORDER",
    "mutual_inductance_pairs",
    "neumann_mutual_blocks",
    "PackedFilaments",
    "self_inductance_bar",
    "self_inductance_bars",
]

#: Vacuum permeability [H/m].
MU0 = 4.0e-7 * math.pi

#: Default Gauss–Legendre order per filament for the Neumann integral.
_DEFAULT_ORDER = 12

#: Gauss–Legendre order of every placed-pair mutual (and a ground plane's
#: own-image term) solved by :mod:`repro.coupling`, and of the pair and
#: distance-law cache keys: the default of the disjoint-path kernel
#: :func:`neumann_mutual_blocks` and of every view of it.
PAIR_ORDER = 8

#: Largest distance tensor (element count, 128 KB of float64) one chunk of
#: the batched kernels builds: small enough to stay in cache, which measured
#: faster than both smaller chunks (loop overhead) and larger ones.
_CHUNK_ELEMENTS = 1 << 14

# Cache of Gauss–Legendre nodes/weights on [0, 1] by order.
_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_legendre_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of Gauss–Legendre quadrature mapped onto [0, 1]."""
    cached = _GL_CACHE.get(order)
    if cached is None:
        x, w = np.polynomial.legendre.leggauss(order)
        cached = (0.5 * (x + 1.0), 0.5 * w)
        _GL_CACHE[order] = cached
    return cached


@dataclass(frozen=True)
class _Quadrature:
    """A filament set prepared for the Neumann kernel at one quadrature order.

    Attributes:
        planes: ``(3, n, order)`` Gauss–Legendre points along each filament,
            one coordinate plane (x, y, z) per leading index [m].
        lengths: ``(n,)`` filament lengths, floored at 1e-12 [m].
        tangents: ``(n, 3)`` unit directions [-].
    """

    planes: np.ndarray
    lengths: np.ndarray
    tangents: np.ndarray


@dataclass(frozen=True, eq=False)
class PackedFilaments:
    """Straight filaments as read-only arrays — the one form of a filament set.

    Raw geometry enters through :meth:`segments`, which checks it once.
    Placing a set (:meth:`transformed`, :meth:`placed`), imaging it
    (:meth:`image`) and joining sets (:meth:`concatenated`) derive new sets
    from checked ones without a second check, each as one elementwise
    array op in the float order of :meth:`Transform3D.apply` and
    :meth:`Vec3.mirrored_z`, so a placed array equals those per-point
    results exactly.

    Attributes:
        starts, ends: ``(n, 3)`` segment end points [m].
        widths, thicknesses: ``(n,)`` conductor cross-sections [m].
        weights: ``(n,)`` signed turn weights [-].
    """

    starts: np.ndarray
    ends: np.ndarray
    widths: np.ndarray
    thicknesses: np.ndarray
    weights: np.ndarray
    _quadratures: dict[int, _Quadrature] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for array in (self.starts, self.ends, self.widths, self.thicknesses, self.weights):
            array.flags.writeable = False

    @staticmethod
    def segments(
        starts: ArrayLike,
        ends: ArrayLike,
        width: ArrayLike,
        thickness: ArrayLike,
        weight: ArrayLike = 1.0,
    ) -> "PackedFilaments":
        """A checked set of straight segments from raw geometry.

        The one way raw geometry enters: every mesher builds its set here.

        Args:
            starts, ends: ``(n, 3)`` segment end points [m].
            width, thickness: conductor cross-section [m], one value or one
                per segment.
            weight: signed turn weight [-], one value or one per segment.

        Raises:
            ValueError: for end-point arrays of different or non-``(n, 3)``
                shapes, a non-positive cross-section, or a segment shorter
                than 1e-12 m.
        """
        start_rows = np.asarray(starts, dtype=float)
        end_rows = np.asarray(ends, dtype=float)
        if start_rows.shape != end_rows.shape or start_rows.shape[1:] != (3,):
            raise ValueError("segment end points must be two (n, 3) arrays")
        n = len(start_rows)
        widths, thicknesses, weights = (
            np.full(n, value, dtype=float) for value in (width, thickness, weight)
        )
        if (widths <= 0.0).any() or (thicknesses <= 0.0).any():
            raise ValueError("filament cross-section must be positive")
        if (_norms(end_rows - start_rows) < 1e-12).any():
            raise ValueError("zero-length filament")
        return PackedFilaments(start_rows, end_rows, widths, thicknesses, weights)

    @staticmethod
    def concatenated(sets: "Sequence[PackedFilaments]") -> "PackedFilaments":
        """The sets as one, in order."""
        return PackedFilaments(
            np.concatenate([s.starts for s in sets]),
            np.concatenate([s.ends for s in sets]),
            np.concatenate([s.widths for s in sets]),
            np.concatenate([s.thicknesses for s in sets]),
            np.concatenate([s.weights for s in sets]),
        )

    def __len__(self) -> int:
        return len(self.weights)

    def lengths(self) -> np.ndarray:
        """Segment lengths [m], equal to :meth:`Vec3.distance_to` of the end points exactly."""
        return _norms(self.ends - self.starts)

    def transformed(self, transform: Transform3D) -> "PackedFilaments":
        """The set mapped through a rigid transform (weights kept)."""
        t = transform.translation
        return self._moved(transform.rotation_z_rad, t.x, t.y, t.z, transform.mirror_z)

    def placed(self, placement: Placement2D) -> "PackedFilaments":
        """``transformed(placement.to_transform3d())`` without building the transform."""
        position = placement.position
        return self._moved(
            placement.rotation_rad,
            position.x,
            position.y,
            placement.z_offset,
            placement.side == -1,
        )

    def _moved(
        self, rotation_rad: float, tx: float, ty: float, tz: float, mirror_z: bool
    ) -> "PackedFilaments":
        # Mirror z first, then c*x - s*y + tx, s*x + c*y + ty, z + tz: the
        # operation order of Transform3D.apply, so every bit matches it.
        c, s = math.cos(rotation_rad), math.sin(rotation_rad)

        def move(p: np.ndarray) -> np.ndarray:
            x, y, z = p[:, 0], p[:, 1], p[:, 2]
            return np.stack(
                [c * x - s * y + tx, s * x + c * y + ty, (-z if mirror_z else z) + tz], axis=1
            )

        return PackedFilaments(
            move(self.starts), move(self.ends), self.widths, self.thicknesses, self.weights
        )

    def image(self, plane_z: Meters) -> "PackedFilaments":
        """The image currents of a perfectly conducting plane at ``z = plane_z``.

        A solid, highly conductive plane under the components (the paper's
        *"shielding planes like ground planes"*) reflects high-frequency
        magnetic fields; image theory replaces it by a mirrored copy of
        every current, with an **anti-parallel** image for a horizontal
        element and a **parallel** image for a vertical one.  Both follow
        from mirroring the geometry as :meth:`Vec3.mirrored_z` does and
        negating every weight, which is what this returns.  The images act
        on the flux a *bare* victim sees, so they augment the source
        operand only; the shielded self-inductance is the path's own
        ``L`` plus its mutual with its image.
        """

        def mirror(p: np.ndarray) -> np.ndarray:
            out = p.copy()
            out[:, 2] = 2.0 * plane_z - p[:, 2]
            return out

        return PackedFilaments(
            mirror(self.starts), mirror(self.ends), self.widths, self.thicknesses, -self.weights
        )

    def quadrature(self, order: int) -> _Quadrature:
        """The Neumann-kernel operand at ``order``, built once per order."""
        cached = self._quadratures.get(order)
        if cached is None:
            nodes, _ = _gauss_legendre_01(order)
            deltas = self.ends - self.starts
            lengths = np.linalg.norm(deltas, axis=1)
            planes = _node_planes(self.starts, deltas, nodes)
            # Lengths are >= 1e-12 by the check in segments(); the floor
            # only guards hand-packed arrays.
            lengths[lengths < 1e-12] = 1e-12
            cached = _Quadrature(planes, lengths, deltas * (1.0 / lengths)[:, None])
            self._quadratures[order] = cached
        return cached


def self_inductance_bars(
    lengths: np.ndarray, widths: np.ndarray, thicknesses: np.ndarray
) -> np.ndarray:
    """Partial self-inductances of straight rectangular bars (Ruehli) [H].

    ``L = (mu0 * l / 2pi) * (ln(2l/(w+t)) + 0.5 + 0.2235 (w+t)/l)``

    elementwise over arrays of lengths, widths and thicknesses [m].  The
    formula assumes ``l`` of the same order as or larger than ``w+t``; for
    very stubby bars the logarithm can go negative, in which case the
    result is clamped to a small positive value proportional to the
    length — stubby segments contribute negligibly to loop inductance
    anyway.
    """
    if np.any(lengths <= 0.0):
        raise ValueError("length must be positive")
    if np.any(widths <= 0.0) or np.any(thicknesses <= 0.0):
        raise ValueError("cross-section must be positive")
    value = (MU0 * lengths / (2.0 * np.pi)) * (
        np.log(2.0 * lengths / (widths + thicknesses))
        + 0.5
        + 0.2235 * (widths + thicknesses) / lengths
    )
    floor = MU0 * lengths / (20.0 * np.pi)
    return np.asarray(np.maximum(value, floor))


def self_inductance_bar(length: Meters, width: Meters, thickness: Meters) -> Henries:
    """Partial self-inductance of one straight rectangular bar [H].

    The scalar view of :func:`self_inductance_bars`.
    """
    return float(
        self_inductance_bars(np.array([length]), np.array([width]), np.array([thickness]))[0]
    )


def _rows_per_chunk(row_elements: int) -> int:
    """Rows of ``row_elements`` values each that fit in one kernel chunk."""
    return max(1, _CHUNK_ELEMENTS // max(row_elements, 1))


def _node_planes(starts: np.ndarray, deltas: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """``(3, n, g)`` coordinate planes of the points ``starts + nodes * deltas`` [m]."""
    return np.asarray(starts.T[:, :, None] + nodes * deltas.T[:, :, None])


def _neumann_integral(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Quadrature of the Neumann kernel: ``sum_ij weights[i, j] / r_ij`` [1/m].

    ``a`` and ``b`` hold the points ``i`` of one filament and ``j`` of the
    other as coordinate planes, broadcastable to ``(3, ..., ga, gb)``:
    ``a[:, ..., i, :]`` is point ``i`` (``b[:, ..., :, j]`` point ``j``),
    either as a length-1 axis or repeated along it; ``weights`` is the
    ``(ga, gb)`` outer product of the two rules' weights.

    ``r^2`` is built one plane at a time in one ``(..., ga, gb)`` buffer
    and replaced by ``1/r`` in place; one two-operand contraction over the
    trailing ``ga*gb`` values then sums each entry.  That contraction loops
    over one entry's values in the same order whatever the leading shape,
    so an entry's rounding does not depend on the chunk it is in (a BLAS
    matrix-vector product's does).  Operands repeated along their point
    axis make every subtraction loop ``ga*gb`` values long.
    """
    *lead, ga, gb = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    r = np.subtract(a[0], b[0], out=np.empty((*lead, ga, gb)))
    r *= r
    d = np.empty_like(r)
    for k in (1, 2):
        np.subtract(a[k], b[k], out=d)
        d *= d
        r += d
    np.sqrt(r, out=r)
    np.maximum(r, 1e-12, out=r)  # coincident points
    np.divide(1.0, r, out=r)
    return np.asarray(np.einsum("...k,k->...", r.reshape(*lead, ga * gb), weights.ravel()))


def _neumann_scale(cos: np.ndarray, len_a: np.ndarray, len_b: np.ndarray) -> np.ndarray:
    """``(mu0/4pi) l_a l_b cos``: the factor in front of the Neumann quadrature [H m]."""
    return np.asarray(MU0 / (4.0 * np.pi) * ((len_a * len_b) * cos))


def _norms(v: np.ndarray) -> np.ndarray:
    """Row lengths, summed x, y, z in order like :meth:`Vec3.norm`."""
    return np.asarray(np.sqrt(_dots(v, v)))


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row dot products, summed x, y, z in order like :meth:`Vec3.dot`."""
    return np.asarray(u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2])


def neumann_mutual_blocks(
    source: PackedFilaments, targets: Sequence[PackedFilaments], order: int = PAIR_ORDER
) -> list[np.ndarray]:
    """Raw pairwise Neumann mutuals of one source against several targets [H].

    The fast path for *disjoint* filament sets: every double integral of
    ``source`` against the concatenated ``targets`` is evaluated as one
    broadcast over ``(rows, cols, order, order)`` distance tensors,
    chunked over source rows and target columns to bound the temporaries.
    There is no near-field subdivision and no closed form for parallel
    pairs, so the caller owns near-field accuracy: this suits the disjoint
    paths of a coupling sweep, not a path against itself
    (:func:`mutual_inductance_pairs` is the exact kernel for that).
    Geometric weights are *not* applied.

    Every entry is bit-identical to a call with that target alone, in any
    chunk: :func:`_neumann_integral` sums each entry's ``order^2`` terms in
    one two-operand einsum loop whose order does not depend on the tensor
    shape (a BLAS matrix-vector product's rounding does), and the
    direction cosines (a matmul, likewise shape-dependent) are taken per
    target.

    Args:
        source: the source filaments (geometry in metres).
        targets: the target filament sets.
        order: Gauss–Legendre points per filament (dimensionless count).

    Returns:
        One ``(len(source), len(target))`` array of partial mutual
        inductances [H] per target, in order.
    """
    if not targets:
        return []
    _, w = _gauss_legendre_01(order)
    weights = np.outer(w, w)
    q_a = source.quadrature(order)
    q_bs = [target.quadrature(order) for target in targets]
    p_b = q_bs[0].planes if len(q_bs) == 1 else np.concatenate([q.planes for q in q_bs], 1)
    n_a, n_b = len(q_a.lengths), p_b.shape[1]
    # Source points repeated and target points tiled to (order, order) per
    # filament: every subtraction of the kernel then runs order^2 long.
    a = np.repeat(q_a.planes, order, axis=2).reshape(3, n_a, 1, order, order)
    b = np.tile(p_b, order).reshape(3, 1, n_b, order, order)
    integral = np.empty((n_a, n_b))
    cols = min(n_b, _rows_per_chunk(order * order))
    rows = _rows_per_chunk(cols * order * order)
    for lo in range(0, n_a, rows):
        for col in range(0, n_b, cols):
            integral[lo : lo + rows, col : col + cols] = _neumann_integral(
                a[:, lo : lo + rows], b[:, :, col : col + cols], weights
            )
    bounds = np.cumsum([0] + [len(q_b.lengths) for q_b in q_bs]).tolist()
    return [
        _neumann_scale(q_a.tangents @ q_b.tangents.T, q_a.lengths[:, None], q_b.lengths[None, :])
        * integral[:, lo:hi]
        for q_b, lo, hi in zip(q_bs, bounds[:-1], bounds[1:], strict=True)
    ]


def _parallel_mutuals(
    s1: np.ndarray,
    t1: np.ndarray,
    len1: np.ndarray,
    s2: np.ndarray,
    len2: np.ndarray,
    sign: np.ndarray,
) -> np.ndarray:
    """Closed-form mutuals of parallel filament pairs, elementwise [H].

    Uses the textbook antiderivative ``Phi(u) = u asinh(u/d) - sqrt(u^2+d^2)``
    of the axial-offset kernel:

    ``M = (mu0/4pi) [Phi(a2-b1) - Phi(a2-b2) - Phi(a1-b1) + Phi(a1-b2)]``

    where ``a1 = 0``, ``a2 = l1`` and ``b1``, ``b2`` are the axial
    coordinates (along ``t1``) of filament 2's ends, and ``d`` is the
    perpendicular distance between the carrier lines.  For anti-parallel
    pairs (``sign = -1``) ``b2 < b1`` and the combination comes out
    negative, which is exactly the physical sign.
    """
    rel = s2 - s1
    b1 = _dots(rel, t1)
    b2 = b1 + sign * len2
    d = _norms(rel - t1 * b1[:, None])
    # Collinear filaments: the kernel is singular if they overlap; offset
    # by a tiny distance consistent with a thin conductor.
    d[d < 1e-12] = 1e-9

    total = np.zeros_like(d)
    for u, coef in ((len1 - b1, 1.0), (len1 - b2, -1.0), (-b1, -1.0), (-b2, 1.0)):
        total += coef * (u * np.arcsinh(u / d) - np.sqrt(u * u + d * d))
    return np.asarray(MU0 / (4.0 * np.pi) * total)


def mutual_inductance_pairs(
    packed: PackedFilaments,
    i: np.ndarray,
    j: np.ndarray,
    order: int = _DEFAULT_ORDER,
) -> np.ndarray:
    """Partial mutual inductances of the filament pairs ``(i[k], j[k])`` [H].

    The exact near-field kernel, one broadcast per pair class:

    * parallel pairs (``||cos| - 1| < 1e-12``) use the closed form;
    * perpendicular pairs (``|cos| < 1e-12``) do not couple;
    * skew pairs use the Neumann double integral with an ``order`` x
      ``order`` Gauss–Legendre rule — composite over ``pieces =
      min(8, ceil(longest/gap/2))`` equal sub-segments per filament when
      the pair is close relative to its length (``longest/gap > 4``, gap
      measured between midpoints), where the kernel varies too quickly
      for a single low-order rule.

    Pairs are grouped by ``pieces`` and each group is evaluated in chunks
    whose distance tensors hold at most ``_CHUNK_ELEMENTS`` values.
    Weights are *not* applied.

    Args:
        packed: the filament pool (geometry in metres).
        i, j: equal-length index arrays into ``packed``; ``i[k] != j[k]``.
        order: Gauss–Legendre points per (sub-)filament.

    Returns:
        ``(len(i),)`` array of partial mutual inductances [H].
    """
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp)
    starts, ends = packed.starts, packed.ends
    deltas = ends - starts
    lengths = _norms(deltas)
    lengths[lengths < 1e-12] = 1e-12
    t = deltas * (1.0 / lengths)[:, None]
    cos = _dots(t[i], t[j])
    out = np.zeros(len(i))

    parallel = np.abs(np.abs(cos) - 1.0) < 1e-12
    if parallel.any():
        a, b = i[parallel], j[parallel]
        out[parallel] = _parallel_mutuals(
            starts[a], t[a], lengths[a], starts[b], lengths[b], np.sign(cos[parallel])
        )

    skew = np.flatnonzero(~parallel & (np.abs(cos) >= 1e-12))
    if not len(skew):
        return out
    a, b = i[skew], j[skew]
    mids = (starts + ends) * 0.5
    gap = _norms(mids[a] - mids[b])
    longest = np.maximum(lengths[a], lengths[b])
    ratio = np.divide(longest, gap, out=np.zeros_like(gap), where=gap > 1e-12)
    pieces = np.where(ratio > 4.0, np.minimum(8, np.ceil(ratio / 2.0)), 1).astype(int)

    nodes, weights = _gauss_legendre_01(order)
    for p in np.unique(pieces):
        # Composite rule: p copies of the nodes, one per sub-segment.
        u = ((np.arange(p)[:, None] + nodes[None, :]) / p).ravel()
        w = np.tile(weights, p) / p
        w_ab = np.outer(w, w)
        group = np.flatnonzero(pieces == p)
        step = _rows_per_chunk(len(u) * len(u))
        for lo in range(0, len(group), step):
            sel = group[lo : lo + step]
            fa, fb = a[sel], b[sel]
            p_a = _node_planes(starts[fa], deltas[fa], u)
            p_b = _node_planes(starts[fb], deltas[fb], u)
            integral = _neumann_integral(p_a[..., :, None], p_b[..., None, :], w_ab)
            out[skew[sel]] = _neumann_scale(cos[skew[sel]], lengths[fa], lengths[fb]) * integral
    return out
