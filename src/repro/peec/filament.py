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
needs, and :func:`neumann_mutual_matrix` is the order-8 all-pairs fast path
for two disjoint paths.  The scalar functions are single-pair views of them.

All quantities are SI (metres, henries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..geometry import Transform3D, Vec3
from ..units import Dimensionless, Henries, Meters

__all__ = [
    "MU0",
    "Filament",
    "mutual_inductance",
    "mutual_inductance_pairs",
    "mutual_inductance_parallel",
    "neumann_mutual_inductance",
    "neumann_mutual_matrix",
    "pack_filaments",
    "self_inductance_bar",
    "self_inductance_bars",
]

#: Vacuum permeability [H/m].
MU0 = 4.0e-7 * math.pi

#: Default Gauss–Legendre order per filament for the Neumann integral.
_DEFAULT_ORDER = 12

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
class Filament:
    """A straight current filament with an associated conductor cross-section.

    Attributes:
        start: start point [m].
        end: end point [m].
        width: conductor width [m] — used only for the self-term.
        thickness: conductor thickness [m] — used only for the self-term.
        weight: signed current weight.  A filament traversed by ``n`` turns
            of the winding carries ``weight = n``; image filaments carry a
            negated weight.
    """

    start: Vec3
    end: Vec3
    width: Meters = 1e-3
    thickness: Meters = 35e-6
    weight: Dimensionless = 1.0

    def __post_init__(self) -> None:
        if self.width <= 0.0 or self.thickness <= 0.0:
            raise ValueError("filament cross-section must be positive")
        if self.length < 1e-12:
            raise ValueError("zero-length filament")

    @property
    def length(self) -> Meters:
        """Filament length [m]."""
        return self.start.distance_to(self.end)

    @property
    def direction(self) -> Vec3:
        """Unit vector from start to end."""
        return (self.end - self.start).normalized()

    @property
    def midpoint(self) -> Vec3:
        """Geometric midpoint."""
        return (self.start + self.end) * 0.5

    def transformed(self, transform: Transform3D) -> "Filament":
        """Filament mapped through a rigid transform (weight preserved)."""
        return replace(self, start=transform.apply(self.start), end=transform.apply(self.end))

    def reversed(self) -> "Filament":
        """Same geometry, opposite traversal direction."""
        return replace(self, start=self.end, end=self.start)

    def mirrored_z(self, plane_z: Meters) -> "Filament":
        """Geometric mirror through the plane ``z = plane_z`` (weight kept).

        Image-current construction (geometry mirror + weight negation) is
        done by :mod:`repro.peec.images`, which owns the sign convention.
        """
        return replace(
            self, start=self.start.mirrored_z(plane_z), end=self.end.mirrored_z(plane_z)
        )

    def split(self, pieces: int) -> list["Filament"]:
        """Subdivide into ``pieces`` equal filaments (for near-field accuracy)."""
        if pieces < 1:
            raise ValueError("pieces must be >= 1")
        delta = (self.end - self.start) / pieces
        return [
            replace(self, start=self.start + delta * i, end=self.start + delta * (i + 1))
            for i in range(pieces)
        ]

    def self_inductance(self) -> Henries:
        """Partial self-inductance of this filament's rectangular bar [H]."""
        return self_inductance_bar(self.length, self.width, self.thickness)


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


def _neumann_integral(
    p_a: np.ndarray, p_b: np.ndarray, w_a: np.ndarray, w_b: np.ndarray
) -> np.ndarray:
    """Quadrature of the Neumann kernel: ``sum_ij w_a[i] w_b[j] / r_ij`` [1/m].

    ``p_a`` ``(..., ga, 3)`` and ``p_b`` ``(..., gb, 3)`` are quadrature
    points with broadcastable leading axes.
    """
    diff = p_a[..., :, None, :] - p_b[..., None, :, :]
    r = np.sqrt(np.einsum("...ijk,...ijk->...ij", diff, diff))
    r[r < 1e-12] = 1e-12
    return np.asarray(np.einsum("i,j,...ij->...", w_a, w_b, 1.0 / r))


def _neumann_scale(cos: np.ndarray, len_a: np.ndarray, len_b: np.ndarray) -> np.ndarray:
    """``(mu0/4pi) l_a l_b cos``: the factor in front of the Neumann quadrature [H m]."""
    return np.asarray(MU0 / (4.0 * np.pi) * ((len_a * len_b) * cos))


def _packed_ends(filaments: list[Filament]) -> tuple[np.ndarray, np.ndarray]:
    starts = np.array([[f.start.x, f.start.y, f.start.z] for f in filaments])
    ends = np.array([[f.end.x, f.end.y, f.end.z] for f in filaments])
    return starts, ends


def _norms(v: np.ndarray) -> np.ndarray:
    """Row lengths, summed x, y, z in order like :meth:`Vec3.norm`."""
    return np.asarray(np.sqrt(_dots(v, v)))


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row dot products, summed x, y, z in order like :meth:`Vec3.dot`."""
    return np.asarray(u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2])


def pack_filaments(
    filaments: list[Filament],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Filament list as dense arrays for the batched kernels.

    Args:
        filaments: the segments to pack (geometry in metres).

    Returns:
        ``(starts, deltas, lengths, weights)`` — shapes ``(n, 3)``,
        ``(n, 3)``, ``(n,)``, ``(n,)``; starts/deltas/lengths in metres,
        weights dimensionless signed turn counts.
    """
    starts, ends = _packed_ends(filaments)
    weights = np.array([f.weight for f in filaments])
    deltas = ends - starts
    lengths = np.linalg.norm(deltas, axis=1)
    return starts, deltas, lengths, weights


def neumann_mutual_matrix(
    filaments_a: list[Filament], filaments_b: list[Filament], order: int = 8
) -> np.ndarray:
    """Raw pairwise Neumann mutual inductances as one batched array op [H].

    The fast path for *disjoint* filament sets: all ``na * nb`` double
    integrals are evaluated as broadcasts over ``(rows, nb, order, order)``
    distance tensors, chunked over rows of ``filaments_a`` to bound the
    temporaries.  There is no near-field subdivision and no closed form
    for parallel pairs, so the caller owns near-field accuracy: this suits
    the disjoint paths of a coupling sweep, not a path against itself
    (:func:`mutual_inductance_pairs` is the exact kernel for that).
    Geometric weights are *not* applied — entry ``(i, j)`` is the raw
    partial mutual of ``filaments_a[i]`` against ``filaments_b[j]``.

    Args:
        filaments_a, filaments_b: the two filament lists (geometry in
            metres).
        order: Gauss–Legendre points per filament (dimensionless count).

    Returns:
        ``(na, nb)`` array of partial mutual inductances [H].
    """
    nodes, weights = _gauss_legendre_01(order)
    s_a, d_a, len_a, _ = pack_filaments(filaments_a)
    s_b, d_b, len_b, _ = pack_filaments(filaments_b)

    # Quadrature points: (na, g, 3) and (nb, g, 3).
    p_a = s_a[:, None, :] + nodes[None, :, None] * d_a[:, None, :]
    p_b = s_b[:, None, :] + nodes[None, :, None] * d_b[:, None, :]
    integral = np.empty((len(filaments_a), len(filaments_b)))
    step = _rows_per_chunk(len(filaments_b) * order * order)
    for lo in range(0, len(filaments_a), step):
        integral[lo : lo + step] = _neumann_integral(
            p_a[lo : lo + step, None], p_b[None, :], weights, weights
        )

    # Direction cosines and length products (lengths are >= 1e-12 by the
    # Filament invariant; the floor only guards hand-packed arrays).
    len_a[len_a < 1e-12] = 1e-12
    len_b[len_b < 1e-12] = 1e-12
    t_a = d_a * (1.0 / len_a)[:, None]
    t_b = d_b * (1.0 / len_b)[:, None]
    cos = t_a @ t_b.T
    return _neumann_scale(cos, len_a[:, None], len_b[None, :]) * integral


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
    filaments: list[Filament],
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
        filaments: the filament pool (geometry in metres).
        i, j: equal-length index arrays into ``filaments``; ``i[k] != j[k]``.
        order: Gauss–Legendre points per (sub-)filament.

    Returns:
        ``(len(i),)`` array of partial mutual inductances [H].
    """
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp)
    starts, ends = _packed_ends(filaments)
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
        group = np.flatnonzero(pieces == p)
        step = _rows_per_chunk(len(u) * len(u))
        for lo in range(0, len(group), step):
            sel = group[lo : lo + step]
            fa, fb = a[sel], b[sel]
            p_a = starts[fa][:, None, :] + u[None, :, None] * deltas[fa][:, None, :]
            p_b = starts[fb][:, None, :] + u[None, :, None] * deltas[fb][:, None, :]
            integral = _neumann_integral(p_a, p_b, w, w)
            out[skew[sel]] = _neumann_scale(cos[skew[sel]], lengths[fa], lengths[fb]) * integral
    return out


def mutual_inductance(f1: Filament, f2: Filament, order: int = _DEFAULT_ORDER) -> Henries:
    """Mutual partial inductance of two filaments [H].

    The single-pair view of :func:`mutual_inductance_pairs`: closed form
    for parallel pairs, zero for perpendicular ones, near-field-subdivided
    quadrature for skew ones.
    """
    return float(mutual_inductance_pairs([f1, f2], np.array([0]), np.array([1]), order)[0])


def neumann_mutual_inductance(
    f1: Filament, f2: Filament, order: int = _DEFAULT_ORDER
) -> Henries:
    """Mutual partial inductance via the plain Neumann double integral [H].

    ``M = (mu0 / 4pi) (t1 . t2) * l1 * l2 * sum_ij w_i w_j / r_ij``

    evaluated with one ``order`` x ``order`` Gauss–Legendre rule and no
    subdivision — the single-pair view of :func:`neumann_mutual_matrix`,
    kept as an independent cross-check of the closed form.  Accurate to
    better than 0.1 % once the filament separation exceeds roughly a
    quarter of the filament length.  Weights are *not* applied.
    """
    return float(neumann_mutual_matrix([f1], [f2], order)[0, 0])


def mutual_inductance_parallel(f1: Filament, f2: Filament) -> Henries:
    """Closed-form mutual inductance of two parallel filaments [H].

    The single-pair view of the closed form that
    :func:`mutual_inductance_pairs` applies to parallel pairs; the sign
    follows the traversal directions (anti-parallel filaments get M < 0).

    Raises:
        ValueError: if the filaments are not parallel (within 1e-9 rad).
    """
    t1 = f1.direction
    cos_angle = t1.dot(f2.direction)
    if abs(abs(cos_angle) - 1.0) > 1e-9:
        raise ValueError("filaments are not parallel")
    return float(
        _parallel_mutuals(
            f1.start.as_array()[None],
            t1.as_array()[None],
            np.array([f1.length]),
            f2.start.as_array()[None],
            np.array([f2.length]),
            np.array([1.0 if cos_angle > 0.0 else -1.0]),
        )[0]
    )
