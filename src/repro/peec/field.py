"""Biot–Savart magnetic field evaluation on filament meshes.

Used to draw the stray-field maps of the paper's Fig. 4 (two coupling
bobbin chokes) and Fig. 8 (preferred capacitor positions around common-mode
chokes), and for sanity-checking the PEEC coupling numbers against a direct
field picture.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Vec3
from ..obs import get_tracer
from .filament import MU0, PackedFilaments, _rows_per_chunk
from .mesh import CurrentPath

__all__ = ["b_field", "b_field_grid", "field_magnitude_map"]


def _b_field_points(
    filaments: PackedFilaments, points: np.ndarray, current: float
) -> np.ndarray:
    """Flux density of a filament set at ``(n, 3)`` points [T], shape ``(n, 3)``.

    Standard finite-segment Biot–Savart for every (point, filament) pair in
    one broadcast:

    ``B = (mu0 I / 4 pi rho) * (sin(theta2) - sin(theta1)) * e_phi``

    where ``rho`` is the perpendicular distance from the field point to the
    filament's carrier line and the thetas are the angular positions of the
    segment ends.  Points closer than a conductor radius are clamped to
    avoid the line singularity; points on the axis itself (field direction
    undefined, magnitude ~0 outside the conductor) get zero.
    """
    starts = filaments.starts
    deltas = filaments.ends - starts
    lengths = np.linalg.norm(deltas, axis=1)
    amps = current * filaments.weights
    clamps = np.maximum(filaments.widths, filaments.thicknesses) * 0.5
    lengths[lengths < 1e-12] = 1e-12
    t = deltas * (1.0 / lengths)[:, None]

    einsum = np.einsum
    out = np.zeros((len(points), 3))
    # Chunk over points so each (points, filaments, 3) tensor stays in cache.
    step = _rows_per_chunk(3 * len(filaments))
    for lo in range(0, len(points), step):
        rel = points[lo : lo + step, None, :] - starts[None, :, :]  # (c, f, 3)
        axial = einsum("cfk,fk->cf", rel, t)
        perp = rel - axial[..., None] * t
        rho = np.sqrt(einsum("cfk,cfk->cf", perp, perp))
        # On the axis e_phi is undefined (and |B| ~0 outside the conductor):
        # a zero e_phi makes those contributions exactly zero.
        on_axis = (rho < clamps) & (rho < 1e-15)
        inv_rho = np.divide(1.0, rho, out=np.zeros_like(rho), where=~on_axis)
        e_phi = np.cross(t, perp * inv_rho[..., None])
        rho = np.maximum(rho, clamps)  # conductor-radius clamp: rho >= clamp > 0
        sin1 = -axial / np.hypot(axial, rho)  # hypot >= rho > 0
        sin2 = (lengths - axial) / np.hypot(lengths - axial, rho)
        magnitude = MU0 * amps / (4.0 * np.pi * rho) * (sin2 - sin1)
        out[lo : lo + step] = einsum("cf,cfk->ck", magnitude, e_phi)
    return out


def b_field(path: CurrentPath, point: Vec3, current: float = 1.0) -> Vec3:
    """Total flux density of a current path at one point [T].

    The single-point view of the broadcast Biot–Savart kernel behind
    :func:`b_field_grid` (conductor-radius clamp, zero on the axis).
    """
    b = _b_field_points(path.packed, point.as_array()[None, :], current)[0]
    return Vec3(float(b[0]), float(b[1]), float(b[2]))


def b_field_grid(
    paths: list[CurrentPath],
    xs: np.ndarray,
    ys: np.ndarray,
    z: float = 0.0,
    currents: list[float] | None = None,
) -> np.ndarray:
    """Flux density vectors on a horizontal grid.

    One broadcast Biot–Savart evaluation per path over all grid points,
    inside a single ``peec.field_grid`` span.

    Args:
        paths: the field-generating structures.
        xs, ys: 1-D coordinate arrays defining the grid.
        z: evaluation height above the board.
        currents: per-path terminal currents (default 1 A each).

    Returns:
        Array of shape ``(len(ys), len(xs), 3)`` in tesla.
    """
    if currents is None:
        currents = [1.0] * len(paths)
    if len(currents) != len(paths):
        raise ValueError("currents must match paths")
    with get_tracer().span("peec.field_grid"):
        gx, gy = np.meshgrid(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
        points = np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, float(z))], axis=1)
        out = np.zeros((len(points), 3))
        for path, current in zip(paths, currents, strict=True):
            out += _b_field_points(path.packed, points, current)
    return out.reshape(len(ys), len(xs), 3)


def field_magnitude_map(
    paths: list[CurrentPath],
    xs: np.ndarray,
    ys: np.ndarray,
    z: float = 0.0,
    currents: list[float] | None = None,
) -> np.ndarray:
    """``|B|`` on a horizontal grid, shape ``(len(ys), len(xs))`` [T]."""
    vecs = b_field_grid(paths, xs, ys, z, currents)
    return np.sqrt(np.einsum("ijk,ijk->ij", vecs, vecs))
