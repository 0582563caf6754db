"""What makes two coupling lookups "the same coupling problem".

A coupling result is a pure function of

* the two components' **field geometry** (their filament meshes) and
  **effective-permeability parameters** (``mu_eff``, core stray fraction);
* the pair's **relative pose** (coupling is invariant under a rigid
  in-plane motion of the pair, even above a solid ground plane — the
  plane is horizontal and isotropic in x/y);
* the **ground-plane height** and each part's board standoff, which break
  the z-translation symmetry;
* the **quadrature order** of the field computation.

:func:`pair_key` is the one definition of that identity.  It returns a
hashable tuple of both component fingerprints, the quantised relative
pose (0.1 mm / 1 degree, far below any placement-relevant coupling
sensitivity), the quantised plane height and the quadrature order.  Both
cache tiers of :class:`repro.coupling.CouplingDatabase` use it: the
in-memory dict is keyed by the tuple itself, and the on-disk entry is
named by its SHA-256 (:func:`cache_name`), so the tiers cannot
disagree on which lookups collide.

The component fingerprint hashes the raw IEEE-754 doubles of the field
model (no string formatting) — exactly the packed filament arrays the
kernels read — so a persistent entry survives process restarts but
*never* survives a change to the inputs: perturbing a filament endpoint
by one ULP produces a different key.  It is memoised per component as
:attr:`repro.components.Component.fingerprint`.

A part's air-core self-inductance is a pure function of its field
geometry too.  Its key is ``(fingerprint, order)`` (:data:`SelfKey`),
named on disk by :func:`cache_name` in a namespace of its own, so it
can never collide with a pair entry.

A distance sweep's fitted coupling law is a pure function of the two
fingerprints, the sweep grid, B's rotation, the sweep bearing, the
plane height and the order.  Its key (:data:`LawKey`, :func:`law_key`)
holds those inputs exactly, floats and all, and is named on disk by
:func:`cache_name` in a third namespace.  A schema version is folded
into every on-disk name, so bumping :data:`CACHE_SCHEMA_VERSION`
invalidates the whole store at once.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import TYPE_CHECKING, Literal

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..components import Component
    from ..geometry import Placement2D

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "LawKey",
    "PairKey",
    "SelfKey",
    "cache_name",
    "component_fingerprint",
    "law_key",
    "pair_key",
    "relative_pose_key",
]

#: Version of the on-disk cache schema.  Bumping it stales every stored
#: entry (see docs/PERFORMANCE.md, "Cache invalidation").
CACHE_SCHEMA_VERSION = 1

#: Position quantum of the relative-pose key [m] (0.1 mm).
_POSE_QUANTUM_M = 1e-4

#: Rotation quantum of the relative-pose key [rad] (1 degree).
_POSE_QUANTUM_RAD = math.pi / 180.0

#: Quantised relative pose: offset x/y, rotation difference, both sides,
#: both standoffs (see :func:`relative_pose_key`).
PoseKey = tuple[int, int, int, int, int, int, int]

#: One coupling problem: fingerprints of A and B, the relative pose, the
#: plane height (0.1 mm steps, ``None`` = free space) and the quadrature
#: order (see :func:`pair_key`).
PairKey = tuple[str, str, PoseKey, int | None, int]

#: One part self-inductance: the part's fingerprint and the quadrature order.
SelfKey = tuple[str, int]

#: One distance law: fingerprints of A and B, the distance grid [m], B's
#: rotation [deg], the sweep bearing [deg], the plane height [m] (``None``
#: = free space) and the quadrature order, all exact (see :func:`law_key`).
LawKey = tuple[str, str, tuple[float, ...], float, float, float | None, int]


def _feed_floats(digest: "hashlib._Hash", values: tuple[float, ...]) -> None:
    """Feed raw little-endian doubles into a running digest."""
    digest.update(struct.pack(f"<{len(values)}d", *values))


def component_fingerprint(component: "Component") -> str:
    """Content hash of everything about a component the field solver reads.

    Covers the part number, the effective-permeability parameters
    (``mu_eff`` [-] and core ``stray_fraction`` [-]) and the packed
    local-frame current path, one row per filament: start/end [m],
    conductor cross-section [m] and signed turns weight [-].

    Returns:
        A 64-character hex SHA-256 digest.
    """
    digest = hashlib.sha256()
    digest.update(b"component-v1\0")
    digest.update(component.part_number.encode("utf-8"))
    digest.update(b"\0")
    _feed_floats(digest, (component.mu_eff, component.core.stray_fraction))
    packed = component.current_path.packed
    rows = np.column_stack(
        (packed.starts, packed.ends, packed.widths, packed.thicknesses, packed.weights)
    )
    digest.update(rows.astype("<f8").tobytes())
    return digest.hexdigest()


def relative_pose_key(
    placement_a: "Placement2D", placement_b: "Placement2D"
) -> PoseKey:
    """Quantised relative pose of B in A's frame.

    Args:
        placement_a, placement_b: board placements (positions [m],
            rotations [rad], standoffs [m]).

    Returns:
        Integer tuple: offset x/y in 0.1 mm steps, rotation difference in
        whole degrees (mod 360), both board sides, both z standoffs in
        0.1 mm steps.
    """
    rel = placement_b.position - placement_a.position
    local = rel.rotated(-placement_a.rotation_rad)
    drot = placement_b.rotation_rad - placement_a.rotation_rad
    return (
        round(local.x / _POSE_QUANTUM_M),
        round(local.y / _POSE_QUANTUM_M),
        round(drot / _POSE_QUANTUM_RAD) % 360,
        placement_a.side,
        placement_b.side,
        round(placement_a.z_offset / _POSE_QUANTUM_M),
        round(placement_b.z_offset / _POSE_QUANTUM_M),
    )


def pair_key(
    component_a: "Component",
    placement_a: "Placement2D",
    component_b: "Component",
    placement_b: "Placement2D",
    ground_plane_z: float | None,
    order: int,
) -> PairKey:
    """The key of one coupling problem, shared by both cache tiers.

    Args:
        component_a, component_b: the placed parts (A is the frame of
            reference of the relative pose).
        placement_a, placement_b: board placements (positions [m],
            rotations [rad], standoffs [m]).
        ground_plane_z: shielding-plane height [m], ``None`` for free space.
        order: Gauss–Legendre quadrature order of the field computation.

    Returns:
        ``(fingerprint_a, fingerprint_b, relative pose, plane height in
        0.1 mm steps or None, order)``.  The key is *not* symmetric in
        A/B: a request in the other argument order has its own key.
    """
    plane = None if ground_plane_z is None else round(ground_plane_z / _POSE_QUANTUM_M)
    return (
        component_a.fingerprint,
        component_b.fingerprint,
        relative_pose_key(placement_a, placement_b),
        plane,
        order,
    )


def cache_name(
    namespace: Literal["pair", "self", "law"],
    key: PairKey | SelfKey | LawKey,
    version: int = CACHE_SCHEMA_VERSION,
) -> str:
    """On-disk name of a cache key: the SHA-256 of its ``repr`` in a namespace.

    Each kind of entry has its own namespace (``"pair"`` for a
    :data:`PairKey`, ``"self"`` for a :data:`SelfKey`, ``"law"`` for a
    :data:`LawKey`), so keys of different kinds never share a name, and
    the schema version is folded in.  A key holds only strings, integers,
    Python floats and ``None``; their ``repr`` is an exact,
    platform-independent serialisation (a float's is its shortest exact
    round-trip form), so the name is as exact as the key.

    Returns:
        A 64-character hex SHA-256 digest.
    """
    return hashlib.sha256(f"{namespace}-v{version}|{key!r}".encode("ascii")).hexdigest()


def law_key(
    component_a: "Component",
    component_b: "Component",
    distances: np.ndarray,
    rotation_b_deg: float,
    direction_deg: float,
    ground_plane_z: float | None,
    order: int,
) -> LawKey:
    """The key of one distance sweep's fitted law, shared by both cache tiers.

    Nothing is quantised: the grid, rotation, bearing and plane height
    enter as exact Python floats (``+ 0.0`` folds ``-0.0`` into ``0.0``,
    so the tuple's equality and its ``repr`` agree).  The key is *not*
    symmetric in A/B.

    Args:
        component_a, component_b: the swept parts (A sits at the origin).
        distances: centre-to-centre distances of the sweep [m].
        rotation_b_deg: B's rotation [deg].
        direction_deg: bearing of B from A [deg].
        ground_plane_z: shielding-plane height [m], ``None`` for free space.
        order: Gauss–Legendre quadrature order of the field computation.
    """
    plane = None if ground_plane_z is None else float(ground_plane_z) + 0.0
    return (
        component_a.fingerprint,
        component_b.fingerprint,
        tuple(float(d) + 0.0 for d in distances),
        float(rotation_b_deg) + 0.0,
        float(direction_deg) + 0.0,
        plane,
        order,
    )
