"""Ground-plane shielding via the method of images.

The paper notes that the minimum-distance rules depend on *"the presence of
shielding planes like ground planes"*.  A solid, highly conductive plane
under the components reflects high-frequency magnetic fields; the standard
model replaces the plane by an **image** of every current filament, mirrored
through the plane with the sign convention of image theory:

* a *horizontal* current element has an **anti-parallel** image;
* a *vertical* element has a **parallel** image.

Both follow from mirroring the geometry through the plane and negating the
current weight, which is exactly what :func:`image_path` does.  Adding the
image to a component's current path before computing mutual inductances
yields the shielded coupling.
"""

from __future__ import annotations

from .mesh import CurrentPath

__all__ = ["image_path", "with_ground_plane", "shielding_factor"]


def image_path(path: CurrentPath, plane_z: float = 0.0) -> CurrentPath:
    """The image of a current path below a perfectly conducting plane.

    Geometry is mirrored through ``z = plane_z`` and every filament weight
    is negated; see module docstring for why this realises the correct
    image currents for both horizontal and vertical elements.
    """
    return CurrentPath.from_packed(
        path.packed.image(plane_z), name=f"{path.name}~image" if path.name else "image"
    )


def with_ground_plane(path: CurrentPath, plane_z: float = 0.0) -> CurrentPath:
    """A path augmented with its ground-plane image (same terminal current).

    Use the returned path as the **source** operand of
    :func:`repro.peec.inductance.mutual_inductance_paths_fast` against a *bare*
    victim path: the flux a victim sees is that of the real currents plus
    their images.  Augmenting both operands would double-count the plane
    (the image of the victim does not carry the victim's terminal current).
    Likewise the shielded self-inductance is
    ``L + M(path, image_path(path))``.
    """
    image = image_path(path, plane_z)
    return CurrentPath.from_packed(
        path.packed.merged_with(image.packed), path.name or image.name
    )


def shielding_factor(k_unshielded: float, k_shielded: float) -> float:
    """How strongly the plane suppresses a coupling (1 = no effect, >1 = shielding).

    Defined as ``|k_unshielded| / |k_shielded|``; returns ``inf`` when the
    shielded coupling vanishes entirely.
    """
    if abs(k_shielded) < 1e-18:
        return float("inf")
    return abs(k_unshielded) / abs(k_shielded)
