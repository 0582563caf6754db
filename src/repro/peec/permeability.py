"""Effective permeability — the paper's work-around for ferrite cores.

PEEC cannot represent inhomogeneous permeability, so (following Hoene et
al., PESC 2005, cited as [4]) inductances and mutual inductances computed
for the *air-core* segmented-ring winding model are scaled by an **effective
permeability** factor.  The factor accounts for the core while the field
*path shape* stays the air-core one; the paper quotes a resulting error of
about 15 % for practical setups, acceptable for EMI prediction, because
stray-field lines run mostly through non-ferromagnetic material.

The classic open-magnetic-circuit result is used:

``mu_eff = mu_r / (1 + N * (mu_r - 1))``

with ``N`` the demagnetising factor of the core shape.  For a gapped or
open bobbin core ``N`` is dominated by geometry, which is why even a huge
material ``mu_r`` saturates at a modest ``mu_eff``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..units import Dimensionless, Meters

__all__ = [
    "demagnetizing_factor_rod",
    "effective_permeability",
    "CoreMaterial",
    "FERRITE_N87",
    "FERRITE_3C90",
    "IRON_POWDER_26",
    "AIR_CORE",
    "stray_coupling_scale",
]


def demagnetizing_factor_rod(length: Meters, diameter: Meters) -> Dimensionless:
    """Demagnetising factor of a cylindrical rod magnetised along its axis.

    Uses the Ollendorff/Bozorth fit ``N = (ln(2m) - 1) / m^2 * ...`` in the
    practical simplified form ``N ≈ (ln(2m) - 1) / m**2`` for aspect ratio
    ``m = length/diameter > 2``, clamped into (0, 1/3] and to the sphere
    value 1/3 for stubby rods.
    """
    if length <= 0.0 or diameter <= 0.0:
        raise ValueError("rod dimensions must be positive")
    m = length / diameter
    if m <= 1.0:
        return 1.0 / 3.0
    n = (math.log(2.0 * m) - 1.0) / (m * m)
    return min(max(n, 1e-6), 1.0 / 3.0)


def effective_permeability(mu_r: Dimensionless, demag_factor: Dimensionless) -> Dimensionless:
    """Effective permeability of an open core: ``mu_r / (1 + N (mu_r - 1))``.

    Args:
        mu_r: relative permeability of the core material (>= 1).
        demag_factor: shape demagnetising factor N in [0, 1].
    """
    if mu_r < 1.0:
        raise ValueError("mu_r must be >= 1")
    if not 0.0 <= demag_factor <= 1.0:
        raise ValueError("demagnetising factor must lie in [0, 1]")
    return mu_r / (1.0 + demag_factor * (mu_r - 1.0))


@dataclass(frozen=True)
class CoreMaterial:
    """A magnetic core material for the effective-permeability correction.

    Attributes:
        name: catalogue name.
        mu_r: low-frequency relative permeability.
        stray_fraction: fraction of the winding flux that leaves the core as
            stray field (drives how strongly mutual couplings scale; ~1 for
            open rods, small for closed toroids).
    """

    name: str
    mu_r: Dimensionless
    stray_fraction: Dimensionless = 1.0

    def mu_eff(self, demag_factor: Dimensionless) -> Dimensionless:
        """Effective permeability for a given core shape."""
        return effective_permeability(self.mu_r, demag_factor)


#: Common catalogue materials.
FERRITE_N87 = CoreMaterial("N87", mu_r=2200.0, stray_fraction=0.9)
FERRITE_3C90 = CoreMaterial("3C90", mu_r=2300.0, stray_fraction=0.9)
IRON_POWDER_26 = CoreMaterial("Iron-26", mu_r=75.0, stray_fraction=1.0)
AIR_CORE = CoreMaterial("air", mu_r=1.0, stray_fraction=1.0)


def stray_coupling_scale(
    mu_eff_a: Dimensionless,
    stray_a: Dimensionless,
    mu_eff_b: Dimensionless,
    stray_b: Dimensionless,
) -> Dimensionless:
    """Scale factor applied to an air-core mutual inductance M_air.

    The self-inductances scale with ``mu_eff`` each; the *coupling factor*
    ``k = M / sqrt(La Lb)`` of stray fields is, to first order, preserved if
    M scales with ``sqrt(mu_eff_a * mu_eff_b)`` — the field redirection by
    the cores is neglected exactly as the paper prescribes (the documented
    ~15 % error source).  Each part's ``stray_a``/``stray_b``
    (:attr:`CoreMaterial.stray_fraction`) is the share of its flux that
    leaves the core and so reaches the other part.
    """
    if mu_eff_a < 1.0 or mu_eff_b < 1.0:
        raise ValueError("effective permeabilities must be >= 1")
    return math.sqrt(mu_eff_a * stray_a * mu_eff_b * stray_b)
