"""Phase-resolved coupling to multi-winding chokes — the Fig. 8 analysis.

The paper's observation: *"the two winding design offers preferred
placements for capacitors … while the three winding design generates almost
rotating stray fields and therefore no decoupled position for adjacent
components can be found."*

The physics: each winding ``w`` of the choke carries a current with its own
phase ``exp(j phi_w)``.  The victim's induced voltage is linear in its own
orientation angle ``alpha``::

    M(alpha) = A cos(alpha) + B sin(alpha),   A, B complex

where ``A`` and ``B`` sum the per-winding mutuals with their phases.  If
the windings are co-phased (single-phase CM or DM pair) the field is
*linearly polarised* — ``A`` and ``B`` share a phase, the victim can always
rotate into a null.  Three-phase excitation makes the field *elliptically
polarised*: the residual minimum over ``alpha`` equals the ellipse's minor
axis, computed here as the smallest singular value of ``[[Re A, Re B],
[Im A, Im B]]``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ..components import Capacitor, CommonModeChoke
from ..geometry import Placement2D, Vec2
from ..obs import get_tracer
from ..peec import PAIR_ORDER, mutual_inductance_paths_fast, stray_coupling_scale

__all__ = ["PolarizedCoupling", "polarized_coupling", "decoupling_sweep"]


@dataclass(frozen=True)
class PolarizedCoupling:
    """Orientation-resolved coupling of a victim at one position.

    Attributes:
        k_max: coupling factor at the worst victim orientation.
        k_min: coupling factor at the best orientation — 0 for linear
            polarisation, > 0 for a rotating field.
        best_angle_deg: victim rotation achieving ``k_min``.
    """

    k_max: float
    k_min: float
    best_angle_deg: float

    @property
    def decouplable(self) -> bool:
        """Whether a rotation exists that (practically) decouples the victim."""
        return self.k_min < 0.05 * max(self.k_max, 1e-12)


def _winding_phases(choke: CommonModeChoke, excitation: str) -> list[complex]:
    if excitation == "common":
        return [1.0 + 0.0j] * choke.n_windings
    if excitation == "phase":
        return [
            cmath.exp(2j * math.pi * w / choke.n_windings) for w in range(choke.n_windings)
        ]
    raise ValueError("excitation must be 'common' or 'phase'")


def polarized_coupling(
    choke: CommonModeChoke,
    choke_placement: Placement2D,
    victim: Capacitor,
    victim_placement: Placement2D,
    excitation: str = "phase",
    order: int = PAIR_ORDER,
) -> PolarizedCoupling:
    """Min/max coupling over the victim's in-plane rotation.

    ``excitation='common'`` drives all windings in phase (single-phase CM
    current); ``'phase'`` applies the symmetric multi-phase set — identical
    to 'common' for anything the victim sees only when n_windings == 1.
    """
    phases = _winding_phases(choke, excitation)
    transform = choke_placement.to_transform3d()

    # Victim mutuals at 0 and 90 degrees span the orientation dependence.
    base_rot = victim_placement.rotation_rad
    v0 = victim.current_path.transformed(victim_placement.to_transform3d())
    v90 = victim.current_path.transformed(
        victim_placement.rotated_to(base_rot + math.pi / 2.0).to_transform3d()
    )

    a = 0.0 + 0.0j
    b = 0.0 + 0.0j
    for w, phase in enumerate(phases):
        wp = choke.winding_path(w).transformed(transform)
        a += phase * mutual_inductance_paths_fast(wp, v0, order)
        b += phase * mutual_inductance_paths_fast(wp, v90, order)

    scale = stray_coupling_scale(
        choke.mu_eff, choke.core.stray_fraction, victim.mu_eff, victim.core.stray_fraction
    )
    # Self-L is placement invariant: read the components' cached values.
    norm = scale / math.sqrt(choke.self_inductance * victim.self_inductance)
    a *= norm
    b *= norm

    matrix = np.array([[a.real, b.real], [a.imag, b.imag]])
    singular = np.linalg.svd(matrix, compute_uv=False)
    k_max = float(singular[0])
    k_min = float(singular[-1])

    # Best angle: minimise |A cos + B sin| over alpha (coarse + refine).
    alphas = np.linspace(0.0, math.pi, 181)
    mags = np.abs(a * np.cos(alphas) + b * np.sin(alphas))
    best = float(np.degrees(alphas[int(np.argmin(mags))]))
    return PolarizedCoupling(k_max=k_max, k_min=k_min, best_angle_deg=best)


def decoupling_sweep(
    choke: CommonModeChoke,
    victim: Capacitor,
    radius: float,
    angles_deg: np.ndarray,
    excitation: str = "phase",
) -> tuple[np.ndarray, np.ndarray]:
    """(k_max, k_min) versus the victim's angular position around the choke.

    The Fig. 8 benchmark calls this once for the 2-winding choke (k_min
    collapses to ~0 everywhere: preferred placements exist) and once for
    the 3-winding one (k_min stays finite: no decoupled position).
    """
    place_choke = Placement2D.at(0.0, 0.0, 0.0)
    k_max = np.empty(len(angles_deg))
    k_min = np.empty(len(angles_deg))
    with get_tracer().span("coupling.decoupling_sweep"):
        for i, ang in enumerate(np.asarray(angles_deg, dtype=float)):
            pos = Vec2.from_polar(radius, math.radians(float(ang)))
            place_victim = Placement2D(pos, 0.0)
            result = polarized_coupling(
                choke, place_choke, victim, place_victim, excitation
            )
            k_max[i] = result.k_max
            k_min[i] = result.k_min
    return k_max, k_min
