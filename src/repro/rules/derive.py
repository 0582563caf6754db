"""Deriving PEMD rules from field simulations and sensitivity results.

The paper's section 3 chain: coupling-versus-distance curves (Figs. 5, 7)
plus the tolerable coupling level (from the sensitivity analysis — e.g.
"*a coupling factor with an amount of 0.1 already severely influences the
behaviour of a pi-filter*") yield, per component pair, the parallel-axes
minimum distance PEMD.  The exact values *"vary with the size of the
components and have to be recalculated for every component combination"* —
hence the per-pair sweep-and-fit here.  The fitted law does not depend
on the threshold, so it is a coupling-cache fact
(:meth:`repro.coupling.CouplingDatabase.distance_law`): every pair of
parts with the same geometry, and every threshold, shares one fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..components import Component
from ..coupling import CouplingDatabase
from ..coupling.fit import PowerLawFit
from ..sensitivity import SensitivityEntry
from ..units import Dimensionless, Meters
from .rule_types import MinDistanceRule

__all__ = ["PemdDerivation", "derive_pemd", "derive_rule_set"]


@dataclass(frozen=True)
class PemdDerivation:
    """A derived PEMD with its supporting fit.

    ``pemd_perp`` is the minimum distance measured with the axes
    perpendicular — zero when rotation decouples the pair completely (two
    capacitors, the paper's Fig. 6), positive when a near-field floor
    remains (capacitor against a choke).

    Attributes:
        pemd: parallel-axes minimum distance [m].
        k_threshold: tolerable unsigned coupling factor [-] the rule
            enforces.
        fit: the power-law fit ``|k| = c * d^-p`` behind the inversion.
        d_contact: centre distance at body contact [m] — the physical
            lower bound of the sweep.
        pemd_perp: perpendicular-axes minimum distance [m].
    """

    pemd: Meters
    k_threshold: Dimensionless
    fit: PowerLawFit
    d_contact: Meters
    pemd_perp: Meters = 0.0

    @property
    def residual(self) -> Dimensionless:
        """The rotation-proof fraction ``pemd_perp / pemd`` (0..1)."""
        if self.pemd <= 0.0:
            return 0.0
        return min(1.0, self.pemd_perp / self.pemd)

    def rule(self, ref_a: str, ref_b: str) -> MinDistanceRule:
        """Package as a placer rule."""
        return MinDistanceRule(
            ref_a=ref_a,
            ref_b=ref_b,
            pemd=self.pemd,
            k_threshold=self.k_threshold,
            residual=self.residual,
            source="fit",
        )


def _contact_distance(comp_a: Component, comp_b: Component) -> Meters:
    """Centre distance at which the circumscribed bodies touch [m]."""
    return (comp_a.max_extent() + comp_b.max_extent()) / 2.0


def derive_pemd(
    comp_a: Component,
    comp_b: Component,
    k_threshold: Dimensionless,
    n_points: int = 7,
    max_distance: Meters = 0.12,
    ground_plane_z: Meters | None = None,
    database: CouplingDatabase | None = None,
) -> PemdDerivation:
    """Invert the fitted coupling laws of one component pair at a threshold.

    The parallel-axes sweep runs from just beyond body contact out to
    ``max_distance``; its fitted power law is inverted at
    ``k_threshold``.  Both laws (parallel and perpendicular axes) come
    from :meth:`CouplingDatabase.distance_law`, so they are swept and
    fitted at most once per database tier, whatever the threshold.

    Args:
        comp_a, comp_b: the component pair (local-frame field models).
        k_threshold: tolerable unsigned coupling factor [-] from the
            sensitivity analysis.
        n_points: sweep points between contact and ``max_distance``.
        max_distance: outer end of the distance sweep [m].
        ground_plane_z: optional shielding plane height [m].
        database: coupling cache tiers shared across derivations (a
            fresh memory-only one when omitted).

    Raises:
        ValueError: for a non-positive threshold, or when the parallel
            sweep has fewer than 3 usable points to fit.
    """
    if k_threshold <= 0.0:
        raise ValueError("k_threshold must be positive")
    if database is None:
        database = CouplingDatabase()
    d0 = _contact_distance(comp_a, comp_b) * 1.05
    if max_distance <= d0:
        max_distance = d0 * 4.0
    distances = np.geomspace(d0, max_distance, n_points)

    # PEMD is defined at *parallel magnetic axes*: rotate B so its in-plane
    # axis lines up with A's, and sweep along the common axis direction
    # (the axial, worst-case dipole arrangement).
    axis_a = comp_a.magnetic_axis_local()
    axis_b = comp_b.magnetic_axis_local()
    angle_a = math.degrees(math.atan2(axis_a.y, axis_a.x))
    angle_b = math.degrees(math.atan2(axis_b.y, axis_b.x))
    inplane_a = comp_a.has_inplane_axis()
    inplane_b = comp_b.has_inplane_axis()
    rotation_b = angle_a - angle_b if (inplane_a and inplane_b) else 0.0
    direction = angle_a if inplane_a else (angle_b if inplane_b else 0.0)

    fit = database.distance_law(
        comp_a, comp_b, distances, rotation_b, direction, ground_plane_z
    ).fit
    if fit is None:
        raise ValueError(
            f"no coupling law for {comp_a.part_number}/{comp_b.part_number}: "
            "need at least 3 positive data points for a fit"
        )
    pemd = max(fit.distance_for_coupling(k_threshold), 0.0)

    # Perpendicular-axes sweep at the worst-case placement direction.
    # The paper states that at 90 degrees components "can be placed close
    # to each other without any electromagnetic coupling effects"; that is
    # exact only when the pair sits on one of the magnetic axes.  At an
    # oblique 45-degree bearing the dipole term 3(ma.e)(mb.e) survives and
    # PEEC measures ~0.8x the parallel-axes coupling.  The residual derived
    # here makes the DRC safe against that worst case; benchmarks for the
    # paper's Fig. 10 exercise the pure cos(alpha) law separately.
    pemd_perp = 0.0
    perp = database.distance_law(
        comp_a, comp_b, distances, rotation_b + 90.0, direction + 45.0, ground_plane_z
    )
    if perp.peak_k > k_threshold / 10.0 and perp.fit is not None:
        pemd_perp = max(perp.fit.distance_for_coupling(k_threshold), 0.0)
    pemd_perp = min(pemd_perp, pemd)
    return PemdDerivation(
        pemd=pemd,
        k_threshold=k_threshold,
        fit=fit,
        d_contact=d0 / 1.05,
        pemd_perp=pemd_perp,
    )


def derive_rule_set(
    parts: dict[str, Component],
    relevant: list[SensitivityEntry],
    inductor_owner: dict[str, str],
    k_threshold_db_map: Dimensionless = 0.01,
    ground_plane_z: Meters | None = None,
    database: CouplingDatabase | None = None,
) -> list[MinDistanceRule]:
    """PEMD rules for every sensitivity-relevant component pair.

    Args:
        parts: refdes -> component.
        relevant: ranked sensitivity entries (inductor-level pairs).
        inductor_owner: circuit inductor name -> refdes, mapping the
            sensitivity result back to physical parts.
        k_threshold_db_map: tolerable unsigned coupling factor [-]
            (single threshold; a per-pair threshold map is a
            straightforward extension).
        ground_plane_z: optional shielding plane height [m].
        database: coupling cache tiers shared across derivations (a
            fresh memory-only one when omitted).  Pairs of parts with the
            same geometry share one fitted law through it; a persistent
            tier makes repeat runs near-free.

    Returns:
        One rule per distinct relevant refdes pair.
    """
    if database is None:
        database = CouplingDatabase()
    rules: dict[tuple[str, str], MinDistanceRule] = {}
    for entry in relevant:
        ref_a = inductor_owner.get(entry.inductor_a)
        ref_b = inductor_owner.get(entry.inductor_b)
        if ref_a is None or ref_b is None or ref_a == ref_b:
            continue
        pair = tuple(sorted((ref_a, ref_b)))
        if pair in rules:
            continue
        derivation = derive_pemd(
            parts[pair[0]],
            parts[pair[1]],
            k_threshold_db_map,
            ground_plane_z=ground_plane_z,
            database=database,
        )
        rules[pair] = derivation.rule(pair[0], pair[1])
    return list(rules.values())

