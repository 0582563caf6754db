"""Step 1 of the automatic method: optimal component rotation.

Paper, section 4: *"1) Optimal rotation — We compute optimal component
angles to minimize the total sum of minimum distances."*

Because ``EMD_ij = PEMD_ij * |cos(alpha_ij)|`` depends only on the
*rotations* (not positions), the rotation subproblem separates from
placement.  The optimiser runs exhaustive coordinate descent over each
component's discrete allowed angles until a fixed point: every step is the
exact per-component optimum, so the objective decreases monotonically and
termination is guaranteed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..geometry import Placement2D, Vec2, Vec3
from ..rules import emd_between_axes, emd_floor
from ..units import Degrees, Meters
from .model import PlacementProblem

__all__ = ["RotationPlan", "RotationOptimizer"]

#: Bound on the coordinate-descent sweeps over the rule-bound parts.
MAX_PASSES = 12

#: One rule's EMD term: both refdes, both parts' world axes by rotation
#: choice [deg], the PEMD [m], the residual floor [-] and its EMD [m] by
#: rotation pair, filled as the descent visits the pairs.
_Axes = dict[Degrees, Vec3]
_Term = tuple[str, str, _Axes, _Axes, Meters, float, dict[tuple[Degrees, Degrees], Meters]]


@dataclass
class RotationPlan:
    """Chosen rotation per refdes plus the objective trajectory."""

    rotations_deg: dict[str, Degrees]
    initial_emd_sum: Meters
    final_emd_sum: Meters
    passes: int

    @property
    def improvement(self) -> Meters:
        """Absolute reduction of the EMD sum [m]."""
        return self.initial_emd_sum - self.final_emd_sum


class RotationOptimizer:
    """Minimises the total EMD sum over discrete rotation choices."""

    def __init__(self, problem: PlacementProblem):
        self.problem = problem

    def optimize(self) -> RotationPlan:
        """Run coordinate descent; fixed components keep their rotation.

        Each part's world axis is computed once per rotation choice, each
        rule's residual floor once, and each rule's EMD once per rotation
        pair of its two parts (:func:`repro.rules.emd_between_axes` of the
        two axes).

        Returns the plan; the caller (usually :class:`AutoPlacer`) applies
        the rotations when it places each component.
        """
        components = self.problem.components
        # rotations() lists the preferred angle first when set.
        rotations: dict[str, Degrees] = {
            ref: placed.placement.rotation_deg if placed.is_placed else placed.rotations()[0]
            for ref, placed in components.items()
        }

        # Each rule as a term: both parts' axes by rotation choice (each
        # computed once), its PEMD and its residual floor.
        known = [
            rule
            for rule in self.problem.rules.min_distance
            if rule.ref_a in components and rule.ref_b in components
        ]
        axes = {
            ref: {
                angle: components[ref].component.magnetic_axis_world(
                    Placement2D(Vec2.zero(), math.radians(angle))
                )
                for angle in (rotations[ref], *components[ref].rotations())
            }
            for ref in {ref for rule in known for ref in (rule.ref_a, rule.ref_b)}
        }
        terms: list[_Term] = []
        involved: dict[str, list[_Term]] = {}
        for rule in known:
            a, b = rule.ref_a, rule.ref_b
            floor = emd_floor(components[a].component, components[b].component, rule.residual)
            term: _Term = (a, b, axes[a], axes[b], rule.pemd, floor, {})
            terms.append(term)
            involved.setdefault(a, []).append(term)
            involved.setdefault(b, []).append(term)
        # Most-constrained part first.
        order = sorted(
            involved, key=lambda ref: sum(term[4] for term in involved[ref]), reverse=True
        )

        def emd(term: _Term) -> Meters:
            a, b, axes_a, axes_b, pemd, floor, seen = term
            pair = (rotations[a], rotations[b])
            if pair not in seen:
                seen[pair] = emd_between_axes(axes_a[pair[0]], axes_b[pair[1]], pemd, floor)
            return seen[pair]

        def emd_sum(part: list[_Term]) -> Meters:
            return sum(emd(term) for term in part)

        initial = emd_sum(terms)
        passes = 0
        for _pass in range(MAX_PASSES):
            passes += 1
            changed = False
            for ref in order:
                placed = components[ref]
                if placed.fixed or not placed.component.has_inplane_axis():
                    continue  # Rotation cannot help a vertical-axis part.
                current = rotations[ref]
                best_angle, best_cost = current, emd_sum(involved[ref])
                for angle in placed.rotations():
                    if angle == current:
                        continue  # Its cost is best_cost already.
                    rotations[ref] = angle  # Only this part's rules move.
                    cost = emd_sum(involved[ref])
                    if cost < best_cost - 1e-12:
                        best_cost, best_angle = cost, angle
                rotations[ref] = best_angle
                changed |= best_angle != current
            if not changed:
                break

        return RotationPlan(
            rotations_deg=rotations,
            initial_emd_sum=initial,
            final_emd_sum=emd_sum(terms),
            passes=passes,
        )
