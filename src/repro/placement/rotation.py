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

from ..geometry import Placement2D, Vec2
from ..rules import MinDistanceRule, effective_min_distance
from ..units import Degrees, Meters
from .model import PlacementProblem

__all__ = ["RotationPlan", "RotationOptimizer"]


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

    def __init__(self, problem: PlacementProblem, max_passes: int = 12):
        self.problem = problem
        self.max_passes = max_passes
        # Precompute in-plane axis angle per component at rotation 0 and
        # whether the axis is rotation-sensitive at all.
        self._axis0: dict[str, float] = {}
        self._inplane: dict[str, bool] = {}
        for ref, placed in problem.components.items():
            axis = placed.component.magnetic_axis_local()
            inplane = placed.component.has_inplane_axis()
            self._inplane[ref] = inplane
            self._axis0[ref] = math.atan2(axis.y, axis.x) if inplane else 0.0

    def _emd(self, rule: MinDistanceRule, rot_a: Degrees, rot_b: Degrees) -> Meters:
        """EMD under hypothetical rotations (degrees), with residual floors."""
        a = self.problem.components[rule.ref_a]
        b = self.problem.components[rule.ref_b]
        residual = max(
            a.component.decoupling_residual,
            b.component.decoupling_residual,
            rule.residual,
        )
        in_a, in_b = self._inplane[rule.ref_a], self._inplane[rule.ref_b]
        if not in_a or not in_b:
            # A vertical axis is rotation invariant: alpha is the fixed 3-D
            # angle, conservatively evaluated from the actual axes.
            pa = Placement2D(Vec2.zero(), math.radians(rot_a))
            pb = Placement2D(Vec2.zero(), math.radians(rot_b))
            axis_a = a.component.magnetic_axis_world(pa)
            axis_b = b.component.magnetic_axis_world(pb)
            cos = min(1.0, abs(axis_a.dot(axis_b)))
            return effective_min_distance(rule.pemd, math.acos(cos), residual)
        angle_a = self._axis0[rule.ref_a] + math.radians(rot_a)
        angle_b = self._axis0[rule.ref_b] + math.radians(rot_b)
        return effective_min_distance(rule.pemd, angle_a - angle_b, residual)

    def _emd_sum(self, rotations: dict[str, Degrees]) -> Meters:
        return sum(
            self._emd(r, rotations[r.ref_a], rotations[r.ref_b])
            for r in self.problem.rules.min_distance
            if r.ref_a in rotations and r.ref_b in rotations
        )

    def optimize(self) -> RotationPlan:
        """Run coordinate descent; fixed components keep their rotation.

        Returns the plan; the caller (usually :class:`AutoPlacer`) applies
        the rotations when it places each component.
        """
        problem = self.problem
        rotations: dict[str, float] = {}
        for ref, placed in problem.components.items():
            # rotations() lists the preferred angle first when set.
            rotations[ref] = (
                placed.placement.rotation_deg
                if placed.is_placed
                else placed.rotations()[0]
            )
        initial = self._emd_sum(rotations)

        # Components involved in at least one rule, most-constrained first.
        involved: dict[str, list[MinDistanceRule]] = {}
        for rule in problem.rules.min_distance:
            involved.setdefault(rule.ref_a, []).append(rule)
            involved.setdefault(rule.ref_b, []).append(rule)
        order = sorted(
            involved,
            key=lambda ref: sum(r.pemd for r in involved[ref]),
            reverse=True,
        )

        passes = 0
        for _pass in range(self.max_passes):
            passes += 1
            changed = False
            for ref in order:
                placed = problem.components.get(ref)
                if placed is None or placed.fixed:
                    continue
                if not self._inplane.get(ref, False):
                    continue  # Rotation cannot help a vertical-axis part.
                best_angle = rotations[ref]
                best_cost = self._local_cost(ref, best_angle, rotations, involved)
                for angle in placed.rotations():
                    cost = self._local_cost(ref, angle, rotations, involved)
                    if cost < best_cost - 1e-12:
                        best_cost = cost
                        best_angle = angle
                if best_angle != rotations[ref]:
                    rotations[ref] = best_angle
                    changed = True
            if not changed:
                break

        final = self._emd_sum(rotations)
        return RotationPlan(
            rotations_deg=rotations,
            initial_emd_sum=initial,
            final_emd_sum=final,
            passes=passes,
        )

    def _local_cost(
        self,
        ref: str,
        angle: Degrees,
        rotations: dict[str, Degrees],
        involved: dict[str, list[MinDistanceRule]],
    ) -> Meters:
        total = 0.0
        for rule in involved.get(ref, ()):  # Only this component's rules move.
            other = rule.ref_b if rule.ref_a == ref else rule.ref_a
            rot_a = angle if rule.ref_a == ref else rotations[rule.ref_a]
            rot_b = angle if rule.ref_b == ref else rotations[rule.ref_b]
            if other not in rotations:
                continue
            total += self._emd(rule, rot_a, rot_b)
        return total
