"""Rip-up-and-replace refinement of a legal layout.

The sequential placer commits to positions greedily; once every component
is down, re-placing each part with full knowledge of all the others often
recovers wirelength the greedy pass left on the table.  This refinement
rips one component at a time, re-runs the candidate search against the
complete layout, and keeps the move only when it strictly improves the
objective while staying legal — so the result is never worse than the
input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .drc import DesignRuleChecker
from .metrics import total_wirelength
from .model import PlacementProblem
from .placer import BOUNDARY_SPACING, AutoPlacer, PlacerWeights

__all__ = ["RefinementResult", "refine_wirelength"]


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of a refinement run."""

    wirelength_before: float
    wirelength_after: float
    improved_components: int
    passes: int

    @property
    def improvement(self) -> float:
        """Fractional wirelength reduction (0..1)."""
        if self.wirelength_before <= 0.0:
            return 0.0
        return 1.0 - self.wirelength_after / self.wirelength_before


def refine_wirelength(
    problem: PlacementProblem,
    max_passes: int = 3,
    weights: PlacerWeights | None = None,
) -> RefinementResult:
    """Iteratively rip-up-and-replace components to shorten nets.

    Legality (including the EMC min distances) is re-verified per move via
    the incremental DRC; rejected moves are rolled back, so a legal input
    layout stays legal.

    Args:
        problem: a fully placed problem (unplaced parts are skipped).
        max_passes: bound on sweeps over the component list.
        weights: candidate scoring (defaults to wirelength-dominated).
    """
    placer = AutoPlacer(
        problem,
        optimize_rotation=False,
        respect_min_distance=True,
        weights=weights
        or PlacerWeights(wirelength=3.0, group_cohesion=1.0, compactness=0.1),
    )
    checker = DesignRuleChecker(problem)
    before = total_wirelength(problem)
    improved = 0
    passes = 0

    for _ in range(max_passes):
        passes += 1
        improved_this_pass = 0
        for ref in list(problem.components):
            comp = problem.components[ref]
            if comp.fixed or not comp.is_placed:
                continue
            old_placement = comp.placement
            old_wl = total_wirelength(problem)
            # The search ignores the part's own position: a rip-up without lifting it.
            candidate = placer.best_candidate(
                comp, old_placement.rotation_deg, BOUNDARY_SPACING, old_placement.z_offset
            )
            if candidate is None:
                continue
            comp.placement = old_placement.moved_to(candidate)
            new_wl = total_wirelength(problem)
            if new_wl < old_wl - 1e-9 and not checker.check_component(ref):
                improved_this_pass += 1
            else:
                comp.placement = old_placement
        improved += improved_this_pass
        if improved_this_pass == 0:
            break

    return RefinementResult(
        wirelength_before=before,
        wirelength_after=total_wirelength(problem),
        improved_components=improved,
        passes=passes,
    )
