"""Interactive placement session with online design-rule checking.

The paper, section 4: *"During interactive movement/rotation of a selected
component the user can utilize different placement adviser functionality …
Online design rule checks visualize design rule violations immediately by
changing the colors.  By using this functionality a minimization of the
system volume is possible since relevant constraints are controlled
simultaneously."*

:class:`InteractiveSession` is that loop without the pixels: select a
component, nudge or rotate it, and receive the incremental DRC verdict and
the red/green rule markers after every operation.  An undo stack makes
explorative volume-minimisation safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..geometry import Placement2D, Vec2
from .drc import DesignRuleChecker, RuleMarker, Violation
from .metrics import member_centroid, placement_area
from .model import PlacementProblem

__all__ = ["MoveResult", "InteractiveSession"]


@dataclass
class MoveResult:
    """Feedback after one interactive operation."""

    refdes: str
    violations: list[Violation]
    markers: list[RuleMarker]
    area: float

    @property
    def legal(self) -> bool:
        """No violation involves the moved component."""
        return not self.violations


class InteractiveSession:
    """Stateful move/rotate API with immediate rule feedback."""

    def __init__(self, problem: PlacementProblem):
        self.problem = problem
        self.checker = DesignRuleChecker(problem)
        self._selected: str | None = None
        self._undo: list[tuple[str, Placement2D | None]] = []

    # -- selection ----------------------------------------------------------

    def select(self, refdes: str) -> None:
        """Select the component subsequent operations act on.

        Raises:
            KeyError: for unknown refdes.
            ValueError: when trying to select a fixed (preplaced) part.
        """
        comp = self.problem.components.get(refdes)
        if comp is None:
            raise KeyError(f"no component {refdes!r}")
        if comp.fixed:
            raise ValueError(f"{refdes} is preplaced/fixed and cannot be moved")
        self._selected = refdes

    @property
    def selected(self) -> str | None:
        """Currently selected refdes."""
        return self._selected

    # -- operations ------------------------------------------------------------

    def _require_selection(self) -> str:
        if self._selected is None:
            raise RuntimeError("no component selected")
        return self._selected

    def _feedback(self, refdes: str) -> MoveResult:
        return MoveResult(
            refdes=refdes,
            violations=self.checker.check_component(refdes),
            markers=self.checker.rule_markers(),
            area=placement_area(self.problem),
        )

    def move_to(self, position: Vec2) -> MoveResult:
        """Teleport the selected component to an absolute position."""
        ref = self._require_selection()
        comp = self.problem.components[ref]
        self._undo.append((ref, comp.placement))
        comp.placement = (
            Placement2D(position, 0.0)
            if comp.placement is None
            else comp.placement.moved_to(position)
        )
        return self._feedback(ref)

    def move_by(self, delta: Vec2) -> MoveResult:
        """Nudge the selected component.

        Raises:
            RuntimeError: if the part is unplaced (nothing to nudge).
        """
        ref = self._require_selection()
        comp = self.problem.components[ref]
        if comp.placement is None:
            raise RuntimeError(f"{ref} is unplaced; use move_to first")
        self._undo.append((ref, comp.placement))
        comp.placement = comp.placement.translated(delta)
        return self._feedback(ref)

    def rotate_to(self, angle_deg: float) -> MoveResult:
        """Set the selected component's absolute rotation."""
        ref = self._require_selection()
        comp = self.problem.components[ref]
        if comp.placement is None:
            raise RuntimeError(f"{ref} is unplaced; use move_to first")
        self._undo.append((ref, comp.placement))
        comp.placement = comp.placement.rotated_to(math.radians(angle_deg))
        return self._feedback(ref)

    def rotate_by(self, delta_deg: float) -> MoveResult:
        """Rotate the selected component relatively (the 90-degree decouple
        move of the paper's Fig. 6 is ``rotate_by(90)``)."""
        ref = self._require_selection()
        comp = self.problem.components[ref]
        if comp.placement is None:
            raise RuntimeError(f"{ref} is unplaced; use move_to first")
        self._undo.append((ref, comp.placement))
        comp.placement = comp.placement.rotated_to(
            comp.placement.rotation_rad + math.radians(delta_deg)
        )
        return self._feedback(ref)

    # -- session services --------------------------------------------------------

    def undo(self) -> bool:
        """Revert the last operation; returns False on an empty stack."""
        if not self._undo:
            return False
        ref, placement = self._undo.pop()
        self.problem.components[ref].placement = placement
        return True

    def markers(self) -> list[RuleMarker]:
        """Current red/green circles for all pairwise rules."""
        return self.checker.rule_markers()

    def board_is_legal(self) -> bool:
        """Full-board DRC verdict."""
        return self.checker.is_legal()

    def area(self) -> float:
        """Current placement bounding-box area (the volume proxy)."""
        return placement_area(self.problem)

    def suggest_position(self, refdes: str) -> Vec2 | None:
        """Adviser: the best legal position for a component, given all
        current rules and the rest of the layout.

        Uses the automatic placer's candidate search without committing —
        the user decides whether to :meth:`move_to` the suggestion.  The
        component's current placement is ignored during the search (it is
        "lifted" like during a drag), and restored afterwards.

        Returns None when no legal position exists.
        """
        from .placer import BOUNDARY_SPACING, AutoPlacer

        comp = self.problem.components.get(refdes)
        if comp is None:
            raise KeyError(f"no component {refdes!r}")
        original = comp.placement
        rotation = original.rotation_deg if original is not None else 0.0
        z_offset = original.z_offset if original is not None else 0.0
        comp.placement = None
        try:
            placer = AutoPlacer(self.problem, optimize_rotation=False)
            return placer.best_candidate(comp, rotation, BOUNDARY_SPACING, z_offset)
        finally:
            comp.placement = original

    def compact_step(self, refdes: str, step: float = 1e-3) -> MoveResult | None:
        """Adviser: move a part one step towards the placement centroid if
        that stays legal; returns None when no legal step exists.

        This is the kernel of manual volume minimisation: repeated calls
        shrink the layout while the online DRC guards every move.
        """
        self.select(refdes)
        comp = self.problem.components[refdes]
        if comp.placement is None:
            return None
        centroid = member_centroid([c for c in self.problem.placed() if c.refdes != refdes])
        if centroid is None:
            return None
        direction = centroid - comp.center()
        if direction.norm() < step:
            return None
        delta = direction.normalized() * step
        result = self.move_by(delta)
        if not result.legal:
            self.undo()
            return None
        return result
