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
from collections.abc import Callable
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

    def _step(self, pose: Callable[[Placement2D], Placement2D]) -> MoveResult:
        """Give the placed selection the pose ``pose`` makes of its current
        one, with an undo entry, and return the online DRC feedback.

        Raises:
            RuntimeError: if the part is unplaced.
        """
        ref = self._require_selection()
        comp = self.problem.components[ref]
        if comp.placement is None:
            raise RuntimeError(f"{ref} is unplaced; use move_to first")
        self._undo.append((ref, comp.placement))
        comp.placement = pose(comp.placement)
        return self._feedback(ref)

    def move_to(self, position: Vec2) -> MoveResult:
        """Teleport the selected component to an absolute position (an
        unplaced part lands there at 0 degrees)."""
        comp = self.problem.components[self._require_selection()]
        if comp.placement is not None:
            return self._step(lambda p: p.moved_to(position))
        self._undo.append((comp.refdes, None))
        comp.placement = Placement2D(position, 0.0)
        return self._feedback(comp.refdes)

    def move_by(self, delta: Vec2) -> MoveResult:
        """Nudge the selected component.

        Raises:
            RuntimeError: if the part is unplaced (nothing to nudge).
        """
        return self._step(lambda p: p.translated(delta))

    def rotate_to(self, angle_deg: float) -> MoveResult:
        """Set the selected component's absolute rotation."""
        return self._step(lambda p: p.rotated_to(math.radians(angle_deg)))

    def rotate_by(self, delta_deg: float) -> MoveResult:
        """Rotate the selected component relatively (the 90-degree decouple
        move of the paper's Fig. 6 is ``rotate_by(90)``)."""
        return self._step(lambda p: p.rotated_to(p.rotation_rad + math.radians(delta_deg)))

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
        search ignores the component's current position, as if it were
        lifted like during a drag, and leaves its placement untouched.

        Returns None when no legal position exists.
        """
        from .placer import BOUNDARY_SPACING, AutoPlacer

        comp = self.problem.components.get(refdes)
        if comp is None:
            raise KeyError(f"no component {refdes!r}")
        pose = comp.placement
        rotation = pose.rotation_deg if pose is not None else 0.0
        z_offset = pose.z_offset if pose is not None else 0.0
        placer = AutoPlacer(self.problem, optimize_rotation=False)
        return placer.best_candidate(comp, rotation, BOUNDARY_SPACING, z_offset)

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
