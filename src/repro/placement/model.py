"""Placement data model: boards, areas, keepouts, components, nets, groups.

Mirrors the constraint system of the paper's tool (section 4):

* *"1 or 2 rigid connected boards can be given for placement"*
* *"different arbitrary shaped placement areas, keepins and 3D keepouts
  with/without z-offset"*
* *"preplaced components"*
* *"allowed and preferred placement areas and rotation angles for each
  component"*
* *"clearances"*, *"groups of components"*, *"maximum total length of
  electrical nets"*, *"minimal distance rules for component pairs"*.

The live state is :class:`PlacementProblem`; rules live in a
:class:`repro.rules.RuleSet` referenced by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..components import Component
from ..geometry import EPS, Cuboid, OrientedRect, Placement2D, Polygon2D, Rect, Vec2, Vec3
from ..obs import get_tracer
from ..rules import MinDistanceRule, RuleSet, emd_between_axes, emd_floor

__all__ = [
    "EMD_TOLERANCE",
    "PlacementArea",
    "Keepout3D",
    "Board",
    "PlacedComponent",
    "Net",
    "Group",
    "PlacementProblem",
    "PlacementError",
]


#: A min-distance rule is met when ``distance + EMD_TOLERANCE >= EMD`` [m];
#: the placer and the DRC share it, so an accepted position is never flagged.
EMD_TOLERANCE = 1e-12


class PlacementError(RuntimeError):
    """Raised when the automatic placer cannot produce a legal layout."""


@dataclass
class PlacementArea:
    """A named region where components may be placed (a keepin)."""

    name: str
    polygon: Polygon2D
    board: int = 0


@dataclass
class Keepout3D:
    """A blocked volume; the z-offset admits parts shorter than the gap."""

    name: str
    cuboid: Cuboid
    board: int = 0

    def blocks(self, z_offset: float, height: float) -> bool:
        """True if a body from ``z_offset`` to ``z_offset + height`` reaches
        into the keepout's height range (``Cuboid.overlaps`` in z)."""
        zmin, zmax = self.cuboid.zmin, self.cuboid.zmax
        return not (z_offset + height <= zmin + EPS or zmax <= z_offset + EPS)


@dataclass
class Board:
    """One rigid board: outline, placement areas and keepouts.

    A board carries no ground plane of its own; the plane the design
    flow simulates is ``EmiDesignFlow.ground_plane_z``.
    """

    index: int
    outline: Polygon2D
    areas: list[PlacementArea] = field(default_factory=list)
    keepouts: list[Keepout3D] = field(default_factory=list)

    def area_by_name(self, name: str) -> PlacementArea:
        """Look up a placement area.

        Raises:
            KeyError: when the area does not exist on this board.
        """
        for area in self.areas:
            if area.name == name:
                return area
        raise KeyError(f"board {self.index} has no area {name!r}")

    def default_area(self) -> PlacementArea:
        """The whole outline as the implicit area ``board<index>``."""
        return PlacementArea(f"board{self.index}", self.outline, self.index)

    def placement_areas(self) -> list[PlacementArea]:
        """The defined areas, or :meth:`default_area` when none are defined."""
        return self.areas or [self.default_area()]


@dataclass
class PlacedComponent:
    """A component instance on (or destined for) a board.

    Attributes:
        refdes: unique reference designator ("C3", "L1", ...).
        component: the library part (geometry + field + parasitics).
        placement: current pose, or None while unplaced.
        board: board index the part is assigned to.
        fixed: preplaced parts the placer must not move.
        group: functional group name, or None.
        allowed_areas: names of areas the part may occupy (empty = any).
        preferred_area: area the placer tries first.
        allowed_rotations_deg: override of the part's default rotation set.
        preferred_rotation_deg: rotation the placer favours when the EMC
            rules leave a choice (the paper's "preferred ... rotation
            angles for each component").

    What a pose determines (footprint AABB, world magnetic axis) is
    derived once per ``Placement2D`` object and kept until ``placement``
    is set to another object; ``Placement2D`` is frozen, so any move,
    rotation, undo or restore replaces it.
    """

    refdes: str
    component: Component
    placement: Placement2D | None = None
    board: int = 0
    fixed: bool = False
    group: str | None = None
    allowed_areas: tuple[str, ...] = ()
    preferred_area: str | None = None
    allowed_rotations_deg: tuple[float, ...] | None = None
    preferred_rotation_deg: float | None = None
    _pose: tuple[Placement2D, Rect, Vec3] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.refdes:
            raise ValueError("a placed component needs a refdes")

    @property
    def is_placed(self) -> bool:
        """Whether the part currently has a pose."""
        return self.placement is not None

    def rotations(self) -> tuple[float, ...]:
        """The rotation angles the placer may choose from [deg], with the
        preferred angle (when allowed) listed first."""
        allowed = (
            self.allowed_rotations_deg
            if self.allowed_rotations_deg is not None
            else self.component.allowed_rotations_deg
        )
        if (
            self.preferred_rotation_deg is not None
            and self.preferred_rotation_deg in allowed
        ):
            rest = tuple(a for a in allowed if a != self.preferred_rotation_deg)
            return (self.preferred_rotation_deg,) + rest
        return allowed

    def _derived(self) -> tuple[Placement2D, Rect, Vec3]:
        """(pose, footprint AABB, world axis), derived again only when
        ``placement`` is no longer the pose they were derived from."""
        placement = self.placement
        if placement is None:
            raise ValueError(f"{self.refdes} is not placed")
        pose = self._pose
        if pose is None or pose[0] is not placement:
            component = self.component
            oriented = OrientedRect.from_footprint(
                component.footprint_w, component.footprint_h, placement
            )
            pose = (placement, oriented.aabb(), component.magnetic_axis_world(placement))
            self._pose = pose
            get_tracer().count("placement.pose_derivations")
        return pose

    def footprint_aabb(self) -> Rect:
        """Rectilinear approximation of the placed footprint.

        Raises:
            ValueError: if the part is unplaced.
        """
        return self._derived()[1]

    def axis_world(self) -> Vec3:
        """Unit magnetic axis in board coordinates.

        Raises:
            ValueError: if the part is unplaced.
        """
        return self._derived()[2]

    def body_cuboid(self) -> Cuboid:
        """The 3-D body volume (for keepout checks)."""
        if self.placement is None:
            raise ValueError(f"{self.refdes} is not placed")
        return Cuboid(
            self.footprint_aabb(),
            self.placement.z_offset,
            self.placement.z_offset + self.component.body_height,
        )

    def center(self) -> Vec2:
        """Placement position.

        Raises:
            ValueError: if unplaced.
        """
        if self.placement is None:
            raise ValueError(f"{self.refdes} is not placed")
        return self.placement.position


@dataclass
class Net:
    """An electrical net connecting component pins."""

    name: str
    pins: list[tuple[str, str]] = field(default_factory=list)  # (refdes, pad)

    def refdes_set(self) -> set[str]:
        """Components touched by the net."""
        return {ref for ref, _ in self.pins}


@dataclass
class Group:
    """A functional group that must occupy a coherent area."""

    name: str
    members: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.members) < 1:
            raise ValueError(f"group {self.name!r} has no members")


@dataclass
class PlacementProblem:
    """Everything the placer and the DRC need, in one object."""

    boards: list[Board]
    components: dict[str, PlacedComponent] = field(default_factory=dict)
    nets: list[Net] = field(default_factory=list)
    groups: list[Group] = field(default_factory=list)
    rules: RuleSet = field(default_factory=RuleSet)
    default_clearance: float = 0.5e-3
    # id(rule) -> (rule, pose_a, pose_b, EMD, centre distance, midpoint).
    _rule_memo: dict[
        int, tuple[MinDistanceRule, Placement2D, Placement2D, float, float, Vec2]
    ] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= len(self.boards) <= 2:
            raise ValueError("the tool supports 1 or 2 boards")

    # -- construction -----------------------------------------------------

    def add_component(self, placed: PlacedComponent) -> PlacedComponent:
        """Register a component instance.

        Raises:
            ValueError: on duplicate refdes.
        """
        if placed.refdes in self.components:
            raise ValueError(f"duplicate refdes {placed.refdes!r}")
        self.components[placed.refdes] = placed
        return placed

    def add_net(self, name: str, pins: list[tuple[str, str]]) -> Net:
        """Register a net; pins reference existing components.

        Raises:
            KeyError: if a pin references an unknown refdes.
        """
        for ref, _pad in pins:
            if ref not in self.components:
                raise KeyError(f"net {name!r}: unknown refdes {ref!r}")
        net = Net(name, list(pins))
        self.nets.append(net)
        return net

    def define_group(self, name: str, members: list[str]) -> Group:
        """Create a functional group and tag its members.

        Raises:
            KeyError: for unknown members.
        """
        for ref in members:
            if ref not in self.components:
                raise KeyError(f"group {name!r}: unknown refdes {ref!r}")
        group = Group(name, tuple(members))
        self.groups.append(group)
        for ref in members:
            self.components[ref].group = name
        return group

    # -- queries -------------------------------------------------------------

    def board(self, index: int) -> Board:
        """Board by index.

        Raises:
            KeyError: for an invalid index.
        """
        for b in self.boards:
            if b.index == index:
                return b
        raise KeyError(f"no board {index}")

    def placed(self) -> list[PlacedComponent]:
        """All currently placed components."""
        return [c for c in self.components.values() if c.is_placed]

    def unplaced(self) -> list[PlacedComponent]:
        """Components still awaiting a pose."""
        return [c for c in self.components.values() if not c.is_placed]

    def group_members(self, name: str) -> list[PlacedComponent]:
        """Members of a functional group."""
        for g in self.groups:
            if g.name == name:
                return [self.components[r] for r in g.members]
        raise KeyError(f"no group {name!r}")

    def nets_touching(self, refdes: str) -> list[Net]:
        """Nets with a pin on the given component."""
        return [n for n in self.nets if refdes in n.refdes_set()]

    # -- legality: each placement constraint defined once ---------------------

    def allowed_areas(self, comp: PlacedComponent) -> list[PlacementArea]:
        """The areas a part may occupy, in board order.

        Empty ``allowed_areas`` means every area of its board (the outline
        when the board defines none).  Names that match no area admit
        nothing, so such a part can never be placed (PLC005).
        """
        areas = self.board(comp.board).placement_areas()
        if not comp.allowed_areas:
            return areas
        return [a for a in areas if a.name in comp.allowed_areas]

    def clearance_between(self, a: PlacedComponent, b: PlacedComponent) -> float:
        """Required body-to-body spacing of a pair [m]: a pair rule, else a
        global rule, else the largest of the default and both parts' own."""
        return self.rules.clearance_for(
            a.refdes,
            b.refdes,
            max(self.default_clearance, a.component.clearance, b.component.clearance),
        )

    def rule_distances(
        self, only: str | None = None
    ) -> list[tuple[MinDistanceRule, float, float, Vec2]]:
        """(rule, EMD, centre distance [m], pair midpoint) of each
        min-distance rule that applies, in rule order; with ``only``, just
        that part's rules.  A rule applies when both parts are placed on
        the same board.

        Each rule's pair is kept with both parts' poses and derived again
        only when one of them has moved.
        """
        rules = self.rules.min_distance if only is None else self.rules.rules_involving(only)
        components, memo = self.components, self._rule_memo
        out: list[tuple[MinDistanceRule, float, float, Vec2]] = []
        evals = 0
        for rule in rules:
            a = components.get(rule.ref_a)
            b = components.get(rule.ref_b)
            if a is None or b is None or a.placement is None or b.placement is None:
                continue
            if a.board != b.board:
                continue  # Rigid separation decouples the boards.
            pa, pb = a.placement, b.placement
            kept = memo.get(id(rule))
            if kept is None or kept[0] is not rule or kept[1] is not pa or kept[2] is not pb:
                floor = emd_floor(a.component, b.component, rule.residual)
                emd = emd_between_axes(a.axis_world(), b.axis_world(), rule.pemd, floor)
                a_at, b_at = pa.position, pb.position
                kept = (rule, pa, pb, emd, a_at.distance_to(b_at), (a_at + b_at) / 2.0)
                memo[id(rule)] = kept
                evals += 1
            out.append((rule, kept[3], kept[4], kept[5]))
        if evals:
            get_tracer().count("placement.rule_evals", evals)
        return out

    def pair_count(self) -> int:
        """n(n-1)/2 — the paper's bound on definable minimum distances."""
        n = len(self.components)
        return n * (n - 1) // 2

    def clone_state(self) -> dict[str, Placement2D | None]:
        """Snapshot of all placements (for undo / what-if)."""
        return {ref: c.placement for ref, c in self.components.items()}

    def restore_state(self, state: dict[str, Placement2D | None]) -> None:
        """Restore a placement snapshot."""
        for ref, placement in state.items():
            if ref in self.components:
                self.components[ref].placement = placement
