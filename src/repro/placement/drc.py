"""Design-rule checking with red/green visualisation geometry.

The paper's interactive adviser: *"Online design rule checks visualize
design rule violations immediately by changing the colors"* and the result
figures show *"magnetic coupling violating the design rules (indicated by
red circles)"* / *"all specified minimum distance rules are met (indicated
by green circles)"*.

Every check returns typed :class:`Violation` records carrying the geometry
needed for those markers; :meth:`DesignRuleChecker.rule_markers` emits one
circle per min-distance rule, coloured by compliance — the Fig. 15/17
rendering data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import Polygon2D, Vec2
from ..obs import get_tracer
from .metrics import member_centroid, member_spread, net_hpwl
from .model import EMD_TOLERANCE, PlacedComponent, PlacementProblem

__all__ = ["Violation", "RuleMarker", "DesignRuleChecker"]


@dataclass(frozen=True)
class Violation:
    """One rule violation.

    Attributes:
        kind: rule discriminator ("overlap", "clearance", "min_distance",
            "keepin", "keepout", "group", "net_length").
        refs: the reference designators involved.
        required: the constraint value (metres for distances).
        actual: the observed value.
        location: a representative board point for the marker.
        message: human-readable description.
    """

    kind: str
    refs: tuple[str, ...]
    required: float
    actual: float
    location: Vec2
    message: str

    @property
    def deficit(self) -> float:
        """How far the rule is missed (positive for violations)."""
        return self.required - self.actual


@dataclass(frozen=True)
class RuleMarker:
    """Visualisation circle for one pairwise rule (red when violated).

    Attributes:
        center: the midpoint of the pair.
        emd: the rule's effective minimum distance [m].
        distance: the pair's centre distance [m].
    """

    ref_a: str
    ref_b: str
    center: Vec2
    emd: float
    distance: float

    @property
    def radius(self) -> float:
        """Circle radius [m]: EMD/2, so two touching circles mean the rule
        is exactly met (at least 0.1 mm, to stay visible)."""
        return max(self.emd / 2.0, 1e-4)

    @property
    def satisfied(self) -> bool:
        """Whether the pair keeps its EMD."""
        return self.distance + EMD_TOLERANCE >= self.emd

    @property
    def color(self) -> str:
        """SVG colour of the marker."""
        return "green" if self.satisfied else "red"


class DesignRuleChecker:
    """Checks a :class:`PlacementProblem` against its rule set."""

    def __init__(self, problem: PlacementProblem):
        self.problem = problem

    # -- individual checks --------------------------------------------------

    def check_body_spacing(self, only: str | None = None) -> list[Violation]:
        """Overlap / clearance between component bodies (AABB + clearance).

        With ``only``, just the pairs that include that component are
        walked, in the same order as the full check.
        """
        placed = self.problem.placed()
        if only is None:
            pairs = [(a, b) for i, a in enumerate(placed) for b in placed[i + 1 :]]
        else:
            refs = [c.refdes for c in placed]
            if only not in refs:
                return []
            k = refs.index(only)
            pairs = [(a, placed[k]) for a in placed[:k]] + [(placed[k], b) for b in placed[k + 1 :]]
        out: list[Violation] = []
        for a, b in pairs:
            violation = self._spacing_violation(a, b)
            if violation is not None:
                out.append(violation)
        return out

    def _spacing_violation(self, a: PlacedComponent, b: PlacedComponent) -> Violation | None:
        if a.board != b.board:
            return None
        required = self.problem.clearance_between(a, b)
        ra, rb = a.footprint_aabb(), b.footprint_aabb()
        actual = ra.separation(rb)
        # 1 um grace keeps exactly-at-clearance layouts (and their
        # ASCII round-trips) legal despite float formatting.
        tolerance = 1e-6
        if ra.overlaps(rb):
            return Violation(
                "overlap",
                (a.refdes, b.refdes),
                required,
                0.0,
                (a.center() + b.center()) / 2.0,
                f"{a.refdes} overlaps {b.refdes}",
            )
        if actual < required - tolerance:
            return Violation(
                "clearance",
                (a.refdes, b.refdes),
                required,
                actual,
                (a.center() + b.center()) / 2.0,
                f"{a.refdes}-{b.refdes} clearance "
                f"{actual * 1e3:.2f} mm < {required * 1e3:.2f} mm",
            )
        return None

    def check_min_distances(self, only: str | None = None) -> list[Violation]:
        """The EMC rules: centre distance >= EMD = PEMD * |cos(alpha)|."""
        return [
            Violation(
                "min_distance",
                (rule.ref_a, rule.ref_b),
                emd,
                actual,
                midpoint,
                f"{rule.ref_a}-{rule.ref_b} EMD {emd * 1e3:.1f} mm "
                f"> distance {actual * 1e3:.1f} mm (PEMD {rule.pemd * 1e3:.1f} mm)",
            )
            for rule, emd, actual, midpoint in self.problem.rule_distances(only)
            if actual + EMD_TOLERANCE < emd
        ]

    def check_keepin(self, only: str | None = None) -> list[Violation]:
        """Footprints must lie inside an allowed placement area.

        Each area polygon tests all the parts it admits in one
        :meth:`Polygon2D.contains_rects` call.
        """
        parts = [c for c in self.problem.placed() if only is None or c.refdes == only]
        rects = [c.footprint_aabb() for c in parts]
        bounds = np.array([(r.xmin, r.ymin, r.xmax, r.ymax) for r in rects]).reshape(-1, 4)
        admitted: dict[int, tuple[Polygon2D, list[int]]] = {}
        for i, comp in enumerate(parts):
            for area in self.problem.allowed_areas(comp):
                admitted.setdefault(id(area.polygon), (area.polygon, []))[1].append(i)
        inside = np.zeros(len(parts), dtype=bool)
        for polygon, rows in admitted.values():
            inside[rows] |= polygon.contains_rects(*bounds[rows].T)
        return [
            Violation(
                "keepin",
                (comp.refdes,),
                0.0,
                0.0,
                comp.center(),
                f"{comp.refdes} outside its allowed placement area(s)",
            )
            for comp, ok in zip(parts, inside.tolist())
            if not ok
        ]

    def check_keepouts(self, only: str | None = None) -> list[Violation]:
        """Bodies must not intersect 3-D keepout volumes (z-offset aware)."""
        out: list[Violation] = []
        for comp in self.problem.placed():
            if only is not None and comp.refdes != only:
                continue
            body = comp.body_cuboid()
            height = comp.component.body_height
            for keepout in self.problem.board(comp.board).keepouts:
                if keepout.blocks(body.zmin, height) and body.rect.overlaps(keepout.cuboid.rect):
                    out.append(
                        Violation(
                            "keepout",
                            (comp.refdes,),
                            0.0,
                            0.0,
                            comp.center(),
                            f"{comp.refdes} intrudes into keepout {keepout.name!r}",
                        )
                    )
        return out

    def check_groups(self, only: str | None = None) -> list[Violation]:
        """Functional groups must be coherent.

        One condition per :class:`GroupCoherenceRule`: the spread of the
        rule's placed members (:func:`member_spread`) stays within the
        rule's bound.  A rule with fewer than two placed members is not
        checked.  With ``only``, just the rules that list that part as a
        member.
        """
        out: list[Violation] = []
        components = self.problem.components
        for rule in self.problem.rules.groups:
            if only is not None and only not in rule.members:
                continue
            members = [
                components[r] for r in rule.members if r in components and components[r].is_placed
            ]
            if len(members) < 2:
                continue
            spread = member_spread(members)
            if spread > rule.max_spread:
                out.append(
                    Violation(
                        "group",
                        tuple(rule.members),
                        rule.max_spread,
                        spread,
                        member_centroid(members) or Vec2.zero(),
                        f"group {rule.group!r} spread {spread * 1e3:.1f} mm "
                        f"> {rule.max_spread * 1e3:.1f} mm",
                    )
                )
        return out

    def check_net_lengths(self, only: str | None = None) -> list[Violation]:
        """Total net length bounds; with ``only``, just the nets that touch
        that part."""
        out: list[Violation] = []
        by_name = {n.name: n for n in self.problem.nets}
        for rule in self.problem.rules.net_lengths:
            net = by_name.get(rule.net)
            if net is None or (only is not None and only not in net.refdes_set()):
                continue
            length = net_hpwl(self.problem, net)
            if length > rule.max_length:
                refs = tuple(sorted(net.refdes_set()))
                first = self.problem.components.get(refs[0]) if refs else None
                loc = first.center() if first is not None and first.is_placed else Vec2.zero()
                out.append(
                    Violation(
                        "net_length",
                        refs,
                        rule.max_length,
                        length,
                        loc,
                        f"net {rule.net!r} length {length * 1e3:.1f} mm "
                        f"> {rule.max_length * 1e3:.1f} mm",
                    )
                )
        return out

    # -- aggregate interfaces -------------------------------------------------

    def _walk(self, only: str | None) -> list[Violation]:
        """Every rule category, concatenated; with ``only``, each category
        keeps just the violations that involve that part."""
        get_tracer().count("placement.drc_checks")
        return (
            self.check_body_spacing(only)
            + self.check_min_distances(only)
            + self.check_keepin(only)
            + self.check_keepouts(only)
            + self.check_groups(only)
            + self.check_net_lengths(only)
        )

    def check_all(self) -> list[Violation]:
        """Every rule category, concatenated."""
        with get_tracer().span("placement.drc.check_all"):
            return self._walk(None)

    def check_component(self, refdes: str) -> list[Violation]:
        """The online DRC for one (moved) component: exactly the violations
        of :meth:`check_all` whose ``refs`` include ``refdes``, in the same
        order."""
        return self._walk(refdes)

    def is_legal(self) -> bool:
        """True when the layout satisfies every rule."""
        return not self.check_all()

    def rule_markers(self) -> list[RuleMarker]:
        """One circle per applicable min-distance rule — the red/green
        Fig. 15/17 data."""
        return [
            RuleMarker(rule.ref_a, rule.ref_b, midpoint, emd, distance)
            for rule, emd, distance, midpoint in self.problem.rule_distances()
        ]
