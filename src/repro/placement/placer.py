"""Step 3 of the automatic method: sequential prioritised placement.

Paper, section 4: *"Based on a design rule depending prioritization of the
components, they are placed on board sequentially"*, on the continuous
plane, with all objects rectilinearly approximated by rectangles/cuboids.

The placer consumes the rotation plan (step 1) and the board partition
(step 2), orders components by *rule pressure* (how much minimum-distance
budget and area they demand), and for each component scores the legal
candidates by a weighted mix of wirelength, group cohesion and packing
compactness.

Candidates come from three generators on the continuous plane: corners of
the placed obstacles inflated by the part's half-extent plus clearance
(tight packing), rings of radius EMD around placed rule partners (*just
barely far enough*) and samples of the eroded placement areas (sparse boards).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..geometry import EPS, Placement2D, Polygon2D, Rect, Vec2
from ..obs import get_tracer
from ..rules import MinDistanceRule, emd_between_axes, emd_floor
from .drc import DesignRuleChecker
from .metrics import member_centroid, pad_offset, pin_position, total_wirelength
from .model import EMD_TOLERANCE, Net, PlacedComponent, PlacementError, PlacementProblem
from .partition import Partitioner
from .rotation import RotationOptimizer, RotationPlan

__all__ = ["BOUNDARY_SPACING", "PlacerWeights", "PlacementReport", "AutoPlacer"]

#: Boundary-sample spacing of the area candidates [m]; a part with no
#: legal position at any rotation is searched again at half of it.
BOUNDARY_SPACING = 6e-3

#: Candidates closer than this lattice pitch are duplicates [m].
_LATTICE = 0.5e-3

#: Unit vectors of the 16 ring candidates around a rule partner, as
#: ``Vec2.from_polar`` builds them.
_RING = np.array(
    [(math.cos(a), math.sin(a)) for a in (2.0 * math.pi * i / 16 for i in range(16))]
)


@dataclass(frozen=True)
class PlacerWeights:
    """Scoring weights for candidate evaluation (all costs in metres)."""

    wirelength: float = 1.0
    group_cohesion: float = 2.0
    compactness: float = 0.3
    emd_margin: float = 0.1


@dataclass
class PlacementReport:
    """Outcome of one automatic placement run."""

    placed_count: int
    runtime_s: float
    rotation_plan: RotationPlan | None
    order: list[str] = field(default_factory=list)
    violations_after: int = 0
    wirelength: float = 0.0
    failed: list[str] = field(default_factory=list)

    @property
    def legal(self) -> bool:
        """True when every component was placed and the DRC is clean."""
        return not self.failed and self.violations_after == 0


class AutoPlacer:
    """The three-step automatic placement method of the paper.

    Args:
        problem: the placement problem (mutated in place).
        optimize_rotation: run step 1 (optimal rotation).
        partition: run step 2 (only meaningful with two boards).
        respect_min_distance: enforce the EMC rules during placement;
            the EMI-unaware baseline sets this False (same engine, rules
            ignored — the paper's Fig. 1 situation).
        weights: candidate scoring weights.
    """

    def __init__(
        self,
        problem: PlacementProblem,
        optimize_rotation: bool = True,
        partition: bool = False,
        respect_min_distance: bool = True,
        weights: PlacerWeights | None = None,
    ):
        self.problem = problem
        self.optimize_rotation = optimize_rotation
        self.partition = partition
        self.respect_min_distance = respect_min_distance
        self.weights = weights or PlacerWeights()
        # Area samples keyed by (area polygon, erosion margin, spacing):
        # ``run`` fills the sets its searches will ask for in one pass per
        # area, and a search computes any other set once, on first use.
        self._area_samples: dict[tuple[Polygon2D, float, float], np.ndarray] = {}

    # -- public API ----------------------------------------------------------

    def run(self) -> PlacementReport:
        """Execute rotation -> partition -> sequential placement.

        The report's ``runtime_s`` covers the full three-step method
        (rotation plan, partition and sequential placement, plus the final
        DRC pass) and is sourced from the ``placement.run`` span when
        tracing is enabled.

        Raises:
            PlacementError: when some component finds no legal location
                even after refinement (the report inside the exception
                message lists the culprits).
        """
        tracer = get_tracer()
        t0 = time.perf_counter()
        with tracer.span("placement.run") as run_span:
            rotation_plan: RotationPlan | None = None
            if self.optimize_rotation and self.respect_min_distance:
                with tracer.span("placement.rotation"):
                    rotation_plan = RotationOptimizer(self.problem).optimize()

            if self.partition and len(self.problem.boards) == 2:
                with tracer.span("placement.partition"):
                    Partitioner(self.problem).run()

            with tracer.span("placement.sequential"):
                order = self._priority_order()
                self._sample_areas([self.problem.components[ref] for ref in order], rotation_plan)
                failed: list[str] = []
                for ref in order:
                    comp = self.problem.components[ref]
                    if comp.is_placed:
                        continue
                    if not self._place_one(comp, rotation_plan):
                        failed.append(ref)

            if failed:
                raise PlacementError(
                    f"no legal location found for: {', '.join(failed)} "
                    f"(placed {len(self.problem.placed())} of "
                    f"{len(self.problem.components)})"
                )

            with tracer.span("placement.final_drc"):
                violations = DesignRuleChecker(self.problem).check_all()
                if not self.respect_min_distance:
                    violations = [v for v in violations if v.kind != "min_distance"]
            tracer.count("placement.components_placed", len(self.problem.placed()))
        runtime = run_span.elapsed_s
        if runtime is None:  # null tracer: measure directly
            runtime = time.perf_counter() - t0
        return PlacementReport(
            placed_count=len(self.problem.placed()),
            runtime_s=runtime,
            rotation_plan=rotation_plan,
            order=order,
            violations_after=len(violations),
            wirelength=total_wirelength(self.problem),
        )

    # -- ordering ------------------------------------------------------------

    def _priority_order(self) -> list[str]:
        """Design-rule-driven prioritisation, groups kept contiguous."""
        problem = self.problem

        def pressure(ref: str) -> float:
            comp = problem.components[ref]
            rule_budget = sum(
                r.pemd for r in problem.rules.rules_involving(ref)
            ) if self.respect_min_distance else 0.0
            return (
                rule_budget * 10.0
                + comp.component.footprint_area() * 1e3
                + len(problem.nets_touching(ref)) * 1e-3
            )

        unplaced = [c.refdes for c in problem.unplaced()]
        by_pressure = sorted(unplaced, key=pressure, reverse=True)

        # Pull whole groups forward to where their strongest member sits.
        order: list[str] = []
        seen: set[str] = set()
        for ref in by_pressure:
            if ref in seen:
                continue
            comp = problem.components[ref]
            block = [ref]
            if comp.group is not None:
                members = [
                    m.refdes
                    for m in problem.group_members(comp.group)
                    if not m.is_placed and m.refdes not in seen
                ]
                block = sorted(members, key=pressure, reverse=True)
            for r in block:
                order.append(r)
                seen.add(r)
        return order

    # -- single-component placement ----------------------------------------

    def _partner_rules(self, ref: str) -> list[MinDistanceRule]:
        if not self.respect_min_distance:
            return []
        return self.problem.rules.rules_involving(ref)

    @staticmethod
    def _rotations(comp: PlacedComponent, plan: RotationPlan | None) -> list[float]:
        """The rotations ``_place_one`` tries, the planned one first."""
        rotations = list(comp.rotations())
        if plan is not None and comp.refdes in plan.rotations_deg:
            preferred = plan.rotations_deg[comp.refdes]
            if preferred in rotations:
                rotations.remove(preferred)
            rotations.insert(0, preferred)
        return rotations

    def _sample_areas(self, comps: list[PlacedComponent], plan: RotationPlan | None) -> None:
        """Fill the area-sample memo for the first search of each part.

        That search erodes each allowed area by the part's
        :func:`_erosion_margin` at its first rotation, at
        ``BOUNDARY_SPACING``.  The margins of all parts are gathered per
        area polygon and eroded in one :meth:`Polygon2D.area_samples` pass.
        """
        margins: dict[Polygon2D, set[float]] = {}
        for comp in comps:
            for rotation in self._rotations(comp, plan)[:1]:
                margin = _erosion_margin(comp, rotation)
                for area in self.problem.allowed_areas(comp):
                    margins.setdefault(area.polygon, set()).add(margin)
        with get_tracer().span("placement.area_samples"):
            for polygon, wanted in margins.items():
                batch = sorted(wanted)
                for margin, samples in zip(
                    batch, polygon.area_samples(batch, BOUNDARY_SPACING), strict=True
                ):
                    self._area_samples[polygon, margin, BOUNDARY_SPACING] = samples

    def _place_one(self, comp: PlacedComponent, plan: RotationPlan | None) -> bool:
        rotations = self._rotations(comp, plan)
        for spacing in (BOUNDARY_SPACING, BOUNDARY_SPACING * 0.5):
            for rotation in rotations:
                best = self.best_candidate(comp, rotation, spacing)
                if best is not None:
                    comp.placement = Placement2D(best, math.radians(rotation))
                    return True
        return False

    def best_candidate(
        self,
        comp: PlacedComponent,
        rotation_deg: float,
        spacing: float,
        z_offset: float = 0.0,
    ) -> Vec2 | None:
        """The lowest-cost legal centre for ``comp`` at a rotation, or None.

        ``comp`` itself is left out of the obstacles, the placed-set and
        group centroids, so a placed part is searched for as if lifted,
        without touching its placement.  Area candidates are
        sampled every ``spacing`` metres along the allowed areas' eroded
        boundaries.  Every candidate is tested at once: area containment,
        clearance to placed footprints, 3-D keepouts for a body starting at
        ``z_offset`` (0 for a new placement; a moved part keeps its own)
        and EMD to placed rule partners.  The cost is then evaluated over
        the legal candidates only; ties go to the first candidate in
        generator order.
        """
        tracer = get_tracer()
        with tracer.span("placement.score"):
            obstacles, clearances = self._obstacles(comp)
            partners = self._partner_emds(comp, rotation_deg)
            xy = self._candidates(comp, rotation_deg, spacing, obstacles, clearances, partners)
            tracer.count("placement.candidates_scored", len(xy))

            legal = self._legal_mask(
                comp, xy, comp.component.half_extent(rotation_deg), z_offset, obstacles, clearances
            )
            xy = xy[legal]
            x, y = xy[:, 0], xy[:, 1]
            margin = np.full(len(xy), math.inf)
            for center, emd in partners:
                d = _distances(x, y, center)
                keep = d + EMD_TOLERANCE >= emd
                margin = np.minimum(margin[keep], d[keep] - emd)
                x, y = x[keep], y[keep]
            tracer.count("placement.candidates_legal", len(x))
            if len(x) == 0:
                return None
            best = int(np.argmin(self._costs(comp, x, y, margin)))
            return Vec2(float(x[best]), float(y[best]))

    def _obstacles(self, comp: PlacedComponent) -> tuple[np.ndarray, np.ndarray]:
        """The footprint bounds (n, 4) of the other placed parts on ``comp``'s
        board and their clearances (n,) to ``comp``."""
        others = [
            other
            for other in self.problem.placed()
            if other.board == comp.board and other.refdes != comp.refdes
        ]
        clearances = [self.problem.clearance_between(comp, other) for other in others]
        return _bounds([other.footprint_aabb() for other in others]), np.array(clearances)

    def _candidates(
        self,
        comp: PlacedComponent,
        rotation_deg: float,
        spacing: float,
        obstacles: np.ndarray,
        clearances: np.ndarray,
        partners: list[tuple[Vec2, float]],
    ) -> np.ndarray:
        """Candidate centres as an (M, 2) array, deduplicated on the 0.5 mm
        lattice (first occurrence kept), in generator order: for each obstacle
        row, inflated by the larger half-extent plus its clearance and 0.1 mm,
        its 4 corners counter-clockwise from (xmin, ymin), then its 4 edge
        midpoints; 16 points at 1.02 EMD + 0.1 mm around each (centre, EMD)
        partner; then the eroded allowed areas' samples (boundary every
        ``spacing`` metres), the preferred area first."""
        margin = _erosion_margin(comp, rotation_deg)
        grow = margin + clearances + 1e-4
        x0, y0 = obstacles[:, 0] - grow, obstacles[:, 1] - grow
        x1, y1 = obstacles[:, 2] + grow, obstacles[:, 3] + grow
        xm, ym = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        corners = np.stack([x0, y0, x1, y0, x1, y1, x0, y1, x0, ym, x1, ym, xm, y0, xm, y1], axis=1)

        centres = np.array([(c.x, c.y) for c, _ in partners]).reshape(-1, 1, 2)
        radii = np.array([emd for _, emd in partners]) * 1.02 + 1e-4
        rings = centres + radii[:, None, None] * _RING

        areas = sorted(
            self.problem.allowed_areas(comp), key=lambda area: area.name != comp.preferred_area
        )
        memo, samples = self._area_samples, []
        for area in areas:
            key = (area.polygon, margin, spacing)
            if key not in memo:
                with get_tracer().span("placement.area_samples"):
                    memo[key] = area.polygon.area_samples([margin], spacing)[0]
            samples.append(memo[key])

        xy = np.concatenate([corners.reshape(-1, 2), rings.reshape(-1, 2), *samples])
        # Half-to-even rounding to lattice indices (which also merge -0.0
        # and 0.0), packed into one int64 key per point (|index| < 2**31,
        # i.e. within 1000 km of the origin).
        cells = np.rint(xy / _LATTICE).astype(np.int64)
        _, first = np.unique(cells[:, 0] * 2**32 + cells[:, 1], return_index=True)
        return xy[np.sort(first)]

    def _partner_emds(self, comp: PlacedComponent, rotation_deg: float) -> list[tuple[Vec2, float]]:
        """(centre, EMD) of each placed rule partner on the same board."""
        axis = comp.component.magnetic_axis_world(
            Placement2D(Vec2.zero(), math.radians(rotation_deg))
        )
        out: list[tuple[Vec2, float]] = []
        for rule in self._partner_rules(comp.refdes):
            other_ref = rule.ref_b if rule.ref_a == comp.refdes else rule.ref_a
            other = self.problem.components.get(other_ref)
            if other is None or not other.is_placed or other.board != comp.board:
                continue
            floor = emd_floor(comp.component, other.component, rule.residual)
            emd = emd_between_axes(axis, other.axis_world(), rule.pemd, floor)
            out.append((other.center(), emd))
        return out

    def _legal_mask(
        self,
        comp: PlacedComponent,
        xy: np.ndarray,
        half: Vec2,
        z_offset: float,
        obstacles: np.ndarray,
        clearances: np.ndarray,
    ) -> np.ndarray:
        """Which candidate footprints lie in an allowed area, keep their
        clearance to every obstacle and miss every keepout that blocks a
        body starting at ``z_offset``."""
        x, y = xy[:, 0], xy[:, 1]
        x0, y0, x1, y1 = x - half.x, y - half.y, x + half.x, y + half.y
        legal = np.zeros(len(xy), dtype=bool)
        for area in self.problem.allowed_areas(comp):
            legal |= area.polygon.contains_rects(x0, y0, x1, y1)
        height = comp.component.body_height
        keepouts = self.problem.board(comp.board).keepouts
        blockers = _bounds([k.cuboid.rect for k in keepouts if k.blocks(z_offset, height)])
        # Placed parts keep their clearance; keepouts only must not be overlapped.
        margins = np.concatenate([clearances, np.zeros(len(blockers))])
        legal &= ~_overlaps_any((x0, y0, x1, y1), np.concatenate([obstacles, blockers]), margins)
        return legal

    def _costs(
        self, comp: PlacedComponent, x: np.ndarray, y: np.ndarray, emd_margin: np.ndarray
    ) -> np.ndarray:
        """Cost of each candidate centre [m]; lower is better."""
        problem = self.problem
        w = self.weights
        cost = np.zeros(len(x))

        # Wirelength: HPWL of the touching nets with the part at each
        # candidate, unrotated; the other parts' pins stay where they are.
        if problem.nets:
            wirelength = np.zeros(len(x))
            for net in problem.nets_touching(comp.refdes):
                wirelength = wirelength + _net_hpwl(problem, net, comp, x, y)
            cost = cost + w.wirelength * wirelength

        # Group cohesion: stay near the centroid of the group's other placed members.
        if comp.group is not None:
            centroid = member_centroid(
                [c for c in problem.group_members(comp.group) if c.is_placed and c is not comp]
            )
            if centroid is not None:
                cost = cost + w.group_cohesion * _distances(x, y, centroid)

        # Compactness: stay near the placed-set centroid (or area centroid).
        cost = cost + w.compactness * _distances(x, y, self._anchor(comp))

        # Slight preference for EMD slack (robustness against later moves).
        return np.where(
            np.isfinite(emd_margin), cost - w.emd_margin * np.minimum(emd_margin, 5e-3), cost
        )

    def _anchor(self, comp: PlacedComponent) -> Vec2:
        centroid = member_centroid(
            [c for c in self.problem.placed() if c.board == comp.board and c is not comp]
        )
        if centroid is not None:
            return centroid
        return self.problem.allowed_areas(comp)[0].polygon.centroid()


def _distances(x: np.ndarray, y: np.ndarray, point: Vec2) -> np.ndarray:
    """``Vec2.distance_to(point)`` of every (x, y).

    Evaluated with ``math.hypot`` so that every distance is bit-identical to
    the scalar geometry the DRC uses; ``np.hypot`` rounds differently in
    about 0.6 % of cases.
    """
    dx = (x - point.x).tolist()
    dy = (y - point.y).tolist()
    return np.fromiter(map(math.hypot, dx, dy), dtype=float, count=len(dx))


def _bounds(rects: list[Rect]) -> np.ndarray:
    """The rectangles as an (n, 4) array of xmin, ymin, xmax, ymax."""
    return np.array([(r.xmin, r.ymin, r.xmax, r.ymax) for r in rects], dtype=float).reshape(-1, 4)


def _erosion_margin(comp: PlacedComponent, rotation_deg: float) -> float:
    """The part's larger half-extent at the rotation: the margin its search
    erodes the allowed areas by, and the area-sample memo key's margin."""
    half = comp.component.half_extent(rotation_deg)
    return max(half.x, half.y)


def _overlaps_any(
    rects: tuple[np.ndarray, ...], others: np.ndarray, margins: np.ndarray
) -> np.ndarray:
    """Which of the rectangles (xmin, ymin, xmax, ymax arrays), each grown by
    its margin to each row of ``others`` (an (n, 4) bounds array, one margin
    per row), overlap the interior of any of ``others`` (``Rect.overlaps``
    with its EPS)."""
    x0, y0, x1, y1 = (r[:, None] for r in rects)
    x0, y0 = x0 - margins, y0 - margins
    x1, y1 = np.maximum(x1 + margins, x0), np.maximum(y1 + margins, y0)
    ox0, oy0, ox1, oy1 = others.T
    apart = (x1 <= ox0 + EPS) | (ox1 <= x0 + EPS) | (y1 <= oy0 + EPS) | (oy1 <= y0 + EPS)
    return ~apart.all(axis=1)


def _net_hpwl(
    problem: PlacementProblem, net: Net, comp: PlacedComponent, x: np.ndarray, y: np.ndarray
) -> np.ndarray | float:
    """``net_hpwl`` of one net with ``comp`` unrotated at each (x, y)."""
    fixed = [
        p
        for p in (pin_position(problem, ref, pad) for ref, pad in net.pins if ref != comp.refdes)
        if p is not None
    ]
    offsets = [pad_offset(comp.component, pad) for ref, pad in net.pins if ref == comp.refdes]
    if len(fixed) + len(offsets) < 2:
        return 0.0
    xs = np.array([x + o.x for o in offsets] + [np.full(len(x), p.x) for p in fixed])
    ys = np.array([y + o.y for o in offsets] + [np.full(len(y), p.y) for p in fixed])
    return (xs.max(axis=0) - xs.min(axis=0)) + (ys.max(axis=0) - ys.min(axis=0))
