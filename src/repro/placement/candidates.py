"""Candidate-location generation on the continuous plane.

The paper's placer works *"on the continuous plane (no grid placement)"*;
legal locations are found by combining several generators, each aimed at a
different packing situation:

* **corner candidates** — the corners of already-placed obstacles, inflated
  by the new part's half-extents plus clearance: the classic
  bottom-left-fill positions that produce tight packings;
* **ring candidates** — points on circles of radius EMD (+margin) around
  the new part's rule partners: *just barely far enough*, which keeps
  EMC-constrained parts as close as the rules allow;
* **area candidates** — eroded-boundary and coarse interior samples of the
  placement area, covering the empty-board and sparse cases.
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry import Polygon2D, Vec2
from ..obs import get_tracer
from .model import PlacedComponent, PlacementProblem

__all__ = ["CandidateGenerator"]

#: Candidates closer than this lattice pitch are duplicates [m].
_LATTICE = 0.5e-3


class CandidateGenerator:
    """Produces candidate centre positions for one component.

    The area samples of a polygon depend only on its vertices, the
    erosion margin and the boundary spacing, so each set is computed once
    per generator and reused by every later search.
    """

    def __init__(self, problem: PlacementProblem):
        self.problem = problem
        self._area_samples: dict[tuple[tuple[Vec2, ...], float, float], list[Vec2]] = {}

    def _areas_for(self, comp: PlacedComponent) -> list[Polygon2D]:
        """The allowed areas, the preferred one first (generation order)."""
        areas = self.problem.allowed_areas(comp)
        if comp.preferred_area is not None:
            preferred = [a for a in areas if a.name == comp.preferred_area]
            rest = [a for a in areas if a.name != comp.preferred_area]
            areas = preferred + rest
        return [a.polygon for a in areas]

    def corner_candidates(self, comp: PlacedComponent, rotation_deg: float) -> list[Vec2]:
        """Inflated-obstacle corner positions (tight-packing generator)."""
        half = comp.component.half_extent(rotation_deg)
        out: list[Vec2] = []
        for other in self.problem.placed():
            if other.board != comp.board or other.refdes == comp.refdes:
                continue
            clearance = self.problem.clearance_between(comp, other)
            rect = other.footprint_aabb().inflated(
                max(half.x, half.y) + clearance + 1e-4
            )
            out.extend(rect.corners())
            # Edge midpoints help slide along rows of parts.
            out.append(Vec2(rect.xmin, (rect.ymin + rect.ymax) / 2.0))
            out.append(Vec2(rect.xmax, (rect.ymin + rect.ymax) / 2.0))
            out.append(Vec2((rect.xmin + rect.xmax) / 2.0, rect.ymin))
            out.append(Vec2((rect.xmin + rect.xmax) / 2.0, rect.ymax))
        return out

    def ring_candidates(
        self, comp: PlacedComponent, ring_specs: list[tuple[Vec2, float]], points: int = 16
    ) -> list[Vec2]:
        """Points on circles around rule partners (EMD-tight generator).

        Args:
            ring_specs: (centre, radius) pairs, radius already including
                the needed margin.
        """
        out: list[Vec2] = []
        for center, radius in ring_specs:
            if radius <= 0.0:
                continue
            for i in range(points):
                angle = 2.0 * math.pi * i / points
                out.append(center + Vec2.from_polar(radius, angle))
        return out

    def area_candidates(
        self, comp: PlacedComponent, rotation_deg: float, spacing: float
    ) -> list[Vec2]:
        """Boundary (every ``spacing`` metres) and interior samples of the
        allowed areas."""
        half = comp.component.half_extent(rotation_deg)
        margin = max(half.x, half.y)
        out: list[Vec2] = []
        for polygon in self._areas_for(comp):
            key = (tuple(polygon.vertices), margin, spacing)
            samples = self._area_samples.get(key)
            if samples is None:
                samples = self._area_samples[key] = _samples_of(polygon, margin, spacing)
            out.extend(samples)
        return out

    def candidate_array(
        self,
        comp: PlacedComponent,
        rotation_deg: float,
        spacing: float,
        ring_specs: list[tuple[Vec2, float]] | None = None,
    ) -> np.ndarray:
        """The union of all generators as an (M, 2) array of centres,
        deduplicated on a 0.5 mm lattice (first occurrence kept, in
        generator order)."""
        raw = (
            self.corner_candidates(comp, rotation_deg)
            + self.ring_candidates(comp, ring_specs or [])
            + self.area_candidates(comp, rotation_deg, spacing)
        )
        xy = np.array([(p.x, p.y) for p in raw], dtype=float).reshape(-1, 2)
        # Half-to-even rounding to integer keys (which also merge -0.0 and 0.0).
        keys = np.rint(xy / _LATTICE).astype(np.int64)
        _keys, first = np.unique(keys, axis=0, return_index=True)
        out = xy[np.sort(first)]
        get_tracer().count("placement.candidates_generated", len(out))
        return out


def _samples_of(polygon: Polygon2D, margin: float, spacing: float) -> list[Vec2]:
    """Boundary samples, centroid and coarse interior grid of the eroded area."""
    eroded = polygon.eroded(margin)
    target = eroded if eroded is not None else polygon
    out = target.boundary_samples(spacing)
    out.append(target.centroid())
    # Coarse interior grid for sparse boards.
    xmin, ymin, xmax, ymax = target.bbox()
    step = max(spacing * 2.0, (xmax - xmin) / 8.0 or 1e-3)
    out.extend(target.grid_samples(step))
    return out
