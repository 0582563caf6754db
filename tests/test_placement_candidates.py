"""Unit tests for the placer's candidate-location generation."""

import math

import numpy as np
import pytest

from repro.converters import BuckConverterDesign, build_demo_board
from repro.geometry import Placement2D, Polygon2D, Rect, Vec2
from repro.placement import AutoPlacer, PlacementArea
from repro.placement.placer import _erosion_margin

from area_samples_oracle import samples_of
from conftest import build_small_problem


def candidates(placer, comp, rotation=0.0, spacing=6e-3, partners=()):
    """The candidates of one search, its obstacles taken from the placed set."""
    obstacles, clearances = placer._obstacles(comp)
    return placer._candidates(comp, rotation, spacing, obstacles, clearances, list(partners))


def footprint(comp, rotation, x, y):
    half = comp.component.half_extent(rotation)
    return Rect(x - half.x, y - half.y, x + half.x, y + half.y)


class TestGenerators:
    def test_area_candidates_inside_board(self):
        problem = build_small_problem()
        xy = candidates(AutoPlacer(problem), problem.components["C1"])
        assert len(xy)
        outline = problem.board(0).outline
        inside = sum(1 for x, y in xy.tolist() if outline.contains_point(Vec2(x, y)))
        assert inside / len(xy) > 0.9

    def test_corner_candidates_only_with_obstacles(self):
        problem = build_small_problem()
        placer = AutoPlacer(problem)
        comp = problem.components["C1"]
        bare = candidates(placer, comp)
        # Without obstacles or partners every candidate is an area sample.
        samples = {tuple(p) for s in placer._area_samples.values() for p in s.tolist()}
        assert {tuple(p) for p in bare.tolist()} <= samples
        problem.components["C2"].placement = Placement2D.at(0.04, 0.03)
        assert len(candidates(placer, comp)) > len(bare)

    def test_corner_candidates_clear_the_obstacle(self):
        problem = build_small_problem()
        problem.components["C2"].placement = Placement2D.at(0.04, 0.03)
        placer = AutoPlacer(problem)
        comp, other = problem.components["C1"], problem.components["C2"]
        obstacle = other.footprint_aabb()
        clearance = problem.clearance_between(comp, other)
        corners = candidates(placer, comp)[:8]
        # Corners counter-clockwise from (xmin, ymin), then edge midpoints.
        half = comp.component.half_extent(0.0)
        rect = obstacle.inflated(max(half.x, half.y) + clearance + 1e-4)
        xm, ym = (rect.xmin + rect.xmax) / 2.0, (rect.ymin + rect.ymax) / 2.0
        expected = [[p.x, p.y] for p in rect.corners()]
        expected += [[rect.xmin, ym], [rect.xmax, ym], [xm, rect.ymin], [xm, rect.ymax]]
        assert corners.tolist() == expected
        for x, y in corners.tolist():
            body = footprint(comp, 0.0, x, y)
            assert not body.overlaps(obstacle)
            assert body.separation(obstacle) >= clearance

    def test_ring_candidates_on_circle(self):
        problem = build_small_problem()
        center, emd = Vec2(0.04, 0.03), 0.025
        xy = candidates(AutoPlacer(problem), problem.components["C1"], partners=[(center, emd)])
        radius = emd * 1.02 + 1e-4
        ring = xy[:16].tolist()
        assert ring == [
            [p.x, p.y]
            for p in (center + Vec2.from_polar(radius, 2.0 * math.pi * i / 16) for i in range(16))
        ]
        for x, y in ring:
            assert abs(Vec2(x, y).distance_to(center) - radius) < 1e-9

    def test_all_candidates_deduplicated(self):
        problem = build_small_problem()
        problem.components["C2"].placement = Placement2D.at(0.04, 0.03)
        placer = AutoPlacer(problem)
        comp = problem.components["C1"]
        xy = candidates(placer, comp, partners=[(Vec2(0.04, 0.03), 0.03)])
        keys = {(round(x / 5e-4), round(y / 5e-4)) for x, y in xy.tolist()}
        assert len(keys) == len(xy)

    def test_deduplication_keeps_the_first_point(self):
        # A zero-EMD partner's 16 ring points (radius 0.1 mm) share one
        # 0.5 mm lattice cell: only the first, at angle 0, survives.
        problem = build_small_problem()
        center = Vec2(0.04, 0.03)
        xy = candidates(AutoPlacer(problem), problem.components["C1"], partners=[(center, 0.0)])
        assert xy[0].tolist() == [center.x + 1e-4, center.y]
        cell = np.rint(xy / 5e-4) == np.rint(xy[0] / 5e-4)
        assert cell.all(axis=1).sum() == 1

    def test_preferred_area_first(self):
        problem = build_small_problem()
        board = problem.board(0)
        board.areas.append(PlacementArea("l", Polygon2D.rectangle(0, 0, 0.04, 0.06)))
        board.areas.append(PlacementArea("r", Polygon2D.rectangle(0.04, 0, 0.08, 0.06)))
        comp = problem.components["C1"]
        comp.preferred_area = "r"
        xy = candidates(AutoPlacer(problem), comp)
        # The first candidates come from the preferred area ...
        assert xy[0][0] >= 0.04 - 1e-9
        # ... and the board's own area order is left alone.
        assert [a.name for a in board.areas] == ["l", "r"]


BUILDS = pytest.mark.parametrize(
    "build",
    [lambda: BuckConverterDesign().placement_problem(), build_demo_board, build_small_problem],
    ids=["buck", "demo_board", "small"],
)


class TestAreaSampleMemo:
    """A placer samples each area once per margin; its candidates stay those
    of a fresh one, and a run's batch fill equals the lazy fill."""

    @pytest.mark.parametrize(
        "build",
        [lambda: BuckConverterDesign().placement_problem(), build_demo_board],
        ids=["buck", "demo_board"],
    )
    def test_reused_generator_equals_fresh(self, build, monkeypatch):
        problem = build()
        reused = AutoPlacer(problem)

        def sweep(check):
            # Both spacings, on one placer as its searches do.
            for spacing in (6e-3, 3e-3):
                for comp in problem.components.values():
                    for rotation in comp.rotations():
                        got = candidates(reused, comp, rotation, spacing)
                        if check:
                            fresh = candidates(AutoPlacer(problem), comp, rotation, spacing)
                            assert np.array_equal(got, fresh)

        sweep(check=True)
        passes = []
        sample = Polygon2D.area_samples

        def counted(polygon, margins, spacing):
            passes.append(margins)
            return sample(polygon, margins, spacing)

        monkeypatch.setattr(Polygon2D, "area_samples", counted)
        sweep(check=False)
        assert passes == []

    @BUILDS
    def test_batch_fill_equals_lazy_fill(self, build, monkeypatch):
        # Every search of a full run reads the same candidates from the
        # run's batch-filled memo as a fresh placer computes set by set,
        # and each part's first search finds all its sets already filled.
        problem = build()
        searched = AutoPlacer._candidates
        searches, first = [], set()

        def checked(placer, comp, rotation, spacing, obstacles, clearances, partners):
            margin = _erosion_margin(comp, rotation)
            keys = [(area.polygon, margin, spacing) for area in problem.allowed_areas(comp)]
            if comp.refdes not in first:
                first.add(comp.refdes)
                assert all(key in placer._area_samples for key in keys)
            got = searched(placer, comp, rotation, spacing, obstacles, clearances, partners)
            lazy = AutoPlacer(problem)
            want = searched(lazy, comp, rotation, spacing, obstacles, clearances, partners)
            assert got.tobytes() == want.tobytes()
            for key in keys:
                assert placer._area_samples[key].tobytes() == lazy._area_samples[key].tobytes()
            searches.append(comp.refdes)
            return got

        monkeypatch.setattr(AutoPlacer, "_candidates", checked)
        AutoPlacer(problem).run()
        assert first == set(problem.components) and len(searches) >= len(first)

    @BUILDS
    def test_one_pass_per_area(self, build, monkeypatch):
        problem = build()
        passes = []
        sample = Polygon2D.area_samples

        def counted(polygon, margins, spacing):
            passes.append((polygon, len(margins)))
            return sample(polygon, margins, spacing)

        monkeypatch.setattr(Polygon2D, "area_samples", counted)
        AutoPlacer(problem).run()
        areas = {a.polygon for c in problem.components.values() for a in problem.allowed_areas(c)}
        batch = passes[: len(areas)]
        assert {polygon for polygon, _ in batch} == areas
        # Later passes are one margin each: searches the first rotation did not predict.
        assert all(count == 1 for _, count in passes[len(areas) :])


def scalar_candidates(problem, comp, rotation, spacing, partners):
    """The per-object loops the array generator replaced, kept as its reference."""
    half = comp.component.half_extent(rotation)
    margin = max(half.x, half.y)
    points = []
    for other in problem.placed():
        if other.board != comp.board or other.refdes == comp.refdes:
            continue
        rect = other.footprint_aabb().inflated(
            margin + problem.clearance_between(comp, other) + 1e-4
        )
        xm, ym = (rect.xmin + rect.xmax) / 2.0, (rect.ymin + rect.ymax) / 2.0
        points += rect.corners()
        points += [Vec2(rect.xmin, ym), Vec2(rect.xmax, ym), Vec2(xm, rect.ymin), Vec2(xm, rect.ymax)]
    for center, emd in partners:
        radius = emd * 1.02 + 1e-4
        points += [center + Vec2.from_polar(radius, 2.0 * math.pi * i / 16) for i in range(16)]
    areas = problem.allowed_areas(comp)
    preferred = [a for a in areas if a.name == comp.preferred_area]
    for area in preferred + [a for a in areas if a.name != comp.preferred_area]:
        points += [Vec2(x, y) for x, y in samples_of(area.polygon, margin, spacing).tolist()]
    kept, seen = [], set()
    for p in points:
        key = (round(p.x / 5e-4), round(p.y / 5e-4))  # half-to-even, like np.rint
        if key not in seen:
            seen.add(key)
            kept.append([p.x, p.y])
    return kept


class TestScalarReference:
    """Every search of a full placement run equals the per-object loops."""

    @BUILDS
    def test_every_search_equals_the_object_loops(self, build, monkeypatch):
        problem = build()
        searched = AutoPlacer._candidates
        rings = []

        def checked(placer, comp, rotation, spacing, obstacles, clearances, partners):
            got = searched(placer, comp, rotation, spacing, obstacles, clearances, partners)
            assert got.tolist() == scalar_candidates(problem, comp, rotation, spacing, partners)
            rings.append(len(partners))
            return got

        monkeypatch.setattr(AutoPlacer, "_candidates", checked)
        AutoPlacer(problem).run()
        assert len(rings) >= len(problem.components)
        assert any(rings) == bool(problem.rules.min_distance)
