"""Unit tests for candidate-location generation."""

import numpy as np
import pytest

from repro.converters import BuckConverterDesign, build_demo_board
from repro.geometry import Placement2D, Polygon2D, Vec2
from repro.placement import CandidateGenerator

from conftest import build_small_problem


class TestGenerators:
    def test_area_candidates_inside_board(self):
        problem = build_small_problem()
        gen = CandidateGenerator(problem)
        comp = problem.components["C1"]
        candidates = gen.area_candidates(comp, rotation_deg=0.0, spacing=6e-3)
        assert candidates
        outline = problem.board(0).outline
        inside = sum(1 for p in candidates if outline.contains_point(p))
        assert inside / len(candidates) > 0.9

    def test_corner_candidates_only_with_obstacles(self):
        problem = build_small_problem()
        gen = CandidateGenerator(problem)
        comp = problem.components["C1"]
        assert gen.corner_candidates(comp, 0.0) == []
        problem.components["C2"].placement = Placement2D.at(0.04, 0.03)
        assert gen.corner_candidates(comp, 0.0)

    def test_corner_candidates_clear_the_obstacle(self):
        problem = build_small_problem()
        problem.components["C2"].placement = Placement2D.at(0.04, 0.03)
        gen = CandidateGenerator(problem)
        comp = problem.components["C1"]
        obstacle = problem.components["C2"].footprint_aabb()
        half_w = comp.component.footprint_w / 2.0
        half_h = comp.component.footprint_h / 2.0
        for p in gen.corner_candidates(comp, 0.0):
            rect = obstacle  # candidate centres sit outside the inflation
            assert not (
                rect.xmin < p.x < rect.xmax and rect.ymin < p.y < rect.ymax
            ) or (half_w == 0 and half_h == 0)

    def test_ring_candidates_on_circle(self):
        problem = build_small_problem()
        gen = CandidateGenerator(problem)
        comp = problem.components["C1"]
        center = Vec2(0.04, 0.03)
        candidates = gen.ring_candidates(comp, [(center, 0.025)], points=8)
        assert len(candidates) == 8
        for p in candidates:
            assert abs(p.distance_to(center) - 0.025) < 1e-9

    def test_ring_skips_nonpositive_radius(self):
        problem = build_small_problem()
        gen = CandidateGenerator(problem)
        comp = problem.components["C1"]
        assert gen.ring_candidates(comp, [(Vec2(0, 0), 0.0)]) == []

    def test_all_candidates_deduplicated(self):
        problem = build_small_problem()
        problem.components["C2"].placement = Placement2D.at(0.04, 0.03)
        gen = CandidateGenerator(problem)
        comp = problem.components["C1"]
        candidates = gen.candidate_array(comp, 0.0, 6e-3, [(Vec2(0.04, 0.03), 0.03)])
        keys = {(round(x / 5e-4), round(y / 5e-4)) for x, y in candidates.tolist()}
        assert len(keys) == len(candidates)

    def test_preferred_area_first(self):
        from repro.placement import PlacementArea
        from repro.geometry import Polygon2D

        problem = build_small_problem()
        board = problem.board(0)
        board.areas.append(PlacementArea("l", Polygon2D.rectangle(0, 0, 0.04, 0.06)))
        board.areas.append(PlacementArea("r", Polygon2D.rectangle(0.04, 0, 0.08, 0.06)))
        comp = problem.components["C1"]
        comp.preferred_area = "r"
        gen = CandidateGenerator(problem)
        candidates = gen.area_candidates(comp, 0.0, 6e-3)
        # The first candidates come from the preferred area.
        assert candidates[0].x >= 0.04 - 1e-9


class TestAreaSampleMemo:
    """A generator erodes each area once; its candidates stay those of a fresh one."""

    @pytest.mark.parametrize(
        "build",
        [lambda: BuckConverterDesign().placement_problem(), build_demo_board],
        ids=["buck", "demo_board"],
    )
    def test_reused_generator_equals_fresh(self, build, monkeypatch):
        problem = build()
        reused = CandidateGenerator(problem)

        def sweep(check):
            # Both spacings, on one generator as the placer does.
            for spacing in (6e-3, 3e-3):
                for comp in problem.components.values():
                    for rotation in comp.rotations():
                        got = reused.candidate_array(comp, rotation, spacing)
                        if check:
                            fresh = CandidateGenerator(problem).candidate_array(
                                comp, rotation, spacing
                            )
                            assert np.array_equal(got, fresh)

        sweep(check=True)
        erosions = []
        eroded = Polygon2D.eroded

        def counted(polygon, margin):
            erosions.append(margin)
            return eroded(polygon, margin)

        monkeypatch.setattr(Polygon2D, "eroded", counted)
        sweep(check=False)
        assert erosions == []
