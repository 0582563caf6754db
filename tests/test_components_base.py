"""Unit tests for the Component base class contract."""

import math

import pytest

from repro.components import Component, FilmCapacitorX2, Pad, cm_choke_3w, default_library
from repro.geometry import Placement2D, Vec2
from repro.peec import CurrentPath


class TestValidation:
    def test_bad_footprint_rejected(self):
        with pytest.raises(ValueError):
            FilmCapacitorX2(footprint_w=0.0)

    def test_bad_height_rejected(self):
        with pytest.raises(ValueError):
            FilmCapacitorX2(body_height=-1e-3)

    def test_base_without_field_model_raises(self):
        plain = Component("BARE", 5e-3, 5e-3, 2e-3)
        with pytest.raises(NotImplementedError):
            _ = plain.current_path


class TestGeometryAccessors:
    def test_footprint_rect_centred(self, x2_cap):
        r = x2_cap.footprint_rect_local()
        assert r.center().is_close(Vec2.zero())
        assert r.width == pytest.approx(x2_cap.footprint_w)

    def test_footprint_area(self, x2_cap):
        assert x2_cap.footprint_area() == pytest.approx(
            x2_cap.footprint_w * x2_cap.footprint_h
        )

    def test_max_extent_is_diagonal(self, x2_cap):
        assert x2_cap.max_extent() == pytest.approx(
            math.hypot(x2_cap.footprint_w, x2_cap.footprint_h)
        )

    def test_pad_lookup(self, x2_cap):
        assert x2_cap.pad_position("1").x < 0.0
        with pytest.raises(KeyError):
            x2_cap.pad_position("nope")


class TestFieldAccessors:
    def test_current_path_cached(self, x2_cap):
        assert x2_cap.current_path is x2_cap.current_path

    def test_self_inductance_positive(self, x2_cap):
        assert x2_cap.self_inductance > 0.0

    def test_axis_is_unit(self, x2_cap):
        assert x2_cap.magnetic_axis_local().norm() == pytest.approx(1.0)

    def test_world_axis_rotates(self, x2_cap):
        a0 = x2_cap.magnetic_axis_world(Placement2D.at(0, 0, 0))
        a90 = x2_cap.magnetic_axis_world(Placement2D.at(0, 0, 90))
        assert abs(a0.dot(a90)) < 1e-9

    def test_placed_path_translated(self, x2_cap):
        p = Placement2D.at(0.05, 0.02, 0)
        path = x2_cap.placed_current_path(p)
        c = path.centroid()
        assert c.x == pytest.approx(0.05, abs=1e-6)
        assert c.y == pytest.approx(0.02, abs=1e-6)

    def test_inplane_flag(self, x2_cap):
        assert x2_cap.has_inplane_axis()

    def test_decoupling_residual_inplane_is_zero(self, x2_cap):
        assert x2_cap.decoupling_residual == pytest.approx(0.0, abs=1e-6)

    def test_decoupling_residual_cm_choke(self):
        assert cm_choke_3w().decoupling_residual == pytest.approx(0.6)


class TestCachedMagneticAxis:
    @pytest.mark.parametrize("part_number", default_library().part_numbers())
    def test_cache_equals_current_path(self, part_number):
        part = default_library().create(part_number)
        path = part.current_path
        assert part.magnetic_moment_local == path.magnetic_moment()
        assert part.magnetic_axis_local() == path.magnetic_axis()
        assert part.has_inplane_axis() == (
            math.hypot(path.magnetic_axis().x, path.magnetic_axis().y) > 0.3
        )

    def test_moment_computed_once_per_instance(self, monkeypatch):
        calls = []
        original = CurrentPath.magnetic_moment

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(CurrentPath, "magnetic_moment", counting)
        part = FilmCapacitorX2()
        for _ in range(3):
            part.magnetic_axis_local()
            part.magnetic_axis_world(Placement2D.at(0, 0, 90))
            _ = part.decoupling_residual
            part.has_inplane_axis()
            _ = part.magnetic_moment_local
        assert len(calls) == 1
        FilmCapacitorX2().magnetic_axis_local()
        assert len(calls) == 2


class TestPad:
    def test_pad_fields(self):
        pad = Pad("A", Vec2(1e-3, 0.0))
        assert pad.name == "A"
        assert pad.position.x == pytest.approx(1e-3)
