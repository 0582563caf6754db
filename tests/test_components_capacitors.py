"""Unit tests for the capacitor family."""

import pytest
from filament_oracle import unpack
from test_peec_mesh import is_closed_loop

from repro.components import (
    CeramicCapacitor,
    ElectrolyticCapacitor,
    FilmCapacitorX2,
    TantalumCapacitorSMD,
)


ALL_CAPS = [
    FilmCapacitorX2,
    TantalumCapacitorSMD,
    ElectrolyticCapacitor,
    CeramicCapacitor,
]


class TestCatalogueValues:
    @pytest.mark.parametrize("cls", ALL_CAPS)
    def test_positive_values(self, cls):
        cap = cls()
        assert cap.capacitance > 0.0
        assert cap.esr > 0.0
        assert cap.esl > 0.0

    def test_esl_magnitudes_ordered_by_package(self):
        # Bigger packages / longer loops => more ESL.
        mlcc = CeramicCapacitor().esl
        tant = TantalumCapacitorSMD().esl
        film = FilmCapacitorX2().esl
        assert mlcc < tant < film

    def test_esl_nanohenry_range(self):
        # All within the physically expected sub-30 nH window.
        for cls in ALL_CAPS:
            assert 1e-10 < cls().esl < 30e-9

    def test_x2_matches_paper_value(self):
        # The paper's Fig. 5 uses 1.5 uF X capacitors.
        assert FilmCapacitorX2().capacitance == pytest.approx(1.5e-6)

    def test_invalid_capacitance_rejected(self):
        with pytest.raises(ValueError):
            FilmCapacitorX2(capacitance=0.0)

    def test_invalid_loop_rejected(self):
        with pytest.raises(ValueError):
            FilmCapacitorX2(loop_height=0.0)


class TestFieldModel:
    @pytest.mark.parametrize("cls", ALL_CAPS)
    def test_loop_is_closed_rectangle(self, cls):
        path = cls().current_path
        assert len(path) == 4
        assert is_closed_loop(path)

    @pytest.mark.parametrize("cls", ALL_CAPS)
    def test_axis_horizontal(self, cls):
        axis = cls().magnetic_axis_local()
        assert abs(axis.z) < 1e-9
        assert abs(axis.y) == pytest.approx(1.0)

    def test_loop_inside_body(self):
        cap = FilmCapacitorX2()
        for f in unpack(cap.current_path.packed):
            assert abs(f.start.x) <= cap.footprint_w / 2 + 1e-9
            assert 0.0 <= f.start.z <= cap.body_height + 1e-9

    def test_resized_loop_changes_esl(self):
        small = FilmCapacitorX2(loop_height=5e-3)
        tall = FilmCapacitorX2(loop_height=14e-3)
        assert tall.esl > small.esl

    def test_pads_at_loop_span(self):
        cap = TantalumCapacitorSMD()
        assert cap.pad_position("2").x - cap.pad_position("1").x == pytest.approx(
            cap.loop_span
        )
