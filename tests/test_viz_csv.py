"""Unit tests for the CSV exporters."""

import numpy as np
import pytest

from repro.emi import Spectrum
from repro.geometry import Placement2D
from repro.placement import AutoPlacer
from repro.viz import couplings_to_csv, layout_to_csv, markers_to_csv, spectrum_to_csv

from conftest import build_small_problem


def spectrum(scale=1.0) -> Spectrum:
    freqs = np.array([1e6, 2e6, 3e6])
    return Spectrum(freqs, scale * np.array([1e-3, 1e-4, 1e-5], dtype=complex))


class TestSpectrumCsv:
    def test_header_and_rows(self):
        text = spectrum_to_csv({"pred": spectrum(), "meas": spectrum(2.0)})
        lines = text.strip().splitlines()
        assert lines[0] == "freq_hz,pred_dbuv,meas_dbuv"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 1e6
        assert float(first[1]) == pytest.approx(60.0, abs=0.01)

    def test_grid_mismatch_rejected(self):
        other = Spectrum(np.array([1e6]), np.array([1.0], dtype=complex))
        with pytest.raises(ValueError):
            spectrum_to_csv({"a": spectrum(), "b": other})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spectrum_to_csv({})


class TestCouplingsCsv:
    def test_sorted_by_magnitude(self):
        text = couplings_to_csv({("A", "B"): 0.01, ("C", "D"): -0.1})
        lines = text.strip().splitlines()
        assert lines[1].startswith("C,D")
        assert lines[2].startswith("A,B")


class TestLayoutCsv:
    def test_placed_and_unplaced(self):
        problem = build_small_problem()
        problem.components["C1"].placement = Placement2D.at(0.01, 0.02, 90)
        text = layout_to_csv(problem)
        lines = text.strip().splitlines()
        assert len(lines) == 1 + len(problem.components)
        c1_row = next(line for line in lines if line.startswith("C1,"))
        assert ",10.000,20.000,90.0," in c1_row
        d1_row = next(line for line in lines if line.startswith("D1,"))
        assert ",,," in d1_row  # unplaced: empty coordinates


class TestMarkersCsv:
    def test_all_rules_exported(self):
        problem = build_small_problem()
        AutoPlacer(problem).run()
        text = markers_to_csv(problem)
        lines = text.strip().splitlines()
        assert len(lines) == 1 + len(problem.rules.min_distance)
        assert all(line.endswith(",1") for line in lines[1:])  # all satisfied

    def test_exact_emd_and_distance(self):
        # Perpendicular X-caps with no residual decouple fully: EMD 0, not
        # the 0.2 mm floor of the drawn circle.
        from repro.rules import MinDistanceRule

        problem = build_small_problem()
        problem.rules.min_distance = [MinDistanceRule("C1", "C2", pemd=0.02, residual=0.0)]
        problem.components["C1"].placement = Placement2D.at(0.02, 0.03)
        problem.components["C2"].placement = Placement2D.at(0.05, 0.03, 90)
        lines = markers_to_csv(problem).strip().splitlines()
        assert lines[1:] == ["C1,C2,0.00,30.00,1"]
