"""Unit tests for the Manhattan router and trace parasitics."""

import pytest

from repro.geometry import Placement2D, Vec2
from repro.placement import Net
from repro.routing import (
    INDUCTANCE_PER_LENGTH_ESTIMATE,
    ManhattanRouter,
    Route,
    TraceSegment,
    route_current_path,
    route_inductance,
    route_mutual_inductance,
)

from conftest import build_small_problem


def placed_problem():
    problem = build_small_problem()
    positions = {
        "C1": (0.012, 0.012),
        "C2": (0.068, 0.012),
        "C3": (0.068, 0.048),
        "L1": (0.012, 0.048),
        "L2": (0.040, 0.048),
        "Q1": (0.040, 0.012),
        "D1": (0.040, 0.030),
    }
    for ref, (x, y) in positions.items():
        problem.components[ref].placement = Placement2D.at(x, y)
    return problem


class TestSegmentsAndRoutes:
    def test_segment_length(self):
        s = TraceSegment(Vec2(0, 0), Vec2(0.03, 0.04))
        assert s.length == pytest.approx(0.05)

    def test_route_total_length(self):
        r = Route("N", [TraceSegment(Vec2(0, 0), Vec2(0.01, 0)),
                        TraceSegment(Vec2(0.01, 0), Vec2(0.01, 0.02))])
        assert r.total_length() == pytest.approx(0.03)

    def test_empty_route(self):
        assert Route("N").is_empty()


class TestRouter:
    def test_two_pin_l_bend(self):
        problem = placed_problem()
        router = ManhattanRouter(problem)
        net = problem.nets[0]  # N1: C1-L1, vertically separated
        route = router.route_net(net)
        assert not route.is_empty()
        # Manhattan length >= Euclidean pin distance.
        assert route.total_length() >= 0.035 - 1e-3

    def test_manhattan_segments_axis_aligned(self):
        problem = placed_problem()
        for route in ManhattanRouter(problem).route_all().values():
            for seg in route.segments:
                dx = abs(seg.end.x - seg.start.x)
                dy = abs(seg.end.y - seg.start.y)
                assert dx < 1e-9 or dy < 1e-9

    def test_unplaced_pins_skipped(self):
        problem = placed_problem()
        problem.components["C1"].placement = None
        route = ManhattanRouter(problem).route_net(problem.nets[0])
        assert route.is_empty()  # only one placed pin remains

    def test_route_all_covers_all_nets(self):
        problem = placed_problem()
        routes = ManhattanRouter(problem).route_all()
        assert set(routes) == {n.name for n in problem.nets}

    def test_mst_length_not_worse_than_chain(self):
        # MST over n pins is never longer than visiting them in net order.
        problem = placed_problem()
        net = Net("TEST", [("C1", "1"), ("C2", "1"), ("C3", "1"), ("L1", "1")])
        problem.nets.append(net)
        route = ManhattanRouter(problem).route_net(net)
        pins = [problem.components[r].placement.apply(
            problem.components[r].component.pad_position(p)) for r, p in net.pins]
        chain = sum(
            abs(pins[i + 1].x - pins[i].x) + abs(pins[i + 1].y - pins[i].y)
            for i in range(len(pins) - 1)
        )
        assert route.total_length() <= chain + 1e-9

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            ManhattanRouter(placed_problem(), trace_width=0.0)


class TestParasitics:
    def test_inductance_near_rule_of_thumb(self):
        r = Route("N", [TraceSegment(Vec2(0, 0), Vec2(0.05, 0))])
        l = route_inductance(r)
        estimate = INDUCTANCE_PER_LENGTH_ESTIMATE * 0.05
        assert l == pytest.approx(estimate, rel=0.5)

    def test_longer_routes_more_inductance(self):
        short = Route("A", [TraceSegment(Vec2(0, 0), Vec2(0.02, 0))])
        long = Route("B", [TraceSegment(Vec2(0, 0), Vec2(0.06, 0))])
        assert route_inductance(long) > route_inductance(short)

    def test_current_path_filament_count(self):
        r = Route("N", [TraceSegment(Vec2(0, 0), Vec2(0.01, 0)),
                        TraceSegment(Vec2(0.01, 0), Vec2(0.01, 0.01))])
        path = route_current_path(r, z=1e-4)
        assert path is not None and len(path) == 2
        assert path.packed.starts[0, 2] == pytest.approx(1e-4)

    def test_bad_cross_section_rejected(self):
        r = Route("N", [TraceSegment(Vec2(0, 0), Vec2(0.01, 0))])
        for copper in (0.0, -35e-6):
            with pytest.raises(ValueError, match="cross-section"):
                route_current_path(r, copper_thickness=copper)
        zero_width = Route("N", [TraceSegment(Vec2(0, 0), Vec2(0.01, 0), width=0.0)])
        with pytest.raises(ValueError, match="cross-section"):
            route_current_path(zero_width)

    def test_empty_route_no_path(self):
        assert route_current_path(Route("N")) is None
        assert route_mutual_inductance(Route("A"), Route("B")) == 0.0

    def test_parallel_traces_couple(self):
        a = Route("A", [TraceSegment(Vec2(0, 0), Vec2(0.05, 0))])
        b = Route("B", [TraceSegment(Vec2(0, 0.002), Vec2(0.05, 0.002))])
        m = route_mutual_inductance(a, b)
        assert m > 1e-9  # tightly coupled parallel pair

    def test_perpendicular_traces_do_not_couple(self):
        a = Route("A", [TraceSegment(Vec2(0, 0), Vec2(0.05, 0))])
        b = Route("B", [TraceSegment(Vec2(0.02, 0.01), Vec2(0.02, 0.05))])
        assert abs(route_mutual_inductance(a, b)) < 1e-15


class TestBuckIntegration:
    def test_trace_inductances_from_layout(self, buck_design):
        problem = buck_design.placement_problem()
        from repro.placement import BaselinePlacer

        BaselinePlacer(problem).run()
        lt = buck_design.trace_inductances_from_layout(problem)
        assert set(lt) == {"VIN", "VBUS", "VOUT", "VLOAD"}
        assert all(1e-9 < v < 500e-9 for v in lt.values())

    def test_trace_inductors_in_circuit(self, buck_design):
        circuit, _ = buck_design.emi_circuit(
            trace_inductances={"VIN": 30e-9, "VOUT": 20e-9}
        )
        names = {e.name for e in circuit.elements}
        assert "LT_VIN" in names and "LT_VOUT" in names
        assert "LT_VBUS" not in names

    def test_zero_trace_same_topology(self, buck_design):
        base, _ = buck_design.emi_circuit()
        with_zero, _ = buck_design.emi_circuit(trace_inductances={})
        assert base.stats() == with_zero.stats()

    def test_traces_change_spectrum(self, buck_design):
        base = buck_design.emission_spectrum()
        traced = buck_design.emission_spectrum(
            trace_inductances={"VIN": 50e-9, "VBUS": 40e-9, "VOUT": 20e-9, "VLOAD": 30e-9}
        )
        assert traced.mean_abs_error_db(base) > 0.05

    def test_circuit_still_solvable_with_traces(self, buck_design):
        import numpy as np
        from repro.circuit import MnaSystem

        circuit, meas = buck_design.emi_circuit(
            trace_inductances={"VIN": 50e-9, "VBUS": 40e-9, "VOUT": 20e-9, "VLOAD": 30e-9}
        )
        sol = MnaSystem(circuit).solve_ac(10e6)
        assert np.isfinite(abs(sol.voltage(meas)))


class TestViaModel:
    def test_standard_via_about_1nh(self):
        from repro.routing import via_inductance

        l = via_inductance(height=1.6e-3, diameter=0.4e-3)
        assert 0.8e-9 < l < 1.6e-9

    def test_taller_via_more_inductance(self):
        from repro.routing import via_inductance

        assert via_inductance(3.2e-3, 0.4e-3) > via_inductance(1.6e-3, 0.4e-3)

    def test_fatter_via_less_inductance(self):
        from repro.routing import via_inductance

        assert via_inductance(1.6e-3, 0.8e-3) < via_inductance(1.6e-3, 0.3e-3)

    def test_invalid_dimensions(self):
        from repro.routing import via_inductance

        with pytest.raises(ValueError):
            via_inductance(0.0, 0.4e-3)
        with pytest.raises(ValueError):
            via_inductance(1.6e-3, -1.0)
