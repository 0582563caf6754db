"""The array path geometry equals the per-filament object loops bit for bit.

A :class:`CurrentPath` holds only :class:`PackedFilaments`; its moment,
centroid, wire length and merge are array code, and the winding builders
place and merge packed rings.  Each is checked here against the loop over
:class:`Filament` objects that defines it (kept below as the oracle), on
every library part, on the parts of the seeded perfbench boards, on
random paths and on random winding geometries.  Floats are compared by
their bits (``float.hex``, raw array bytes), so a ``-0.0`` for ``+0.0``
fails too.
"""

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_property_peec import random_paths, sided_placements

from repro.components import CommonModeChoke, default_library
from repro.components.inductors import ring_stack
from repro.geometry import Placement2D, Vec3
from repro.peec import CurrentPath, Filament, PackedFilaments, ring_path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads_geometry", _ROOT / "perfbench/workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


# -- the per-filament object loops (the oracle) ---------------------------------


def object_total_length(fils):
    return math.fsum(f.length * abs(f.weight) for f in fils)


def object_moment(fils):
    m = Vec3.zero()
    for f in fils:
        dl = (f.end - f.start) * f.weight
        m = m + f.midpoint.cross(dl) * 0.5
    return m


def object_centroid(fils):
    total_len = math.fsum(f.length for f in fils)
    acc = Vec3.zero()
    for f in fils:
        acc = acc + f.midpoint * f.length
    return acc / total_len


def object_ring_stack(turns, n_rings, radius, length, height, axis, wire_diameter):
    gaps = n_rings - 1
    fils = []
    for i in range(n_rings):
        offset = -length / 2.0 + length * i / gaps if gaps else 0.0
        center = Vec3(offset, 0.0, height) if axis == "x" else Vec3(0.0, 0.0, height + offset)
        fils += ring_path(
            center, radius, 12, axis, wire_diameter=wire_diameter, weight=turns / n_rings
        ).packed.filaments()
    return fils


def object_winding(choke, index):
    weight = choke.turns_per_winding / choke.rings_per_winding
    z0 = choke.body_height / 2.0
    arc = 2.0 * math.pi / choke.n_windings * choke.coverage
    fils = []
    for i in range(choke.rings_per_winding):
        frac = (i + 0.5) / choke.rings_per_winding - 0.5
        theta = choke.winding_center_angle(index) + frac * arc
        cx = choke.major_radius * math.cos(theta)
        cy = choke.major_radius * math.sin(theta)
        ring = ring_path(
            Vec3.zero(),
            choke.minor_radius,
            segments=8,
            axis="x",
            wire_diameter=choke.wire_diameter,
            weight=weight,
        )
        rot = theta + math.pi / 2.0
        fils += [
            replace(
                f,
                start=f.start.rotated_z(rot) + Vec3(cx, cy, z0),
                end=f.end.rotated_z(rot) + Vec3(cx, cy, z0),
            )
            for f in ring.packed.filaments()
        ]
    return fils


# -- bitwise comparisons --------------------------------------------------------


def bits(v):
    return (v.x.hex(), v.y.hex(), v.z.hex())


def packed_bytes(packed):
    return tuple(
        np.ascontiguousarray(a).tobytes()
        for a in (packed.starts, packed.ends, packed.widths, packed.thicknesses, packed.weights)
    )


def assert_geometry_matches_objects(path):
    fils = path.packed.filaments()
    assert bits(path.magnetic_moment()) == bits(object_moment(fils))
    assert bits(path.centroid()) == bits(object_centroid(fils))
    assert path.total_length().hex() == object_total_length(fils).hex()


def assert_same_filaments(path, fils):
    assert packed_bytes(path.packed) == packed_bytes(PackedFilaments.of(fils))


def perfbench_parts():
    """Every part of the seeded ``place_drc`` and ``extract_cold`` boards, with its pose."""
    boards = [workloads._place_board(seed, i) for seed in (1, 2, 3) for i in range(3)]
    boards += [workloads._extract_board(seed, i) for seed in (1, 2) for i in range(3)]
    for board in boards:
        for part in board["parts"]:
            yield workloads.build_part(part["spec"]), part.get("pose")


# -- library and perfbench parts ------------------------------------------------


@pytest.mark.parametrize("name", default_library().part_numbers())
def test_library_part_geometry_matches_objects(name):
    part = default_library().create(name)
    assert_geometry_matches_objects(part.current_path)
    assert bits(part.magnetic_moment_local) == bits(
        object_moment(part.current_path.packed.filaments())
    )


def test_perfbench_part_geometry_matches_objects():
    seen = 0
    for part, pose in perfbench_parts():
        assert_geometry_matches_objects(part.current_path)
        if pose is not None:
            placed = part.placed_current_path(Placement2D.at(*pose))
            assert_geometry_matches_objects(placed)
        seen += 1
    assert seen == 303


@pytest.mark.parametrize("start, end", [((1, 0, 0), (0, 0, 0)), ((0, 2, 1), (0, -1, 1))])
def test_straight_trace_moment_has_no_negative_zero(start, end):
    # Every cross-product term of a trace through the origin's axes is a
    # signed zero; the object loop starts from +0.0, so its sum is +0.0.
    trace = CurrentPath([Filament(Vec3(*start), Vec3(*end))])
    assert_geometry_matches_objects(trace)


# -- random paths and windings --------------------------------------------------


class TestRandomPaths:
    @settings(max_examples=60, deadline=None)
    @given(random_paths(), sided_placements)
    def test_geometry_matches_objects(self, path, placement):
        assert_geometry_matches_objects(path)
        assert_geometry_matches_objects(path.transformed(placement.to_transform3d()))

    @settings(max_examples=40, deadline=None)
    @given(random_paths(), random_paths(), sided_placements)
    def test_merged_with_matches_object_concatenation(self, a, b, placement):
        b = b.transformed(placement.to_transform3d())
        b.name = "B"
        merged = a.merged_with(b)
        assert_same_filaments(merged, a.packed.filaments() + b.packed.filaments())
        assert merged.name == (a.name or "B")
        assert_geometry_matches_objects(merged)


class TestWindingBuilders:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=7),
        st.floats(min_value=1e-3, max_value=8e-3),
        st.floats(min_value=0.0, max_value=12e-3),
        st.floats(min_value=0.0, max_value=8e-3),
        st.sampled_from("xz"),
    )
    def test_ring_stack_matches_object_concatenation(
        self, turns, n_rings, radius, length, height, axis
    ):
        path = ring_stack(
            "L",
            turns=turns,
            n_rings=n_rings,
            radius=radius,
            length=length,
            height=height,
            axis=axis,
            wire_diameter=0.6e-3,
        )
        assert path.name == "L"
        assert_same_filaments(
            path, object_ring_stack(turns, n_rings, radius, length, height, axis, 0.6e-3)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.floats(min_value=6e-3, max_value=14e-3),
        st.floats(min_value=2e-3, max_value=5e-3),
        st.integers(min_value=2, max_value=7),
        st.floats(min_value=0.1, max_value=1.0),
        st.integers(min_value=1, max_value=20),
    )
    def test_choke_ring_placement_matches_objects(
        self, n_windings, major, minor, rings, coverage, turns
    ):
        choke = CommonModeChoke(
            part_number="CMC-T",
            n_windings=n_windings,
            major_radius=major,
            minor_radius=minor,
            rings_per_winding=rings,
            coverage=coverage,
            turns_per_winding=turns,
        )
        windings = [object_winding(choke, w) for w in range(n_windings)]
        for w, fils in enumerate(windings):
            path = choke.winding_path(w)
            assert path.name == f"CMC-T.w{w}"
            assert_same_filaments(path, fils)
        assert_same_filaments(choke.current_path, [f for fils in windings for f in fils])
        assert_geometry_matches_objects(choke.current_path)
