"""The array path geometry equals the per-filament object loops bit for bit.

A :class:`CurrentPath` holds only :class:`PackedFilaments`.  The meshers
(``ring_path``, ``rectangle_path``, ``route_current_path``) build its
arrays directly, the winding functions place and concatenate packed rings,
and its moment, centroid and wire length are array code.  Each is checked
here against the object code that defines it: the :class:`Filament`
loops of ``filament_oracle`` and below.  The checks run on every library
part in every orientation, on the parts of the seeded perfbench boards,
on the routes of a routed board, and on random rings, paths and winding
geometries.  Floats are compared by their bits (``float.hex``, raw array
bytes), so a ``-0.0`` for ``+0.0`` fails too.
"""

import importlib.util
import math
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from filament_oracle import (
    Filament,
    object_rectangle,
    object_ring,
    object_route,
    pack,
    packed_bytes,
    path_of,
    unpack,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_property_peec import random_paths, sided_placements
from test_routing import placed_problem

from repro.components import (
    CommonModeChoke,
    capacitors,
    cmchoke,
    default_library,
    inductors,
    passives,
    semiconductors,
)
from repro.components.inductors import ring_stack
from repro.geometry import Placement2D, Vec3
from repro.peec import CurrentPath, PackedFilaments, rectangle_path, ring_path
from repro.routing import ManhattanRouter, route_current_path

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
        fils += object_ring(
            center, radius, 12, axis, wire_diameter=wire_diameter, weight=turns / n_rings
        )
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
        ring = object_ring(
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
            for f in ring
        ]
    return fils


def object_ring_path(*args, name="", **kwargs):
    return path_of(object_ring(*args, **kwargs), name)


def object_rectangle_path(*args, name="", **kwargs):
    return path_of(object_rectangle(*args, **kwargs), name)


def object_meshers():
    """Every component module's mesher swapped for the object-built one."""
    stack = ExitStack()
    for module in (inductors, cmchoke):
        stack.enter_context(mock.patch.object(module, "ring_path", object_ring_path))
    for module in (capacitors, passives, semiconductors):
        stack.enter_context(mock.patch.object(module, "rectangle_path", object_rectangle_path))
    return stack


# -- bitwise comparisons --------------------------------------------------------


def bits(v):
    return (v.x.hex(), v.y.hex(), v.z.hex())


def assert_geometry_matches_objects(path):
    fils = unpack(path.packed)
    assert bits(path.magnetic_moment()) == bits(object_moment(fils))
    assert bits(path.centroid()) == bits(object_centroid(fils))
    assert path.total_length().hex() == object_total_length(fils).hex()


def assert_same_filaments(path, fils):
    assert packed_bytes(path.packed) == packed_bytes(pack(fils))


def library_variants():
    """Every library part, and each bobbin choke in both orientations."""
    library = default_library()
    for name in library.part_numbers():
        part = library.create(name)
        yield name, part
        if isinstance(part, inductors.BobbinChoke):
            for orientation in ("horizontal", "vertical"):
                yield f"{name}-{orientation}", replace(part, orientation=orientation)


def assert_meshed_like_objects(build, name=""):
    """``build()`` makes the same path with the array and the object meshers."""
    arrays = build()
    with object_meshers():
        objects = build()
    assert objects.name == arrays.name, name
    assert packed_bytes(arrays.packed) == packed_bytes(objects.packed), name


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
    assert bits(part.magnetic_moment_local) == bits(object_moment(unpack(part.current_path.packed)))


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
    trace = path_of([Filament(Vec3(*start), Vec3(*end))])
    assert_geometry_matches_objects(trace)


# -- the array meshers against the object-built ones ---------------------------


def test_library_parts_mesh_like_objects():
    seen = 0
    for name, part in library_variants():
        assert_meshed_like_objects(part.build_current_path, name)
        if isinstance(part, CommonModeChoke):
            for w in range(part.n_windings):
                assert_meshed_like_objects(lambda w=w: part.winding_path(w), f"{name}.w{w}")
        seen += 1
    assert seen == 17 + 2 * 3


def test_perfbench_parts_mesh_like_objects():
    seen = 0
    for part, _ in perfbench_parts():
        assert_meshed_like_objects(part.build_current_path, part.part_number)
        seen += 1
    assert seen == 303


@pytest.mark.parametrize(
    "z, copper", [(0.0, 35e-6), (-0.0, 35e-6), (1e-4, 70e-6), (-1.6e-3, 18e-6)]
)
def test_routes_mesh_like_objects(z, copper):
    problem = placed_problem()
    routes = [r for r in ManhattanRouter(problem).route_all().values() if not r.is_empty()]
    assert len(routes) >= 3
    for route in routes:
        path = route_current_path(route, z, copper)
        assert path.name == f"trace:{route.net}"
        assert_same_filaments(path, object_route(route, z, copper))
        assert_geometry_matches_objects(path)


coordinates = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(min_value=-0.05, max_value=0.05)
)


class TestMeshers:
    @settings(max_examples=200, deadline=None)
    @given(
        st.builds(Vec3, coordinates, coordinates, coordinates),
        st.floats(min_value=1e-4, max_value=0.02),
        st.integers(min_value=3, max_value=40),
        st.sampled_from("xyz"),
        st.floats(min_value=0.1e-3, max_value=2e-3),
        st.one_of(st.floats(min_value=-5.0, max_value=5.0), st.sampled_from([1.0, -1.0])),
    )
    def test_ring_path_matches_objects(self, center, radius, segments, axis, wire, weight):
        path = ring_path(center, radius, segments, axis, wire_diameter=wire, weight=weight)
        assert_same_filaments(path, object_ring(center, radius, segments, axis, wire, weight))

    @settings(max_examples=100, deadline=None)
    @given(
        st.builds(Vec3, coordinates, coordinates, coordinates),
        st.tuples(*[st.floats(min_value=0.5e-3, max_value=0.02)] * 3),
        st.tuples(*[st.sampled_from([1.0, -1.0])] * 3),
        st.sampled_from("xyz"),
        st.floats(min_value=0.1e-3, max_value=2e-3),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_rectangle_path_matches_objects(self, a, spans, signs, normal, width, weight):
        # Offset the two in-plane coordinates; the normal one stays.
        offsets = [s * sign for s, sign in zip(spans, signs, strict=True)]
        offsets["xyz".index(normal)] = 0.0
        b = Vec3(a.x + offsets[0], a.y + offsets[1], a.z + offsets[2])
        path = rectangle_path(a, b, normal, width, 35e-6, weight)
        assert_same_filaments(path, object_rectangle(a, b, normal, width, 35e-6, weight))


# -- random paths and windings --------------------------------------------------


class TestRandomPaths:
    @settings(max_examples=60, deadline=None)
    @given(random_paths(), sided_placements)
    def test_geometry_matches_objects(self, path, placement):
        assert_geometry_matches_objects(path)
        assert_geometry_matches_objects(path.transformed(placement.to_transform3d()))

    @settings(max_examples=40, deadline=None)
    @given(random_paths(), random_paths(), sided_placements)
    def test_concatenation_matches_object_concatenation(self, a, b, placement):
        b = b.transformed(placement.to_transform3d())
        joined = CurrentPath(PackedFilaments.concatenated([a.packed, b.packed]), "B")
        assert_same_filaments(joined, unpack(a.packed) + unpack(b.packed))
        assert joined.name == "B"
        assert_geometry_matches_objects(joined)


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
