"""Property-based tests for the PEEC engine (hypothesis).

Physical invariants: reciprocity, rigid-motion invariance, closed-form vs
quadrature agreement, |k| bounds, and sign antisymmetry under current
reversal.
"""

import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from filament_oracle import (
    Filament,
    neumann_mutual,
    pack,
    pair_mutual,
    parallel_mutual,
    path_of,
    unpack,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.components import default_library
from repro.geometry import Placement2D, Transform3D, Vec2, Vec3, unique_rows
from repro.peec import filament as filament_module
from repro.peec import inductance as inductance_module
from repro.peec import (
    CurrentPath,
    PackedFilaments,
    loop_self_inductance,
    mutual_inductance_pairs,
    mutual_inductance_paths_fast,
    mutual_inductance_row,
    neumann_mutual_blocks,
    rectangle_path,
    ring_path,
    self_inductance_bar,
    self_inductance_bars,
)

mm = st.floats(min_value=-0.05, max_value=0.05, allow_nan=False)
length_mm = st.floats(min_value=0.002, max_value=0.03, allow_nan=False)
angle = st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False)


@st.composite
def filaments(draw):
    start = Vec3(draw(mm), draw(mm), draw(mm))
    direction = Vec3(draw(mm) + 0.06, draw(mm), draw(mm))  # never zero length
    return Filament(start, start + direction)


@st.composite
def separated_filament_pairs(draw):
    f1 = draw(filaments())
    offset = Vec3(draw(mm), draw(mm) + 0.12, draw(mm))  # min ~7 cm apart
    start = f1.end + offset
    direction = Vec3(draw(mm), draw(mm) + 0.06, draw(mm))  # never zero length
    return f1, Filament(start, start + direction)


class TestFilamentProperties:
    @settings(max_examples=40)
    @given(separated_filament_pairs())
    def test_reciprocity(self, pair):
        f1, f2 = pair
        assert math.isclose(
            pair_mutual(f1, f2), pair_mutual(f2, f1), rel_tol=1e-6, abs_tol=1e-18
        )

    @settings(max_examples=40)
    @given(separated_filament_pairs())
    def test_reversal_antisymmetry(self, pair):
        f1, f2 = pair
        m = pair_mutual(f1, f2)
        m_rev = pair_mutual(f1, f2.reversed())
        assert math.isclose(m, -m_rev, rel_tol=1e-6, abs_tol=1e-18)

    @settings(max_examples=30)
    @given(filaments(), st.floats(min_value=0.01, max_value=0.08), length_mm)
    def test_parallel_closed_form_matches_quadrature(self, f1, gap, l2):
        f2 = Filament(
            f1.start + Vec3(0.0, gap, 0.0),
            f1.start + Vec3(0.0, gap, 0.0) + f1.direction * l2,
        )
        # order=20 leaves ~1e-4 quadrature error on strongly length-mismatched
        # pairs (e.g. 52 mm vs 4 mm at 10 mm gap), right at the tolerance.
        closed = parallel_mutual(f1, f2)
        quad = neumann_mutual(f1, f2, order=40)
        assert math.isclose(closed, quad, rel_tol=1e-4, abs_tol=1e-16)

    @settings(max_examples=30)
    @given(length_mm, st.floats(min_value=1e-4, max_value=3e-3))
    def test_self_inductance_positive_and_monotone(self, length, width):
        l1 = self_inductance_bar(length, width, width)
        l2 = self_inductance_bar(length * 2, width, width)
        assert 0.0 < l1 < l2


class TestPathProperties:
    @settings(max_examples=25)
    @given(
        st.floats(min_value=0.003, max_value=0.008),
        st.floats(min_value=0.03, max_value=0.07),
        mm,
        mm,
        angle,
    )
    def test_rigid_motion_invariance(self, radius, distance, dx, dy, rot):
        a = ring_path(Vec3.zero(), radius, segments=8, axis="x")
        b = ring_path(Vec3(distance, 0.0, 0.0), radius, segments=8, axis="x")
        m0 = mutual_inductance_paths_fast(a, b)
        t = Transform3D(Vec3(dx, dy, 0.01), rotation_z_rad=rot)
        m1 = mutual_inductance_paths_fast(a.transformed(t), b.transformed(t))
        assert math.isclose(m0, m1, rel_tol=1e-6, abs_tol=1e-18)

    @settings(max_examples=20)
    @given(st.floats(min_value=0.003, max_value=0.01), st.integers(min_value=6, max_value=20))
    def test_self_inductance_positive_any_discretisation(self, radius, segments):
        ring = ring_path(Vec3.zero(), radius, segments=segments)
        assert loop_self_inductance(ring) > 0.0

    @settings(max_examples=20)
    @given(
        st.floats(min_value=0.003, max_value=0.008),
        st.floats(min_value=0.03, max_value=0.08),
        st.floats(min_value=1.0, max_value=5.0),
    )
    def test_weight_bilinearity(self, radius, distance, w):
        a = ring_path(Vec3.zero(), radius, segments=8)
        b = ring_path(Vec3(distance, 0, 0), radius, segments=8)
        b_weighted = ring_path(Vec3(distance, 0, 0), radius, segments=8, weight=w)
        m_unit = mutual_inductance_paths_fast(a, b)
        m_scaled = mutual_inductance_paths_fast(a, b_weighted)
        assert math.isclose(m_scaled, w * m_unit, rel_tol=1e-9, abs_tol=1e-20)


# -- the exact self-inductance kernel on seeded random paths ------------------


def helix(radius, pitch, seg_per_turn, turns, wire, weight):
    """Polygonal helix; a non-integer segment count per turn makes a segment
    and its neighbour one turn later skew and nearly touching."""
    step = 2.0 * math.pi / seg_per_turn
    n = max(3, int(turns * seg_per_turn))
    pts = [
        Vec3(radius * math.cos(k * step), radius * math.sin(k * step), pitch * k / seg_per_turn)
        for k in range(n + 1)
    ]
    return path_of(
        [
            Filament(pts[k], pts[k + 1], width=wire, thickness=wire, weight=weight)
            for k in range(n)
        ]
    )


@st.composite
def random_paths(draw):
    """A ring, rectangle or tight helix with random size, mesh and weight."""
    kind = draw(st.sampled_from(["ring", "rectangle", "helix"]))
    weight = draw(st.floats(min_value=0.5, max_value=4.0))
    if kind == "ring":
        return ring_path(
            Vec3.zero(),
            draw(st.floats(min_value=0.002, max_value=0.012)),
            segments=draw(st.integers(min_value=4, max_value=24)),
            axis=draw(st.sampled_from("xyz")),
            wire_diameter=draw(st.floats(min_value=0.2e-3, max_value=1.2e-3)),
            weight=weight,
        )
    if kind == "rectangle":
        span = draw(st.floats(min_value=0.003, max_value=0.02))
        rise = draw(st.floats(min_value=0.002, max_value=0.012))
        return rectangle_path(
            Vec3(-span / 2, 0.0, 0.0),
            Vec3(span / 2, 0.0, rise),
            normal="y",
            width=draw(st.floats(min_value=0.3e-3, max_value=1.5e-3)),
            weight=weight,
        )
    pitch = draw(st.floats(min_value=0.5e-3, max_value=2e-3))
    return helix(
        radius=draw(st.floats(min_value=0.003, max_value=0.008)),
        pitch=pitch,
        seg_per_turn=draw(st.sampled_from([4, 5, 6])) + draw(st.floats(0.02, 0.3)),
        turns=draw(st.floats(min_value=1.5, max_value=3.0)),
        wire=pitch * draw(st.floats(min_value=0.1, max_value=0.4)),
        weight=weight,
    )


def scaled_weights(path, factor):
    """The path with every filament weight multiplied by ``factor``."""
    p = path.packed
    return CurrentPath(
        PackedFilaments(p.starts, p.ends, p.widths, p.thicknesses, p.weights * factor),
        path.name,
    )


placements = st.builds(
    lambda x, y, deg: Placement2D.at(x, y, deg),
    st.floats(min_value=-0.05, max_value=0.05),
    st.floats(min_value=-0.05, max_value=0.05),
    st.floats(min_value=0.0, max_value=360.0),
)


def extent(path):
    return max(
        max(abs(c) for c in (*f.start.as_array(), *f.end.as_array()))
        for f in unpack(path.packed)
    )


class TestSelfInductanceKernel:
    @settings(max_examples=30, deadline=None)
    @given(random_paths())
    def test_positive(self, path):
        assert loop_self_inductance(path) > 0.0

    @settings(max_examples=30, deadline=None)
    @given(random_paths(), st.floats(min_value=0.1, max_value=10.0))
    def test_scales_with_weight_squared(self, path, w):
        assert math.isclose(
            loop_self_inductance(scaled_weights(path, w)),
            w * w * loop_self_inductance(path),
            rel_tol=1e-12,
        )

    @settings(max_examples=30, deadline=None)
    @given(random_paths(), placements)
    def test_rigid_motion_invariance(self, path, placement):
        moved = path.transformed(placement.to_transform3d())
        assert math.isclose(
            loop_self_inductance(moved), loop_self_inductance(path), rel_tol=1e-9
        )

    @settings(max_examples=30, deadline=None)
    @given(random_paths(), random_paths(), st.floats(0.002, 0.03), angle, angle)
    def test_coupling_factor_bounded(self, a, b, clearance, theta, rot):
        # Disjoint by construction: b sits beyond both paths' extents.
        distance = extent(a) + extent(b) + clearance
        placed = b.transformed(
            Placement2D(Vec2.from_polar(distance, theta), rot).to_transform3d()
        )
        m = mutual_inductance_paths_fast(a, placed)
        k = m / math.sqrt(loop_self_inductance(a) * loop_self_inductance(placed))
        assert abs(k) <= 1.0


# -- the packed array form equals the Filament objects exactly ---------------

sided_placements = st.builds(
    lambda x, y, deg, z, side: Placement2D(Vec2(x, y), math.radians(deg), z, side),
    st.floats(min_value=-0.05, max_value=0.05),
    st.floats(min_value=-0.05, max_value=0.05),
    st.floats(min_value=0.0, max_value=360.0),
    st.sampled_from([0.0, 1.5e-3, 4e-3]),
    st.sampled_from([1, -1]),
)


def bits(values):
    """The IEEE-754 bytes of a float array (signed zeros distinguished)."""
    return np.ascontiguousarray(values, dtype=float).tobytes()


def end_points(filaments):
    return (
        bits([f.start.as_array() for f in filaments]),
        bits([f.end.as_array() for f in filaments]),
        bits([f.weight for f in filaments]),
    )


def packed_end_points(packed):
    return bits(packed.starts), bits(packed.ends), bits(packed.weights)


def object_self_inductance(filaments):
    """The full pair sum ``loop_self_inductance`` replaced, read from Filament
    objects: every one of the n(n-1)/2 pairs through the kernel."""
    weights = np.array([f.weight for f in filaments])
    diagonal = self_inductance_bars(
        np.array([f.length for f in filaments]),
        np.array([f.width for f in filaments]),
        np.array([f.thickness for f in filaments]),
    )
    i, j = np.triu_indices(len(filaments), 1)
    mutuals = mutual_inductance_pairs(pack(filaments), i, j)
    return float(
        np.sum(weights * weights * diagonal) + 2.0 * np.sum(weights[i] * weights[j] * mutuals)
    )


def assert_equals_full_sum(path, name=""):
    full = object_self_inductance(unpack(path.packed))
    assert math.isclose(loop_self_inductance(path), full, rel_tol=1e-12, abs_tol=0.0), name


def self_inductance_totals(path):
    tracer = obs.enable(meta={"test": "pair classes"})
    try:
        loop_self_inductance(path)
    finally:
        obs.disable()
    return tracer.report().totals()


class TestPackedPath:
    @settings(max_examples=40, deadline=None)
    @given(random_paths(), sided_placements)
    def test_placement_equals_transform_apply(self, path, placement):
        transform = placement.to_transform3d()
        expected = [
            replace(f, start=transform.apply(f.start), end=transform.apply(f.end))
            for f in unpack(path.packed)
        ]
        for placed in (path.packed.placed(placement), path.transformed(transform).packed):
            assert packed_end_points(placed) == end_points(expected)
        assert end_points(unpack(path.transformed(transform).packed)) == end_points(expected)

    @settings(max_examples=30, deadline=None)
    @given(random_paths(), sided_placements, st.floats(min_value=-5e-3, max_value=5e-3))
    def test_image_equals_mirrored_filaments(self, path, placement, plane_z):
        placed = path.transformed(placement.to_transform3d())
        expected = [
            replace(f.mirrored_z(plane_z), weight=-f.weight) for f in unpack(placed.packed)
        ]
        assert packed_end_points(placed.packed.image(plane_z)) == end_points(expected)

    # loop_self_inductance solves one pair per isometry class and scatters;
    # the full sum groups the same terms differently, so the two agree to
    # rounding (at most 7e-16 relative on the library), not bit for bit.
    def test_self_inductance_of_every_library_part(self):
        library = default_library()
        for name in library.part_numbers():
            part = library.create(name)
            placed = part.placed_current_path(Placement2D(Vec2(0.01, -0.02), 0.7, 2e-3, -1))
            for path in (part.current_path, placed):
                assert_equals_full_sum(path, name)

    @settings(max_examples=40, deadline=None)
    @given(random_paths(), sided_placements)
    def test_self_inductance_equals_full_sum(self, path, placement):
        assert_equals_full_sum(path)
        assert_equals_full_sum(path.transformed(placement.to_transform3d()))

    def test_single_filament_has_no_pair_classes(self):
        wire = Filament(Vec3(0.0, 0.0, 0.0), Vec3(0.01, 0.0, 0.0), weight=2.0)
        totals = self_inductance_totals(path_of([wire]))
        assert totals["peec.pair_classes"] == 0
        assert loop_self_inductance(path_of([wire])) == 4.0 * wire.self_inductance()

    def test_all_distinct_pairs_are_all_solved(self):
        rng = np.random.default_rng(7)
        points = [Vec3(*xyz) for xyz in rng.uniform(-0.01, 0.01, size=(13, 3))]
        path = path_of([Filament(a, b) for a, b in zip(points[:-1], points[1:])])
        assert self_inductance_totals(path)["peec.pair_classes"] == 12 * 11 // 2
        assert_equals_full_sum(path)

    @pytest.mark.parametrize("a, b", list(itertools.combinations(range(4), 2)))
    def test_every_endpoint_distance_is_in_the_key(self, a, b):
        # Turn end point b of a pair about the line through the two points
        # other than a and b: of the six endpoint distances only |a b|
        # changes, so the pair and its turned copy are two classes.
        points = np.random.default_rng(3).uniform(-0.01, 0.01, size=(4, 3))
        c, d = (k for k in range(4) if k not in (a, b))
        axis = (points[d] - points[c]) / np.linalg.norm(points[d] - points[c])
        arm = points[b] - points[c]
        turned = points.copy()
        turned[b] = points[c] + (
            arm * math.cos(1.0)
            + np.cross(axis, arm) * math.sin(1.0)
            + axis * axis.dot(arm) * (1.0 - math.cos(1.0))
        )
        turned += [0.1, 0.0, 0.0]

        def pair(p):
            return [Filament(Vec3(*p[0]), Vec3(*p[1])), Filament(Vec3(*p[2]), Vec3(*p[3]))]

        path = path_of(pair(points) + pair(turned))
        assert self_inductance_totals(path)["peec.pair_classes"] == 6
        assert_equals_full_sum(path)

    def test_ring_stack_windings_share_pair_classes(self):
        library = default_library()
        for name in ("BOBBIN-100u", "CMC-2W"):
            path = library.create(name).current_path
            n = len(path)
            totals = self_inductance_totals(path)
            assert totals["peec.filament_pairs"] == n * (n + 1) // 2
            assert totals["peec.pair_classes"] < n * (n - 1) // 8, name

    def test_packed_keys_give_the_classes_of_the_six_column_keys(self):
        library = default_library()
        for name in library.part_numbers():
            assert_packed_keys_equal_six_column_keys(library.create(name).current_path, name)

    @settings(max_examples=40, deadline=None)
    @given(random_paths())
    def test_packed_keys_on_random_paths(self, path):
        assert_packed_keys_equal_six_column_keys(path)


def six_column_keys(packed, lengths, i, j):
    """The former class keys: six rounded distances, one column each."""
    starts, ends = packed.starts, packed.ends
    dist = np.stack(
        [
            lengths[i],
            lengths[j],
            np.linalg.norm(starts[i] - starts[j], axis=1),
            np.linalg.norm(starts[i] - ends[j], axis=1),
            np.linalg.norm(ends[i] - starts[j], axis=1),
            np.linalg.norm(ends[i] - ends[j], axis=1),
        ],
        axis=1,
    )
    return np.rint(dist / (1e-9 * float(dist.max()))).astype(np.int64)


def assert_packed_keys_equal_six_column_keys(path, name=""):
    packed = path.packed
    lengths = packed.lengths()
    i, j = np.triu_indices(len(packed), 1)
    if not len(i):
        return
    packed_keys = inductance_module._pair_shape_keys(packed, lengths, i, j)
    six = six_column_keys(packed, lengths, i, j)
    assert packed_keys.shape == (len(i), 3)
    for got, expected in zip(unique_rows(packed_keys), unique_rows(six), strict=True):
        np.testing.assert_array_equal(got, expected, err_msg=name)


# -- the Neumann quadrature against its former formulation -------------------

EPS = np.finfo(float).eps


def tiled_neumann_integral(p_a, p_b, w_a, w_b):
    """The former quadrature, kept as the oracle: a tiled ``(..., ga, gb, 3)``
    difference tensor, r by einsum, a masked clamp and a three-operand
    contraction.  ``p_a`` ``(..., ga, 3)``, ``p_b`` ``(..., gb, 3)``."""
    gb = p_b.shape[-2]
    a = np.tile(p_a, gb)
    b = p_b.reshape(*p_b.shape[:-2], 1, gb * 3)
    diff = (a - b).reshape(*np.broadcast_shapes(a.shape, b.shape)[:-1], gb, 3)
    r = np.sqrt(np.einsum("...ijk,...ijk->...ij", diff, diff))
    r[r < 1e-12] = 1e-12
    return np.einsum("i,j,...ij->...", w_a, w_b, 1.0 / r)


def quadrature_points(packed, order):
    """``(n, order, 3)`` Gauss–Legendre points along each filament."""
    nodes, _ = filament_module._gauss_legendre_01(order)
    deltas = packed.ends - packed.starts
    return packed.starts[:, None, :] + nodes[None, :, None] * deltas[:, None, :]


def random_segments(rng, n, scale):
    starts = rng.uniform(-scale, scale, size=(n, 3))
    return starts, starts + rng.uniform(-scale, scale, size=(n, 3)) + [scale, 0.0, 0.0]


@st.composite
def filament_sets(draw):
    """A source and a target set; some target filaments coincide with source
    ones (equal quadrature points: the 1e-12 clamp)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-4, 1e-2, 1.0]))
    n_a, n_b = draw(st.integers(1, 7)), draw(st.integers(1, 40))
    s_a, e_a = random_segments(rng, n_a, scale)
    s_b, e_b = random_segments(rng, n_b, scale)
    shared = rng.random(min(n_a, n_b)) < draw(st.sampled_from([0.0, 0.3]))
    s_b[: len(shared)][shared] = s_a[: len(shared)][shared]
    e_b[: len(shared)][shared] = e_a[: len(shared)][shared]

    def pack(s, e):
        n = len(s)
        return PackedFilaments(s, e, np.full(n, 1e-3), np.full(n, 35e-6), rng.uniform(-3, 3, n))

    return pack(s_a, e_a), pack(s_b, e_b)


def tiled_blocks_integral(source, target, order):
    _, w = filament_module._gauss_legendre_01(order)
    p_a, p_b = quadrature_points(source, order), quadrature_points(target, order)
    return tiled_neumann_integral(p_a[:, None], p_b[None, :], w, w)


class TestNeumannQuadrature:
    @settings(max_examples=60, deadline=None)
    @given(filament_sets(), st.sampled_from([8, 12]))
    def test_integral_matches_the_former_formulation(self, sets, order):
        # Every entry is a sum of order^2 positive terms, so both
        # formulations round to within order^2 eps of each other (the
        # largest difference seen is about 0.75 order eps).
        source, target = sets
        _, w = filament_module._gauss_legendre_01(order)
        p_a = np.moveaxis(quadrature_points(source, order), -1, 0)
        p_b = np.moveaxis(quadrature_points(target, order), -1, 0)
        got = filament_module._neumann_integral(
            p_a[:, :, None, :, None], p_b[:, None, :, None, :], np.outer(w, w)
        )
        expected = tiled_blocks_integral(source, target, order)
        assert np.all(np.abs(got - expected) <= order * order * EPS * expected)
        # The block kernel's scale and cosines are those of the oracle.
        q_a, q_b = source.quadrature(order), target.quadrature(order)
        scale = filament_module._neumann_scale(
            q_a.tangents @ q_b.tangents.T, q_a.lengths[:, None], q_b.lengths[None, :]
        )
        block = neumann_mutual_blocks(source, [target], order)[0]
        np.testing.assert_array_equal(block, scale * got)

    @settings(max_examples=40, deadline=None)
    @given(
        filament_sets(),
        filament_sets(),
        st.sampled_from([64, 64 * 3, 64 * 17, 1 << 12, 1 << 14, 1 << 20]),
    )
    def test_entries_do_not_depend_on_the_chunk_or_the_other_targets(
        self, sets, more, chunk
    ):
        source, target = sets
        targets = [more[1], target, more[0], target]
        alone = [neumann_mutual_blocks(source, [t])[0] for t in targets]
        with mock.patch.object(filament_module, "_CHUNK_ELEMENTS", chunk):
            together = neumann_mutual_blocks(source, targets)
            one_by_one = [neumann_mutual_blocks(source, [t])[0] for t in targets]
        for block, single, chunked in zip(together, alone, one_by_one, strict=True):
            assert bits(block) == bits(single) == bits(chunked)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 3))
    def test_pair_kernel_matches_the_former_formulation(self, seed, pieces):
        # mutual_inductance_pairs' composite rule, on pairs it leaves skew.
        rng = np.random.default_rng(seed)
        s, e = random_segments(rng, 8, 1e-2)
        nodes, w = filament_module._gauss_legendre_01(12)
        u = ((np.arange(pieces)[:, None] + nodes[None, :]) / pieces).ravel()
        w = np.tile(w, pieces) / pieces
        points = s[:, None, :] + u[None, :, None] * (e - s)[:, None, :]
        i, j = np.triu_indices(8, 1)
        planes = np.moveaxis(points, -1, 0)
        got = filament_module._neumann_integral(
            planes[:, i, :, None], planes[:, j, None, :], np.outer(w, w)
        )
        expected = tiled_neumann_integral(points[i], points[j], w, w)
        assert np.all(np.abs(got - expected) <= len(u) ** 2 * EPS * expected)


def seeded_board(seed):
    """Six to ten library parts on a 45 mm grid at seeded random poses."""
    rng = np.random.default_rng(seed)
    library = default_library()
    names = rng.choice(library.part_numbers(), size=rng.integers(6, 11), replace=False)
    return [
        library.create(str(name)).current_path.packed.placed(
            Placement2D(
                Vec2(0.045 * (k % 4), 0.045 * (k // 4)),
                rng.uniform(0.0, 2.0 * math.pi),
                float(rng.choice([0.0, 1.5e-3])),
                int(rng.choice([1, -1])),
            )
        )
        for k, name in enumerate(names)
    ]


@pytest.mark.parametrize("seed", range(4))
def test_mutual_row_matches_the_former_quadrature(seed):
    # Near-cancelling rows move far more than eps relative to M itself, so
    # the bound is relative to the sum of the terms' magnitudes.
    board = seeded_board(seed)
    for a, source in enumerate(board):
        targets = board[a + 1 :]
        for target, m in zip(targets, mutual_inductance_row(source, targets), strict=True):
            q_a, q_b = source.quadrature(8), target.quadrature(8)
            matrix = filament_module._neumann_scale(
                q_a.tangents @ q_b.tangents.T, q_a.lengths[:, None], q_b.lengths[None, :]
            ) * tiled_blocks_integral(source, target, 8)
            terms = (source.weights[:, None] * target.weights[None, :]) * matrix
            assert abs(m - terms.sum()) <= 1e-13 * np.abs(terms).sum()
