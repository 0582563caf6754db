"""``Polygon2D.area_samples`` equals the per-margin ``Vec2`` loops bit for bit.

The batch erodes a polygon by every margin in one array pass and samples
every outline at once.  Each set is compared, by the hex form of every
float, with the scalar erosion, boundary samples, centroid and grid of
``area_samples_oracle`` on seeded convex, star and rectilinear (L, U,
notch) polygons, at both placer spacings, with margins that leave a
genuine outline, empty the area or evert it.
"""

from __future__ import annotations

import math
import random

import pytest

from area_samples_oracle import eroded, offset_outline, samples_of, signed_area
from repro.geometry import EPS, Polygon2D, Vec2, convex_hull

SPACINGS = (6e-3, 3e-3)


def convex(rng: random.Random) -> Polygon2D:
    points = [Vec2(rng.uniform(0.0, 0.12), rng.uniform(0.0, 0.09)) for _ in range(12)]
    return Polygon2D(convex_hull(points))


def star(rng: random.Random) -> Polygon2D:
    centre, tips = Vec2(rng.uniform(0.04, 0.06), rng.uniform(0.04, 0.06)), rng.randint(4, 7)
    points = []
    for i in range(2 * tips):
        radius = rng.uniform(0.035, 0.05) if i % 2 == 0 else rng.uniform(0.012, 0.025)
        points.append(centre + Vec2.from_polar(radius, math.pi * i / tips + rng.uniform(-0.1, 0.1)))
    return Polygon2D(points)


def rectilinear(rng: random.Random, shape: str) -> Polygon2D:
    """An L, U or notched outline on a 5 mm grid."""
    w, h = 5e-3 * rng.randint(12, 24), 5e-3 * rng.randint(10, 20)
    a, b = 5e-3 * rng.randint(2, 5), 5e-3 * rng.randint(2, 5)
    corners = {
        "L": [(0, 0), (w, 0), (w, b), (a, b), (a, h), (0, h)],
        "U": [(0, 0), (w, 0), (w, h), (w - a, h), (w - a, b), (a, b), (a, h), (0, h)],
        "notch": [(0, 0), (w, 0), (w, h), (w / 2 + a, h), (w / 2 + a, h - b), (w / 2 - a, h - b),
                  (w / 2 - a, h), (0, h)],
    }[shape]
    return Polygon2D([Vec2(x, y) for x, y in corners])


def polygons(seed: int) -> list[Polygon2D]:
    rng = random.Random(seed)
    return [convex(rng), star(rng), *(rectilinear(rng, s) for s in ("L", "U", "notch"))]


def margins(polygon: Polygon2D, rng: random.Random) -> list[float]:
    """From no erosion to well past half the polygon's width."""
    xmin, ymin, xmax, ymax = polygon.bbox()
    reach = 0.6 * min(xmax - xmin, ymax - ymin)
    return [0.0, *sorted(rng.uniform(0.0, reach) for _ in range(14)), reach]


def hexes(points) -> list[tuple[str, str]]:
    return [(float(x).hex(), float(y).hex()) for x, y in points]


def outcome(polygon: Polygon2D, margin: float) -> str:
    """Which branch of the erosion a margin takes, read off the oracle."""
    if margin <= 0.0:
        return "none"
    if eroded(polygon, margin) is not None:
        return "kept"
    out = offset_outline(polygon, margin)
    if out is None or signed_area(out) < EPS:
        return "emptied"
    return "everted"


@pytest.mark.parametrize("seed", range(6))
def test_batch_equals_per_margin_loops(seed):
    rng = random.Random(1000 + seed)
    seen = set()
    for polygon in polygons(seed):
        wanted = margins(polygon, rng)
        for spacing in SPACINGS:
            batch = polygon.area_samples(wanted, spacing)
            assert len(batch) == len(wanted)
            for margin, got in zip(wanted, batch, strict=True):
                assert hexes(got.tolist()) == hexes(samples_of(polygon, margin, spacing).tolist())
                seen.add(outcome(polygon, margin))
    assert seen == {"none", "kept", "emptied", "everted"}


def test_eversion_falls_back_to_the_area():
    # A U whose 2 mm arms vanish at 1.5 mm while its base still holds an
    # outline: the offset edges cross into an everted shape, which the
    # vertex checks reject, so the U itself is sampled.
    u = Polygon2D([Vec2(0, 0), Vec2(0.06, 0), Vec2(0.06, 0.05), Vec2(0.058, 0.05),
                   Vec2(0.058, 0.02), Vec2(0.002, 0.02), Vec2(0.002, 0.05), Vec2(0, 0.05)])
    assert outcome(u, 1.5e-3) == "everted"
    for spacing in SPACINGS:
        (got,) = u.area_samples([1.5e-3], spacing)
        assert hexes(got.tolist()) == hexes(samples_of(u, 0.0, spacing).tolist())


def test_arm_eroded_to_a_line_leaves_a_dead_edge():
    # The U's 10 mm arms eroded by 5 mm: each arm's top edge shrinks to a
    # point, so two outline vertices coincide.  The outline is kept, and
    # its zero-length edge adds no sample and holds no grid point.
    u = Polygon2D([Vec2(0, 0), Vec2(0.06, 0), Vec2(0.06, 0.05), Vec2(0.05, 0.05),
                   Vec2(0.05, 0.02), Vec2(0.01, 0.02), Vec2(0.01, 0.05), Vec2(0, 0.05)])
    margin = 5e-3
    assert len(offset_outline(u, margin)) > len(eroded(u, margin).vertices)
    for spacing in SPACINGS:
        (got,) = u.area_samples([margin], spacing)
        assert hexes(got.tolist()) == hexes(samples_of(u, margin, spacing).tolist())


@pytest.mark.parametrize("seed", range(3))
def test_eroded_is_one_row_of_the_batch(seed):
    rng = random.Random(2000 + seed)
    for polygon in polygons(seed):
        for margin in margins(polygon, rng):
            want, got = eroded(polygon, margin), polygon.eroded(margin)
            assert (got is None) == (want is None)
            if want is not None:
                assert hexes((v.x, v.y) for v in got.vertices) == hexes(
                    (v.x, v.y) for v in want.vertices
                )


def test_batch_order_and_duplicates_do_not_matter():
    polygon = polygons(7)[3]
    wanted = margins(polygon, random.Random(7))
    single = [polygon.area_samples([m], 6e-3)[0].tolist() for m in wanted]
    shuffled = wanted[::-1] + wanted[:3]
    batch = polygon.area_samples(shuffled, 6e-3)
    for margin, got in zip(shuffled, batch, strict=True):
        assert got.tolist() == single[wanted.index(margin)]
    assert polygon.area_samples([], 6e-3) == []
