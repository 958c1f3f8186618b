import random

import mpmath
import pytest
from mpmath import mpf

from pappuslab import boxes as bx
from pappuslab import hilbert as hb
from pappuslab import scalars as sc
from pappuslab.errors import NotNested, OutsideDomain
from pappuslab.hilbert import ConvexQuad
from pappuslab.projective import Point

UNIT_SQUARE = ConvexQuad(bx.STANDARD_CORNERS)


def square_scaled(s, center=(0, 0)):
    """Quad whose chart image in the unit-square chart is the square of
    half-width s about the given center."""
    cx, cy = center
    pts = [(cx - s, cy + s), (cx + s, cy + s), (cx + s, cy - s), (cx - s, cy - s)]
    return ConvexQuad(tuple(UNIT_SQUARE.point_at(p) for p in pts))


def interior_point(rng, scale=0.9):
    return UNIT_SQUARE.point_at(
        (mpf(rng.uniform(-scale, scale)), mpf(rng.uniform(-scale, scale)))
    )


def random_transformation(rng):
    while True:
        m = tuple(
            tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3)
        )
        if sc.det3(m) != 0:
            return m


def test_distance_zero_iff_equal():
    x = UNIT_SQUARE.point_at((mpf("0.3"), mpf("-0.2")))
    assert hb.hilbert_distance(UNIT_SQUARE, x, x) == 0
    y = UNIT_SQUARE.point_at((mpf("0.3"), mpf("-0.1999")))
    assert hb.hilbert_distance(UNIT_SQUARE, x, y) > 0


def test_distance_unit_square_example():
    # from (0,0) to (1/2,0): boundary hits at (-1,0) and (1,0),
    # cross-ratio (1.5/1)*(1/0.5) = 3
    x = UNIT_SQUARE.point_at((mpf(0), mpf(0)))
    y = UNIT_SQUARE.point_at((mpf("0.5"), mpf(0)))
    d = hb.hilbert_distance(UNIT_SQUARE, x, y)
    assert abs(d - mpmath.log(3) / 2) < mpf("1e-30")


def test_metric_axioms_random_triples():
    rng = random.Random(7)
    for _ in range(300):
        x, y, z = (interior_point(rng) for _ in range(3))
        dxy = hb.hilbert_distance(UNIT_SQUARE, x, y)
        dyx = hb.hilbert_distance(UNIT_SQUARE, y, x)
        dxz = hb.hilbert_distance(UNIT_SQUARE, x, z)
        dzy = hb.hilbert_distance(UNIT_SQUARE, z, y)
        assert abs(dxy - dyx) < mpf("1e-10")
        assert dxy >= 0
        assert dxy <= dxz + dzy + mpf("1e-10")


def test_distance_projective_invariance():
    rng = random.Random(11)
    for _ in range(20):
        g = random_transformation(rng)
        x = interior_point(rng)
        y = interior_point(rng)
        d = hb.hilbert_distance(UNIT_SQUARE, x, y)
        quad_g = ConvexQuad(
            tuple(Point(sc.mat_vec(g, v.coords)) for v in UNIT_SQUARE.vertices)
        )
        gx = Point(sc.mat_vec(g, x.coords))
        gy = Point(sc.mat_vec(g, y.coords))
        dg = hb.hilbert_distance(quad_g, gx, gy)
        assert abs(d - dg) < mpf("1e-25")


def test_distance_outside_domain():
    x = UNIT_SQUARE.point_at((mpf(0), mpf(0)))
    out = UNIT_SQUARE.point_at((mpf(2), mpf(0)))
    with pytest.raises(OutsideDomain):
        hb.hilbert_distance(UNIT_SQUARE, x, out)


def test_distance_monotone_in_domain():
    # enlarging the domain decreases the distance
    rng = random.Random(3)
    big = square_scaled(2)
    for _ in range(30):
        x = interior_point(rng)
        y = interior_point(rng)
        if x == y:
            continue
        d_small = hb.hilbert_distance(UNIT_SQUARE, x, y)
        d_big = hb.hilbert_distance(big, x, y)
        assert d_big < d_small


def test_norm_center_of_square():
    # at the center, both boundary hits are at distance 1: norm of a
    # unit axis direction is (1/1 + 1/1)/2 = 1
    x = UNIT_SQUARE.point_at((mpf(0), mpf(0)))
    assert abs(hb.hilbert_norm(UNIT_SQUARE, x, (1, 0)) - 1) < mpf("1e-30")
    assert abs(hb.hilbert_norm(UNIT_SQUARE, x, (0, 1)) - 1) < mpf("1e-30")


def test_norm_homogeneity():
    rng = random.Random(5)
    for _ in range(30):
        x = interior_point(rng)
        v = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        if v == (0, 0):
            continue
        n1 = hb.hilbert_norm(UNIT_SQUARE, x, v)
        n2 = hb.hilbert_norm(UNIT_SQUARE, x, (2 * v[0], 2 * v[1]))
        assert abs(n2 - 2 * n1) < mpf("1e-25")


def test_norm_finite_difference_consistency():
    rng = random.Random(9)
    t = mpf("1e-6")
    for _ in range(20):
        cx = (mpf(rng.uniform(-0.8, 0.8)), mpf(rng.uniform(-0.8, 0.8)))
        v = (mpf(rng.uniform(-1, 1)), mpf(rng.uniform(-1, 1)))
        if v[0] == 0 and v[1] == 0:
            continue
        x = UNIT_SQUARE.point_at(cx)
        y = UNIT_SQUARE.point_at((cx[0] + t * v[0], cx[1] + t * v[1]))
        n = hb.hilbert_norm(UNIT_SQUARE, x, v)
        fd = hb.hilbert_distance(UNIT_SQUARE, x, y) / t
        assert abs(n - fd) < mpf("1e-4") * max(n, 1)


def test_distortion_shrunk_square():
    inner = square_scaled(mpf(1) / 2)
    c = hb.distortion_estimate(inner, UNIT_SQUARE, resolution=16, directions=8)
    assert c > 1


def test_distortion_requires_nesting():
    with pytest.raises(NotNested):
        hb.distortion_estimate(square_scaled(2), UNIT_SQUARE, resolution=8, directions=4)


def test_distortion_nested_box_images():
    # the single-step image tau_1(box) sits inside the box; distortion > 1
    box = bx.from_moduli(bx.BoxModuli(0, 0))
    inner = bx.convex_interior(bx.tau1(box))
    outer = bx.convex_interior(box)
    c = hb.distortion_estimate(inner, outer, resolution=16, directions=8)
    assert c > 1


def test_distortion_composition():
    d1 = UNIT_SQUARE
    d2 = square_scaled(mpf("0.6"), center=(mpf("0.1"), mpf(0)))
    d3 = square_scaled(mpf("0.3"), center=(mpf("0.1"), mpf(0)))
    c31 = hb.distortion_estimate(d3, d1, resolution=16, directions=8)
    c32 = hb.distortion_estimate(d3, d2, resolution=16, directions=8)
    c21 = hb.distortion_estimate(d2, d1, resolution=16, directions=8)
    assert c31 >= c32 * c21 - mpf("1e-3")


def test_distortion_projective_invariance():
    rng = random.Random(17)
    inner = square_scaled(mpf("0.5"), center=(mpf("0.2"), mpf("-0.1")))
    c = hb.distortion_estimate(inner, UNIT_SQUARE, resolution=8, directions=4)
    for _ in range(5):
        g = random_transformation(rng)
        gi = ConvexQuad(tuple(Point(sc.mat_vec(g, v.coords)) for v in inner.vertices))
        go = ConvexQuad(
            tuple(Point(sc.mat_vec(g, v.coords)) for v in UNIT_SQUARE.vertices)
        )
        cg = hb.distortion_estimate(gi, go, resolution=8, directions=4)
        assert abs(c - cg) < mpf("1e-12")
