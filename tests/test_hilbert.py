import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mpf

from pappuslab import boxes as bx
from pappuslab import hilbert as hb
from pappuslab import representation as rp
from pappuslab import scalars as sc
from pappuslab.errors import NotNested, OutsideDomain, PappusLabError
from pappuslab.hilbert import ConvexQuad
from pappuslab.modular import W_STEPS
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


# ---------------------------------------------------------------------------
# reference: the vectorized numpy kernel that distortion_estimate replaced;
# the pure-Python kernel must give the same float64 bits


def _np_forward_time(px, py, dx, dy):
    safe_dx = np.where(dx == 0, 1.0, dx)
    safe_dy = np.where(dy == 0, 1.0, dy)
    tx = np.where(dx > 0, (1 - px) / safe_dx, (-1 - px) / safe_dx)
    ty = np.where(dy > 0, (1 - py) / safe_dy, (-1 - py) / safe_dy)
    tx = np.where(dx == 0, np.inf, tx)
    ty = np.where(dy == 0, np.inf, ty)
    return np.minimum(tx, ty)


def _np_square_norm(px, py, dx, dy):
    t_plus = _np_forward_time(px, py, dx, dy)
    t_minus = _np_forward_time(px, py, -dx, -dy)
    return (1 / t_minus + 1 / t_plus) / 2


def ref_distortion_estimate(inner, outer, resolution, directions):
    slack = 1 + mpmath.sqrt(sc.float_epsilon())
    for v in inner.vertices:
        cx, cy = (sc.to_mpf(c) for c in outer.chart(v))
        if abs(cx) > slack or abs(cy) > slack:
            raise NotNested("inner quad closure must sit inside the outer quad")
    m = sc.mat_mul(sc.mat_to_mpf(outer.basis), sc.mat_inverse(sc.mat_to_mpf(inner.basis)))
    mf = np.array([[float(x) for x in row] for row in m])
    ax = mf[:, 0]
    ay = (mf[:, 1] - mf[:, 2]) / 2
    c0 = (mf[:, 1] + mf[:, 2]) / 2
    ticks = np.linspace(-1 + 1.0 / resolution, 1 - 1.0 / resolution, resolution)
    px, py = np.meshgrid(ticks, ticks)
    px = px.ravel()[None, :]
    py = py.ravel()[None, :]
    angles = np.arange(directions) * math.pi / directions
    dx = np.cos(angles)[:, None]
    dy = np.sin(angles)[:, None]
    norm_inner = _np_square_norm(px, py, dx, dy)
    h = ax[:, None] * px[0] + ay[:, None] * py[0] + c0[:, None]
    w = h[1] + h[2]
    if np.any(w == 0):
        raise NotNested("image grid touches the chart horizon")
    qx = h[0] / w
    qy = (h[1] - h[2]) / w
    if np.max(np.abs(qx)) >= 1 or np.max(np.abs(qy)) >= 1:
        raise NotNested("sampled interior point escapes the outer quad")
    dh = ax[:, None, None] * dx[None, :, :] + ay[:, None, None] * dy[None, :, :]
    dw = dh[1] + dh[2]
    jx = (dh[0] * w[None, :] - h[0][None, :] * dw) / (w * w)[None, :]
    jy = ((dh[1] - dh[2]) * w[None, :] - (h[1] - h[2])[None, :] * dw) / (w * w)[None, :]
    norm_outer = _np_square_norm(qx[None, :], qy[None, :], jx, jy)
    return mpf(float(np.min(norm_inner / norm_outer)))


SHAPES = ((16, 8), (8, 4), (6, 4))


def _outcome(estimate, inner, outer, shape):
    try:
        c = estimate(inner, outer, *shape)
    except NotNested:
        return "NotNested"
    return "nan" if mpmath.isnan(c) else c


def assert_matches_reference(inner, outer):
    for shape in SHAPES:
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = _outcome(ref_distortion_estimate, inner, outer, shape)
        assert _outcome(hb.distortion_estimate, inner, outer, shape) == expected, shape


def step_quads(moduli, lam):
    """(inner, outer) for the four step-word images, as constant_C builds them."""
    rep = rp.Representation(moduli, lam)
    box = bx.from_moduli(moduli)
    outer = bx.convex_interior(box)
    return [
        (bx.convex_interior(bx.apply_matrix(box, rep.step_images[w])), outer) for w in W_STEPS
    ]


tenths_moduli = (
    st.tuples(st.integers(-8, 8), st.integers(-8, 8))
    .filter(lambda t: t != (0, 0))
    .map(lambda t: bx.BoxModuli(Fraction(t[0], 10), Fraction(t[1], 10)))
)


@settings(max_examples=25, deadline=None)
@given(tenths_moduli, st.floats(-0.25, -0.05), st.floats(-0.02, 0.02))
def test_distortion_matches_reference_float_lambda(moduli, eps, delta):
    for inner, outer in step_quads(moduli, bx.Lambda(epsilon=eps, delta=delta)):
        # convex_interior hands its theta_basis to the quad
        assert inner.basis == ConvexQuad(inner.vertices).basis
        assert_matches_reference(inner, outer)


@settings(max_examples=15, deadline=None)
@given(tenths_moduli, st.integers(70, 100), st.integers(96, 104))
def test_distortion_matches_reference_exact_lambda(moduli, u, v):
    # reaches outside the region too, where some images are not nested
    try:
        pairs = step_quads(moduli, bx.Lambda(u=Fraction(u, 100), v=Fraction(v, 100)))
    except PappusLabError:
        assume(False)
    for inner, outer in pairs:
        assert_matches_reference(inner, outer)


def _scaled(quad, s):
    return ConvexQuad(tuple(Point(sc.vec_scale(v.coords, s)) for v in quad.vertices))


def _reference_cases():
    box = bx.from_moduli(bx.BoxModuli(0, 0))
    d2 = square_scaled(mpf("0.6"), center=(mpf("0.1"), mpf(0)))
    d3 = square_scaled(mpf("0.3"), center=(mpf("0.1"), mpf(0)))
    off = square_scaled(mpf("0.5"), center=(mpf("0.2"), mpf("-0.1")))
    moduli = bx.BoxModuli(Fraction(3, 10), Fraction(-2, 10))
    inner, outer = step_quads(moduli, bx.Lambda(epsilon=mpf("-0.15"), delta=mpf("0.01")))[0]
    return {
        "half": (square_scaled(mpf(1) / 2), UNIT_SQUARE),
        "not_nested": (square_scaled(2), UNIT_SQUARE),
        "tau1": (bx.convex_interior(bx.tau1(box)), bx.convex_interior(box)),
        "d3_in_d1": (d3, UNIT_SQUARE),
        "d3_in_d2": (d3, d2),
        "d2_in_d1": (d2, UNIT_SQUARE),
        "off_center": (off, UNIT_SQUARE),
        "scaled_0": (inner, outer),
    }


@pytest.mark.parametrize("name", sorted(_reference_cases()))
def test_distortion_matches_reference_squares(name):
    assert_matches_reference(*_reference_cases()[name])


# the transition matrix is scaled to max |entry| near 1 before float64:
# without that, scaling the outer quad's homogeneous coordinates by 1e161
# or more underflowed the float64 transition (zero Jacobians, then zero
# outer norms and a nan minimum)


@pytest.mark.parametrize("power", [-530, 530])
def test_distortion_bit_equal_under_power_of_two_scaling(power):
    # the outer basis is scaled directly, so the power of two reaches the
    # transition matrix with either sign (coordinates scaled down would
    # first trip the scale-dependent singularity test of frame_matrix)
    inner, outer = _reference_cases()["scaled_0"]
    s = mpf(2) ** power
    outers = [ConvexQuad(outer.vertices, basis=sc.mat_scale(sc.mat_to_mpf(outer.basis), s))]
    if power > 0:
        outers.append(_scaled(outer, s))
    for shape in SHAPES:
        c = hb.distortion_estimate(inner, outer, *shape)
        for scaled in outers:
            assert hb.distortion_estimate(inner, scaled, *shape) == c, shape


@pytest.mark.parametrize("exponent", [161, 161.5, 162, 163])
def test_distortion_is_scale_invariant(exponent):
    inner, outer = _reference_cases()["scaled_0"]
    for shape in SHAPES:
        c = hb.distortion_estimate(inner, outer, *shape)
        scaled = hb.distortion_estimate(inner, _scaled(outer, mpf(10) ** exponent), *shape)
        assert abs(scaled - c) <= mpf("1e-12") * c, shape
