import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath
from mpmath import mpf

from pappuslab import boxes as bx
from pappuslab import projective as pj
from pappuslab import scalars as sc
from pappuslab.errors import (
    CoincidentLines,
    CoincidentPoints,
    PappusLabError,
    SingularMatrix,
)


def rational_transformation(rng, bound=7):
    while True:
        m = tuple(
            tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(3))
            for _ in range(3)
        )
        if sc.det3(m) != 0:
            return pj.transformation(m)


def test_point_equality_projective():
    assert pj.Point((1, 2, 3)) == pj.Point((2, 4, 6))
    assert pj.Point((1, 2, 3)) != pj.Point((1, 2, 4))
    assert pj.Point((Fraction(1, 2), 1, 0)) == pj.Point((1, 2, 0))


def test_zero_vector_rejected():
    with pytest.raises(PappusLabError):
        pj.Point((0, 0, 0))
    with pytest.raises(PappusLabError):
        pj.Line((0, 0, 0))


def test_join_examples():
    # [-1:1:0] join [1:0:1] is the line [1:1:-1]
    l = pj.join(pj.Point((-1, 1, 0)), pj.Point((1, 0, 1)))
    assert l == pj.Line((1, 1, -1))
    assert pj.incident(l, pj.Point((-1, 1, 0)))
    assert pj.incident(l, pj.Point((1, 0, 1)))
    # coordinate axes
    assert pj.join(pj.Point((1, 0, 0)), pj.Point((0, 1, 0))) == pj.Line((0, 0, 1))
    # t = [0:1:0] join r = [1:0:1]
    assert pj.join(pj.Point((0, 1, 0)), pj.Point((1, 0, 1))) == pj.Line((1, 0, -1))


def test_join_coincident_raises():
    with pytest.raises(CoincidentPoints):
        pj.join(pj.Point((1, 2, 3)), pj.Point((2, 4, 6)))


@pytest.mark.parametrize(
    "element, op, error",
    [(pj.Point, pj.join, CoincidentPoints), (pj.Line, pj.meet, CoincidentLines)],
    ids=["join", "meet"],
)
def test_exact_join_and_meet_form_one_cross_product(element, op, error, monkeypatch):
    calls = []
    cross = sc.cross

    def counting(u, v):
        calls.append((u, v))
        return cross(u, v)

    monkeypatch.setattr(sc, "cross", counting)
    assert all(type(x) is int for x in op(element((1, 0, 1)), element((0, 1, 2))).coords)
    assert len(calls) == 1
    # proportional input of another scale and sign, after reduction too
    for u, v in [((1, 2, 3), (-2, -4, -6)), ((Fraction(1, 2), 1, Fraction(3, 2)), (-3, -6, -9))]:
        calls.clear()
        with pytest.raises(error):
            op(element(u), element(v))
        assert len(calls) == 1


def test_meet_examples():
    p = pj.meet(pj.Line((1, 0, -1)), pj.Line((-1, 1, 0)))
    assert p == pj.Point((1, 1, 1))
    assert pj.meet(pj.Line((0, 0, 1)), pj.Line((0, 1, 0))) == pj.Point((1, 0, 0))
    assert pj.meet(pj.Line((1, 0, 1)), pj.Line((-1, -1, 0))) == pj.Point((-1, 1, 1))
    with pytest.raises(CoincidentLines):
        pj.meet(pj.Line((1, 0, 1)), pj.Line((2, 0, 2)))


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_join_meet_duality(seed):
    rng = random.Random(seed)
    pts = []
    while len(pts) < 4:
        v = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        if v == (0, 0, 0):
            continue
        if all(not pj.proj_equal(v, p.coords) for p in pts):
            pts.append(pj.Point(v))
    a, b, c, d = pts
    l1, l2 = pj.join(a, b), pj.join(c, d)
    if l1 == l2:
        return
    x = pj.meet(l1, l2)
    assert pj.incident(l1, x) and pj.incident(l2, x)


def test_identity_transformation_on_flag():
    f = pj.Flag(pj.Point((1, 0, 0)), pj.Line((0, 0, 1)))
    g = pj.transformation(sc.IDENTITY)
    out = pj.apply_symmetry(g, f)
    assert out.point == f.point and out.line == f.line


def test_identity_polarity_swaps():
    f = pj.Flag(pj.Point((1, 0, 0)), pj.Line((0, 0, 1)))
    d = pj.duality(sc.IDENTITY)
    out = pj.apply_symmetry(d, f)
    assert out.point == pj.Point((0, 0, 1))
    assert out.line == pj.Line((1, 0, 0))


def test_symmetry_inverts_its_matrix_once(monkeypatch):
    # at construction, where a singular matrix raises; mapping a box's six
    # lines reads the stored inverse
    with pytest.raises(SingularMatrix):
        pj.duality(((1, 2, 3), (2, 4, 6), (0, 0, 1)))
    calls = []
    inverse = sc.mat_inverse
    monkeypatch.setattr(sc, "mat_inverse", lambda m: calls.append(m) or inverse(m))
    d = pj.duality(((2, -1, 0), (1, 3, 1), (0, 1, -2)))
    bx.apply_symmetry_to_box(d, bx.SPECIAL_BOX)
    assert len(calls) == 1


def test_polarity_involution_on_flags():
    # a symmetric positive matrix acts as a polarity; applying twice restores
    m = ((1, Fraction(-1, 2), Fraction(-1, 3)),
         (Fraction(-1, 2), 1, Fraction(1, 6)),
         (Fraction(-1, 3), Fraction(1, 6), 1))
    d = pj.duality(m)
    assert d.is_polarity()
    rng = random.Random(11)
    for _ in range(10):
        p = pj.Point((rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9)))
        l = pj.Line(sc.cross(p.coords, (rng.randint(1, 7), rng.randint(-7, 7), rng.randint(-7, 7))))
        if not pj.incident(l, p):
            continue
        f = pj.Flag(p, l)
        back = pj.apply_symmetry(d, pj.apply_symmetry(d, f))
        assert back.point == f.point and back.line == f.line


def test_proj_equal_mat_is_exact_up_to_sign_and_scale():
    m = ((1, Fraction(-1, 2), 0), (2, 3, Fraction(1, 3)), (0, 0, 5))
    assert pj.proj_equal_mat(m, sc.mat_scale(m, Fraction(-6, 7)))
    assert not pj.proj_equal_mat(m, sc.IDENTITY)
    assert not pj.proj_equal_mat(m, sc.mat_transpose(m))
    with pytest.raises(TypeError):
        pj.proj_equal_mat(sc.mat_to_mpf(m), m)
    with pytest.raises(TypeError):
        pj.proj_equal_mat(sc.IDENTITY, sc.mat_to_mpf(sc.IDENTITY))


def test_flag_incidence_enforced():
    with pytest.raises(PappusLabError):
        pj.Flag(pj.Point((1, 0, 0)), pj.Line((1, 0, 0)))


def test_flags_stay_flags_under_symmetry():
    rng = random.Random(5)
    f = pj.Flag(pj.Point((1, 1, 1)), pj.Line((1, -1, 0)))
    for _ in range(20):
        g = rational_transformation(rng)
        out = pj.apply_symmetry(g, f)  # Flag constructor re-validates incidence
        assert pj.incident(out.line, out.point)


def test_composition_kinds():
    rng = random.Random(2)
    t1, t2 = rational_transformation(rng), rational_transformation(rng)
    d = pj.duality(((2, 1, 0), (1, 3, 0), (0, 0, 1)))
    assert not t1.compose(t2).is_duality
    assert d.compose(t1).is_duality
    assert t1.compose(d).is_duality
    assert not d.compose(d).is_duality


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_composition_action_consistency(seed):
    # applying a composition to a flag equals applying the factors in turn
    rng = random.Random(seed)
    f = pj.Flag(pj.Point((1, 1, 1)), pj.Line((1, -1, 0)))
    parts = []
    for _ in range(3):
        if rng.random() < 0.5:
            parts.append(rational_transformation(rng))
        else:
            m = rational_transformation(rng).matrix
            s = sc.mat_mul(m, sc.mat_transpose(m))  # symmetric, invertible
            parts.append(pj.duality(s))
    composed = parts[0].compose(parts[1]).compose(parts[2])
    step = pj.apply_symmetry(parts[0], pj.apply_symmetry(parts[1], pj.apply_symmetry(parts[2], f)))
    direct = pj.apply_symmetry(composed, f)
    assert step.point == direct.point and step.line == direct.line


def test_inverse():
    rng = random.Random(9)
    f = pj.Flag(pj.Point((1, 1, 1)), pj.Line((1, -1, 0)))
    g = rational_transformation(rng)
    d = pj.duality(((2, 1, 0), (1, 3, 1), (0, 1, 4)))
    for s in (g, d):
        round_trip = pj.apply_symmetry(s.inverse(), pj.apply_symmetry(s, f))
        assert round_trip.point == f.point and round_trip.line == f.line


def test_float_mode_equality():
    # float points are equal when their coordinates round to the same ints:
    # a change below the unit of the P + 16-bit rounding vanishes, one of
    # 1e-3 does not
    p = pj.Point((mpf(1), mpf(2), mpf(3)))
    tiny = mpf(2) ** -(mpmath.mp.prec + 20)
    with mpmath.workprec(mpmath.mp.prec + 40):
        nudged = 1 + tiny
    assert nudged != 1
    q = pj.Point((nudged, mpf(2), mpf(3)))
    assert p == q
    r = pj.Point((mpf("1.001"), mpf(2), mpf(3)))
    assert p != r


@given(
    st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=3).filter(any),
    st.sampled_from([mpf(10) ** 30, mpf(10) ** -30, mpf(2) ** 530, mpf(2) ** -530]),
    st.sampled_from([pj.Point, pj.Line]),
)
@settings(max_examples=50, deadline=None)
def test_float_coordinates_have_max_entry_one(ints, scale, kind):
    # float coordinates are rounded to ints which, over their max |entry|,
    # have max entry one and give the input over its max |entry| up to the
    # rounding of the scale (none for a power of two); a Fraction among
    # them is rounded to nearest first
    coords = kind(tuple(mpf(x) * scale for x in ints)).coords
    top = sc.vec_max_abs(coords)
    unit = [Fraction(x, top) for x in coords]
    assert max(abs(x) for x in unit) == 1
    ints_top = max(abs(x) for x in ints)
    epsilon = Fraction(1, 2 ** (mpmath.mp.prec - 8))  # sc.float_epsilon()
    assert max(abs(x - Fraction(y, ints_top)) for x, y in zip(unit, ints)) <= epsilon
    unscaled = kind(tuple(mpf(x) for x in ints)).coords
    if scale in (mpf(2) ** 530, mpf(2) ** -530):
        assert coords == unscaled
    mixed = kind((Fraction(ints[0], 3), mpf(ints[1]), ints[2])).coords
    assert mixed == kind(sc.vec_to_mpf((Fraction(ints[0], 3), ints[1], ints[2]))).coords


@given(
    st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=3).filter(any),
    st.sampled_from([53, 64, 128, 256]),
    st.sampled_from([pj.Point, pj.Line]),
)
@settings(max_examples=80, deadline=None)
def test_float_coordinates_are_rounded_once(ints, bits, kind):
    # float input is rounded once, as the scaled kernel rounds, to coprime
    # ints of at most P + 16 bits
    with mpmath.workprec(bits):
        values = tuple(mpf(x) / 7 for x in ints)
        coords = kind(values).coords
        assert all(type(x) is int for x in coords)
        assert math.gcd(*coords) == 1
        assert max(abs(x) for x in coords).bit_length() <= bits + sc.SCALED_GUARD_BITS
        assert coords == sc.vec_exact_reduce(sc.to_scaled(values))
        # a power-of-two scale changes no int
        for scale in (mpf(2) ** 530, mpf(2) ** -530):
            assert kind(sc.vec_scale(values, scale)).coords == coords
        # another scale rounds each scaled entry by at most 2^-P relative,
        # so the vector over its max entry moves by at most 2 units of 2^-P
        # and the P + 16-bit rounding (1.82 measured in 12000 draws); 4
        # units leave room
        for scale in (mpf(10) ** 30, mpf(10) ** -30):
            moved = kind(sc.vec_scale(values, scale)).coords
            top, moved_top = sc.vec_max_abs(coords), sc.vec_max_abs(moved)
            assert max(abs(Fraction(x, top) - Fraction(y, moved_top)) for x, y in zip(coords, moved)) <= Fraction(1, 2 ** (bits - 2))
        # a Fraction among the mpf values is rounded to nearest first
        mixed = kind((Fraction(ints[0], 3), values[1], ints[2])).coords
        nearest = mpmath.mpf(ints[0]) / 3
        assert mixed == kind((nearest, values[1], mpf(ints[2]))).coords
        assert kind((mpf(1), mpf(2), mpf(3))) != kind((mpf("1.001"), mpf(2), mpf(3)))
