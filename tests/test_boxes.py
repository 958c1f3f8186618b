import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pappuslab import boxes as bx
from pappuslab import hilbert as hb
from pappuslab import projective as pj
from pappuslab import scalars as sc
from pappuslab.errors import DegenerateBox, InvalidModuli, NotConvex, PappusLabError
from pappuslab.projective import Point


def random_convex_moduli(rng):
    zt = Fraction(rng.randint(-8, 8), 10)
    zb = Fraction(rng.randint(-8, 8), 10)
    return bx.BoxModuli(zt, zb)


def random_convex_box(rng):
    """A random rational convex box: random moduli moved by a random map."""
    box = bx.from_moduli(random_convex_moduli(rng))
    for _ in range(40):
        m = tuple(
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
            for _ in range(3)
        )
        if sc.det3(m) != 0:
            try:
                return bx.apply_matrix(box, m)
            except Exception:
                continue
    return box


def random_lambda(rng):
    u = Fraction(rng.randint(5, 15), 10)
    v = Fraction(rng.randint(5, 15), 10)
    return bx.Lambda(u=u, v=v)


def inside(box, point, strict=True):
    """Whether a point lies in the convex interior of a box: the chart
    test of ``containment_check``, in the box's adapted basis."""
    return bx.in_standard_interior(sc.mat_vec(bx.interior_basis(box), point.coords), strict)


# chart coordinates of an 8 x 8 grid of interior sample points
TICKS = [Fraction(2 * k + 1, 8) - 1 for k in range(8)]


def test_from_moduli_special():
    box = bx.SPECIAL_BOX
    assert box.t == Point((0, 1, 0))
    assert box.b == Point((0, 0, 1))


def test_from_moduli_lines():
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(1, 3)))
    assert box.t == Point((Fraction(1, 2), 1, 0))
    assert box.b == Point((Fraction(1, 3), 0, 1))
    # P = join(t, s) = [1 : -zeta_t : 1]
    assert box.line_P == pj.Line((1, Fraction(-1, 2), 1))
    assert box.line_Q == pj.Line((-1, Fraction(1, 2), 1))
    assert box.line_R == pj.Line((-1, 1, Fraction(1, 3)))
    assert box.line_S == pj.Line((1, 1, Fraction(-1, 3)))
    assert box.line_T == pj.Line((0, 0, 1))
    assert box.line_B == pj.Line((0, 1, 0))


def test_from_moduli_nonconvex_ok():
    box = bx.from_moduli(bx.BoxModuli(2, 0))
    assert not bx.is_convex(box)


def test_invalid_moduli():
    with pytest.raises(InvalidModuli):
        bx.BoxModuli(1, 0)
    with pytest.raises(InvalidModuli):
        bx.BoxModuli(Fraction(1, 2), -1)


def test_box_invariants_enforced():
    # t must lie on the line pq
    with pytest.raises(DegenerateBox):
        bx.OvermarkedBox(
            p=Point((-1, 1, 0)), q=Point((1, 1, 0)), r=Point((1, 0, 1)),
            s=Point((-1, 0, 1)), t=Point((0, 1, 1)), b=Point((0, 0, 1)),
        )
    # t = TB is forbidden
    with pytest.raises(DegenerateBox):
        bx.OvermarkedBox(
            p=Point((-1, 1, 0)), q=Point((1, 1, 0)), r=Point((1, 0, 1)),
            s=Point((-1, 0, 1)), t=Point((1, 0, 0)), b=Point((0, 0, 1)),
        )


def test_theta_basis_standard():
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(1, 3)))
    g = bx.theta_basis(box)
    assert pj.proj_equal_mat(g, sc.IDENTITY)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_theta_basis_undoes_transformation(seed):
    rng = random.Random(seed)
    m = random_convex_moduli(rng)
    box = bx.from_moduli(m)
    while True:
        g = tuple(
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
            for _ in range(3)
        )
        if sc.det3(g) != 0:
            break
    try:
        moved = bx.apply_matrix(box, g)
    except Exception:
        return
    basis = bx.theta_basis(moved)
    assert pj.proj_equal_mat(basis, sc.mat_inverse(g))
    got = bx.moduli(moved)
    assert got.zeta_t == m.zeta_t and got.zeta_b == m.zeta_b


def test_moduli_special_and_j():
    assert bx.moduli(bx.SPECIAL_BOX) == bx.BoxModuli(0, 0)
    j_special = bx.transform_j(bx.SPECIAL_BOX)
    assert bx.moduli(j_special) == bx.BoxModuli(0, 0)
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(1, 3)))
    mj = bx.moduli(bx.transform_j(box))
    assert mj.zeta_t == Fraction(-1, 2) and mj.zeta_b == Fraction(-1, 3)


def test_tau1_special_box():
    child = bx.tau1(bx.SPECIAL_BOX)
    assert child.p == bx.SPECIAL_BOX.p and child.q == bx.SPECIAL_BOX.q
    assert child.r == Point((1, 1, 1))
    assert child.s == Point((-1, 1, 1))
    assert child.t == bx.SPECIAL_BOX.t
    assert child.b == Point((0, 1, 1))


def test_i_is_involution():
    rng = random.Random(4)
    for _ in range(10):
        box = random_convex_box(rng)
        twice = bx.transform_i(bx.transform_i(box))
        # the square of the flip is j, so it is trivial on marked boxes
        assert twice == bx.transform_j(box)
        assert bx.marked_equal(twice, box)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_relations_undeformed(seed):
    rng = random.Random(seed)
    box = random_convex_box(rng)
    i, t1, t2, eq = bx.transform_i, bx.tau1, bx.tau2, bx.marked_equal
    # tau1 i tau2 = i  and  tau2 i tau1 = i  (as maps: left factor applied last)
    assert eq(t1(i(t2(box))), i(box))
    assert eq(t2(i(t1(box))), i(box))
    # tau1 i tau1 = tau2  and  tau2 i tau2 = tau1
    assert eq(t1(i(t1(box))), t2(box))
    assert eq(t2(i(t2(box))), t1(box))


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_relations_deformed(seed):
    rng = random.Random(seed)
    box = random_convex_box(rng)
    lam = random_lambda(rng)

    def il(b):
        return bx.i_lambda(b, lam)

    def t1l(b):
        return bx.tau1_lambda(b, lam)

    def t2l(b):
        return bx.tau2_lambda(b, lam)

    eq = bx.marked_equal
    assert eq(il(il(box)), box)
    assert eq(t1l(il(t2l(box))), il(box))
    assert eq(t2l(il(t1l(box))), il(box))
    assert eq(t1l(il(t1l(box))), t2l(box))
    assert eq(t2l(il(t2l(box))), t1l(box))
    # (i_lam tau1_lam)^3 = identity
    cur = box
    for _ in range(3):
        cur = il(t1l(cur))
    assert eq(cur, box)


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_yolo_and_sigma_inverse(seed):
    rng = random.Random(seed)
    box = random_convex_box(rng)
    lam = random_lambda(rng)
    # i_lam tau1_lam = i tau1 undeformed
    left = bx.i_lambda(bx.tau1_lambda(box, lam), lam)
    right = bx.transform_i(bx.tau1(box))
    assert bx.marked_equal(left, right)
    # sigma_(-eps,-delta) inverts sigma_(eps,delta)
    if lam.exact:
        negated = bx.Lambda(u=1 / lam.u, v=1 / lam.v)
    else:
        negated = bx.Lambda(epsilon=-lam.epsilon, delta=-lam.delta)
    assert bx.transform_sigma(bx.transform_sigma(box, lam), negated) == box


def test_sigma_zero_is_identity():
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(1, 3)))
    assert bx.transform_sigma(box, bx.LAMBDA_ZERO) == box


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_sigma_commutes_with_transformations(seed):
    rng = random.Random(seed)
    box = random_convex_box(rng)
    lam = random_lambda(rng)
    while True:
        g = tuple(
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
            for _ in range(3)
        )
        if sc.det3(g) != 0:
            break
    try:
        a = bx.apply_matrix(bx.transform_sigma(box, lam), g)
        b = bx.transform_sigma(bx.apply_matrix(box, g), lam)
    except Exception:
        return
    assert a == b


# ---------------------------------------------------------------------------
# closed forms of the deformation parameter's values, computed here from
# lam's own (epsilon, delta) or (u, v) on every call


def closed_form_values(lam):
    """(cosh eps, sinh eps, e^delta, e^-delta)."""
    if lam.exact:
        u, v = lam.u, lam.v
        return (u + 1 / u) / 2, (u - 1 / u) / 2, v, 1 / v
    eps, delta = lam.epsilon, lam.delta
    return mpmath.cosh(eps), mpmath.sinh(eps), mpmath.exp(delta), mpmath.exp(-delta)


def closed_form_sigma(lam):
    """The deformation matrix of unit determinant."""
    ch, sh, ed, emd = closed_form_values(lam)
    return ((1, 0, 0), (0, emd * ch, -sh), (0, -sh, ed * ch))


def region_f(lam):
    """f(epsilon, delta) = e^-delta cosh(eps) - sinh(eps) - 1."""
    ch, sh, _, emd = closed_form_values(lam)
    return emd * ch - sh - 1


def two_lambda_in_region(lam, strict=False):
    """f(eps, delta) and f(eps, -delta), the second from a second Lambda."""
    if lam.exact:
        negated = bx.Lambda(u=lam.u, v=1 / lam.v)
    else:
        negated = bx.Lambda(epsilon=lam.epsilon, delta=-lam.delta)
    a, b = region_f(lam), region_f(negated)
    return a > 0 and b > 0 if strict else a >= 0 and b >= 0


exact_lambdas = st.builds(
    lambda u, v: bx.Lambda(u=u, v=v),
    st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=60),
    st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=60),
)
# (epsilon, delta), built into a Lambda at the precision under test
float_params = st.tuples(st.floats(-3, 3), st.floats(-3, 3))


@given(st.one_of(exact_lambdas, float_params), st.sampled_from([53, 64, 128, 256]))
@settings(max_examples=80, deadline=None)
def test_lambda_values_match_closed_forms(lam, prec):
    with mpmath.workprec(prec):
        if isinstance(lam, tuple):
            lam = bx.Lambda(epsilon=lam[0], delta=lam[1])
        for strict in (False, True):
            assert bx.in_region(lam, strict) == two_lambda_in_region(lam, strict)
        closed = closed_form_sigma(lam)
        if not lam.exact:
            assert lam.prec == prec
            assert [[x._mpf_ if type(x) is mpf else x for x in row] for row in lam.sigma] == [
                [x._mpf_ if type(x) is mpf else x for x in row] for row in closed
            ]
            return
        # the coprime integral positive multiple of the det-one matrix
        assert lam.prec is None
        assert sc.det3(closed) == 1
        scale = lam.sigma[0][0]
        assert all(type(x) is int for row in lam.sigma for x in row)
        assert scale > 0 and math.gcd(*(x for row in lam.sigma for x in row)) == 1
        assert lam.sigma == tuple(tuple(scale * x for x in row) for row in closed)


def test_region_membership():
    assert region_f(bx.LAMBDA_ZERO) == 0
    assert bx.in_region(bx.LAMBDA_ZERO)
    assert not bx.in_region(bx.LAMBDA_ZERO, strict=True)
    lam_in = bx.Lambda(epsilon=-0.2, delta=0)
    assert bx.in_region(lam_in, strict=True)
    lam_out = bx.Lambda(epsilon=0.5, delta=0)
    assert not bx.in_region(lam_out)


def test_containment_matches_region():
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(-1, 3)))
    cases = [
        bx.LAMBDA_ZERO,
        bx.Lambda(u=Fraction(8, 10), v=Fraction(1, 1)),
        bx.Lambda(u=Fraction(15, 10), v=Fraction(1, 1)),
        bx.Lambda(u=Fraction(9, 10), v=Fraction(11, 10)),
        bx.Lambda(u=Fraction(6, 10), v=Fraction(14, 10)),
        bx.Lambda(u=Fraction(1, 1), v=Fraction(2, 1)),
    ]
    for lam in cases:
        assert bx.containment_check(box, lam) == bx.in_region(lam)
        assert bx.containment_check(box, lam, strict=True) == bx.in_region(lam, strict=True)


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_nesting(seed):
    rng = random.Random(seed)
    box = bx.from_moduli(random_convex_moduli(rng))
    c1, c2 = bx.tau1(box), bx.tau2(box)
    flipped = bx.transform_i(box)

    def grid(b):
        quad = hb.convex_interior(b)
        return [quad.point_at((x, y)) for x in TICKS for y in TICKS]

    # undeformed children share two corners with the parent, so the
    # inclusion is of open interiors, proper but not strict on closures
    for child in (c1, c2):
        assert all(inside(box, v, strict=False) for v in child.points[:4])
        assert all(inside(box, pt) for pt in grid(child))
    assert not all(inside(box, v) for v in c1.points[:4])
    # siblings, and a box and its flip, have disjoint open interiors
    for one, two in ((c1, c2), (box, flipped)):
        for a, b in ((one, two), (two, one)):
            assert not any(inside(a, v) for v in b.points[:4])
            assert not any(inside(a, pt) for pt in grid(b))


def test_strict_nesting_deformed():
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(1, 3)))
    lam = bx.Lambda(u=Fraction(8, 10), v=Fraction(1, 1))  # eps < 0, interior of R
    assert bx.in_region(lam, strict=True)
    for child in (bx.tau1_lambda(box, lam), bx.tau2_lambda(box, lam)):
        assert all(inside(box, v) for v in child.points[:4])


def test_convex_interior_center():
    quad = hb.convex_interior(bx.SPECIAL_BOX)
    center = Point((0, 1, 1))
    assert quad.point_at((0, 0)) == center
    assert inside(bx.SPECIAL_BOX, center)
    with pytest.raises(NotConvex):
        hb.convex_interior(bx.from_moduli(bx.BoxModuli(2, 0)))


def test_moduli_equivalence():
    # the moduli pairs equivalent to (zeta_t, zeta_b) are the four that
    # the duality action visits before it returns; the special box is fixed
    d = pj.duality(sc.IDENTITY)
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(1, 3)))
    orbit = []
    for _ in range(4):
        orbit.append(bx.moduli(box))
        box = bx.apply_symmetry_to_box(d, box)
    assert bx.moduli(box) == orbit[0]
    assert orbit[1] == bx.BoxModuli(Fraction(-1, 3), Fraction(1, 2))
    assert bx.BoxModuli(Fraction(1, 3), Fraction(1, 2)) not in orbit
    assert len(set(orbit)) == 4
    assert bx.moduli(bx.apply_symmetry_to_box(d, bx.SPECIAL_BOX)) == bx.BoxModuli(0, 0)


def test_marked_box_class_equality():
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(1, 3)))
    assert bx.marked_equal(box, bx.transform_j(box))
    other = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(1, 4)))
    assert not bx.marked_equal(box, other)


def dual_box(box):
    """The dual box (P, Q, R, S; T, B) in the dual plane.

    The top points P, Q, T of the dual all pass through t in the
    original plane, and the bottom points R, S, B through b, so the
    incidence pattern of a box is preserved with no reordering.
    """
    return bx.OvermarkedBox(*(Point(line.coords) for line in box.lines))


def test_dual_box_structure():
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(1, 3)))
    db = dual_box(box)
    # dualizing twice returns the same marked box
    assert bx.marked_equal(dual_box(db), box)
    # the plain dual swaps and negates the moduli
    m = bx.moduli(db)
    assert m.zeta_t == Fraction(-1, 3) and m.zeta_b == Fraction(-1, 2)


def test_duality_action_rotates_moduli():
    # the duality action (with its reordering) realizes the order-4
    # rotation (zeta_t, zeta_b) -> (-zeta_b, zeta_t) on moduli
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(1, 3)))
    d = pj.duality(sc.IDENTITY)
    img = bx.apply_symmetry_to_box(d, box)
    assert bx.moduli(img) == bx.BoxModuli(Fraction(-1, 3), Fraction(1, 2))


def test_dual_reversal():
    # inclusions reverse in the dual plane: the dual of a Pappus child
    # contains the dual of its parent (open interiors; the quads share
    # two boundary corners, so the inclusion is not strict at closures)
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(1, 3)))
    db = dual_box(box)
    quad = hb.convex_interior(db)
    grid = [quad.point_at((x, y)) for x in TICKS for y in TICKS]
    for child in (bx.tau1(box), bx.tau2(box)):
        dc = dual_box(child)
        assert all(inside(dc, corner, strict=False) for corner in db.points[:4])
        assert all(inside(dc, pt) for pt in grid)
        # proper inclusion: the child's dual interior is strictly bigger
        assert not all(inside(db, corner, strict=False) for corner in dc.points[:4])


def test_chart_coords_float_branch_rounds_as_to_mpf():
    # the float branch divides mpf values it has just computed without
    # re-wrapping them, and converts exact ones first
    def reference(coords):
        x, y, z = coords
        w = y + z
        return (sc.to_mpf(x) / sc.to_mpf(w), sc.to_mpf(y - z) / sc.to_mpf(w))

    third = Fraction(1, 3)
    for coords in [
        (mpf("0.3"), mpf("0.7"), mpf("0.2")),
        (third, mpf("0.7"), Fraction(2, 7)),
        (mpf("0.3"), third, Fraction(2, 7)),
        (0.25, mpf(1) / 3, 0.5),
        (mpf("-1e-30"), mpf("1e30"), mpf(3)),
    ]:
        assert bx.chart_coords(coords) == reference(coords)


# ---------------------------------------------------------------------------
# float predicates do not see the scale of homogeneous coordinates


def _predicates(box, lam, raw):
    """Every scale-sensitive predicate on one float box, whose points were
    built from the coordinate vectors ``raw``."""
    p, q, r, s = box.p, box.q, box.r, box.s

    def succeeds(build):
        try:
            build()
        except PappusLabError:
            return False
        return True

    convex = bx.is_convex(box)
    return (
        pj.incident(box.line_T, box.t),
        pj.incident(box.line_B, box.b),
        pj.incident(box.line_T, r),
        pj.incident(box.line_P, box.b),
        tuple(pj.proj_equal(u, v) for u in raw for v in raw + [x.coords for x in box.points]),
        succeeds(lambda: pj.frame_matrix(p, q, r, s)),
        succeeds(lambda: pj.frame_matrix(p, q, box.t, s)),
        convex,
        convex and bx.containment_check(box, lam),
        convex and bx.containment_check(box, lam, strict=True),
        succeeds(lambda: hb.ConvexQuad((p, q, r, s))),
        succeeds(lambda: hb.ConvexQuad((p, r, q, s))),
    )


SCALES = [(10, 30), (10, -30), (2, 530), (2, -530)]
float_entries = st.integers(-20, 20).map(lambda n: Fraction(n, 10))


@given(
    st.tuples(st.integers(-15, 15), st.integers(-15, 15)).filter(lambda t: 10 not in map(abs, t)),
    st.lists(float_entries, min_size=9, max_size=9),
    st.tuples(st.integers(5, 15), st.integers(5, 15)),
    st.lists(st.sampled_from(SCALES), min_size=6, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_rescaling_coordinates_changes_no_predicate(moduli, entries, uv, scales):
    # a float box is a box of exact moduli moved by a float map; each of
    # its points is then rescaled by 10^+-30 or 2^+-530
    m = tuple(tuple(sc.to_mpf(entries[3 * i + j]) for j in range(3)) for i in range(3))
    assume(abs(sc.det3(m)) > mpf("0.01"))
    with mpmath.workprec(128):
        lam = bx.Lambda(epsilon=mpmath.log(mpf(uv[0]) / 10), delta=mpmath.log(mpf(uv[1]) / 10))
        box = bx.apply_matrix(bx.from_moduli(bx.BoxModuli(*(Fraction(x, 10) for x in moduli))), m)
        raw = [sc.vec_scale(x.coords, mpf(base) ** power) for x, (base, power) in zip(box.points, scales)]
        scaled = bx.OvermarkedBox(*(Point(x) for x in raw))
        assert _predicates(scaled, lam, raw) == _predicates(box, lam, [x.coords for x in box.points])
