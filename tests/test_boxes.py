import random
from fractions import Fraction

import pytest
from mpmath import mpf
from hypothesis import given, settings
from hypothesis import strategies as st

from pappuslab import boxes as bx
from pappuslab import projective as pj
from pappuslab import scalars as sc
from pappuslab.errors import DegenerateBox, InvalidModuli, NotConvex
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
    assert bx.transform_sigma(bx.transform_sigma(box, lam), lam.negate()) == box


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


def test_region_membership():
    assert bx.region_f(bx.LAMBDA_ZERO) == 0
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
    # undeformed children share two corners with the parent, so the
    # inclusion is of open interiors, proper but not strict on closures
    assert bx.nested_interiors(box, c1)
    assert bx.nested_interiors(box, c2)
    assert not bx.nested_strictly(box, c1)
    assert bx.interiors_disjoint(c1, c2)
    flipped = bx.transform_i(box)
    assert bx.interiors_disjoint(box, flipped)


def test_strict_nesting_deformed():
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(1, 3)))
    lam = bx.Lambda(u=Fraction(8, 10), v=Fraction(1, 1))  # eps < 0, interior of R
    assert bx.in_region(lam, strict=True)
    for child in (bx.tau1_lambda(box, lam), bx.tau2_lambda(box, lam)):
        assert bx.nested_strictly(box, child)


def test_convex_interior_center():
    quad = bx.convex_interior(bx.SPECIAL_BOX)
    center = Point((0, 1, 1))
    assert quad.contains(center, strict=True)
    with pytest.raises(NotConvex):
        bx.convex_interior(bx.from_moduli(bx.BoxModuli(2, 0)))


def test_moduli_equivalence():
    m = bx.BoxModuli(Fraction(1, 2), Fraction(1, 3))
    assert bx.moduli_equivalence(m, bx.BoxModuli(Fraction(-1, 3), Fraction(1, 2)))
    assert not bx.moduli_equivalence(m, bx.BoxModuli(Fraction(1, 3), Fraction(1, 2)))
    z = bx.BoxModuli(0, 0)
    assert bx.moduli_equivalence(z, z)
    assert len(set(z.orbit())) == 1


def test_marked_box_class_equality():
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(1, 3)))
    assert bx.MarkedBox(box) == bx.MarkedBox(bx.transform_j(box))
    other = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(1, 4)))
    assert bx.MarkedBox(box) != bx.MarkedBox(other)


def test_json_round_trip():
    rng = random.Random(17)
    box = random_convex_box(rng)
    text = bx.box_to_json(box)
    back = bx.box_from_json(text)
    assert back == box


def test_dual_box_structure():
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(1, 3)))
    db = bx.dual_box(box)
    # dualizing twice returns the same marked box
    assert bx.marked_equal(bx.dual_box(db), box)
    # the plain dual swaps and negates the moduli
    m = bx.moduli(db)
    assert m.zeta_t == Fraction(-1, 3) and m.zeta_b == Fraction(-1, 2)


def test_duality_action_rotates_moduli():
    # the duality action (with its reordering) realizes the order-4
    # rotation (zeta_t, zeta_b) -> (-zeta_b, zeta_t) on moduli
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(1, 3)))
    d = pj.duality(sc.IDENTITY)
    img = bx.apply_symmetry_to_box(d, box)
    m = bx.moduli(img)
    assert bx.moduli_equivalence(bx.moduli(box), m)


def test_dual_reversal():
    # inclusions reverse in the dual plane: the dual of a Pappus child
    # contains the dual of its parent (open interiors; the quads share
    # two boundary corners, so the inclusion is not strict at closures)
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(1, 3)))
    for child in (bx.tau1(box), bx.tau2(box)):
        db, dc = bx.dual_box(box), bx.dual_box(child)
        for corner in (db.p, db.q, db.r, db.s):
            assert bx.interior_contains(dc, corner, strict=False)
        for pt in bx._interior_grid(bx.theta_basis(db), 8):
            assert bx.interior_contains(dc, pt, strict=True)
        # proper inclusion: the child's dual interior is strictly bigger
        assert any(
            not bx.interior_contains(db, corner, strict=False)
            for corner in (dc.p, dc.q, dc.r, dc.s)
        )


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
