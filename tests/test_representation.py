import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import from_man_exp

from pappuslab import boxes as bx
from pappuslab import modular as md
from pappuslab import projective as pj
from pappuslab import representation as rp
from pappuslab import scalars as sc
from pappuslab.boxes import LAMBDA_ZERO, BoxModuli, Lambda, from_moduli, marked_equal
from pappuslab.errors import (
    NoSolution,
    NotARotation,
    NotInSubgroupO,
    SpecialBox,
    ToleranceBelowPrecision,
)
from pappuslab.modular import BASE_EDGE, GroupWord

rational_moduli = st.tuples(
    st.integers(-8, 8), st.integers(-8, 8)
).map(lambda t: BoxModuli(Fraction(t[0], 10), Fraction(t[1], 10)))

M_TEST = BoxModuli(Fraction(1, 2), Fraction(1, 3))


def random_lambda(rng):
    return Lambda(
        u=Fraction(rng.randint(5, 15), 10), v=Fraction(rng.randint(5, 15), 10)
    )


# ---------------------------------------------------------------------------
# matrix families


def test_matrix_a_at_origin():
    a = rp.matrix_A(BoxModuli(0, 0))
    assert a == ((-1, 0, 0), (0, 1, -1), (0, 1, 0))
    displayed = ((1, 0, 0), (0, -1, 1), (0, -1, 0))
    assert pj.proj_equal_mat(a, displayed)


@given(rational_moduli)
@settings(max_examples=40, deadline=None)
def test_matrix_a_trace_zero_and_order_three(m):
    a = rp.matrix_A(m)
    assert a[0][0] + a[1][1] + a[2][2] == 0
    cube = sc.mat_mul(sc.mat_mul(a, a), a)
    assert pj.proj_equal_mat(cube, sc.IDENTITY)


def test_matrix_a_cube_scalar_exact():
    a = rp.matrix_A(M_TEST)
    cube = sc.mat_mul(sc.mat_mul(a, a), a)
    mu = cube[0][0]
    assert mu != 0
    assert cube == tuple(
        tuple(mu if i == j else 0 for j in range(3)) for i in range(3)
    )


def test_matrix_d_examples():
    assert rp.matrix_D(BoxModuli(0, 0)) == sc.IDENTITY
    d = rp.matrix_D(M_TEST)
    assert d == sc.mat_transpose(d)
    minors = (
        d[0][0],
        d[0][0] * d[1][1] - d[0][1] * d[1][0],
        sc.det3(d),
    )
    # det D = (1 - zt^2)(1 - zb^2)
    assert minors == (1, Fraction(3, 4), Fraction(2, 3))
    assert all(x > 0 for x in minors)
    # non-convex moduli lose positive definiteness
    d2 = rp.matrix_D(BoxModuli(2, 0))
    assert d2[0][0] * d2[1][1] - d2[0][1] * d2[1][0] < 0


def test_matrix_sigma():
    assert LAMBDA_ZERO.sigma == sc.IDENTITY
    assert Lambda(epsilon=0, delta=0).sigma == sc.IDENTITY


@given(st.integers(1, 30), st.integers(1, 30))
@settings(max_examples=30, deadline=None)
def test_sigma_determinant_one(un, vn):
    # an exact sigma is k times the det-one matrix, k its first entry
    lam = Lambda(u=Fraction(un, 7), v=Fraction(vn, 11))
    assert sc.det3(lam.sigma) == lam.sigma[0][0] ** 3


def test_matrix_b_special_undeformed():
    b = rp.matrix_B(BoxModuli(0, 0), LAMBDA_ZERO)
    a = rp.matrix_A(BoxModuli(0, 0))
    assert b == sc.mat_inverse(sc.mat_transpose(a))
    displayed = ((1, 0, 0), (0, 0, 1), (0, -1, -1))
    assert pj.proj_equal_mat(b, displayed)


def test_matrix_b_conjugation_identity():
    rng = random.Random(3)
    for _ in range(5):
        lam = random_lambda(rng)
        sig = lam.sigma
        lhs = rp.matrix_B(M_TEST, lam)
        rhs = sc.mat_mul(
            sc.mat_mul(sc.mat_inverse(sig), rp.matrix_B0(M_TEST)), sig
        )
        assert lhs == rhs


# ---------------------------------------------------------------------------
# word evaluation


def test_evaluate_basics():
    rep = rp.Representation(M_TEST, LAMBDA_ZERO)
    assert rp.evaluate(rep, GroupWord.identity()) == sc.IDENTITY
    cube = rp.evaluate(rep, GroupWord(("R",)) ** 3)
    assert pj.proj_equal_mat(cube, sc.IDENTITY)
    with pytest.raises(NotInSubgroupO):
        rp.evaluate(rep, GroupWord(("I",)))


def test_evaluate_is_homomorphic():
    rng = random.Random(7)
    rep = rp.Representation(M_TEST, random_lambda(rng))
    words = [w for w in md.enumerate_words(4) if md.in_subgroup_o(w)]
    for _ in range(15):
        w1, w2 = rng.choice(words), rng.choice(words)
        lhs = rp.evaluate(rep, w1 * w2)
        rhs = sc.mat_mul(rp.evaluate(rep, w1), rp.evaluate(rep, w2))
        assert pj.proj_equal_mat(lhs, rhs)


def test_evaluate_schwartz_kinds():
    g = rp.evaluate_schwartz(M_TEST, GroupWord(("I",)))
    assert g.kind == pj.DUALITY
    assert g.matrix == rp.matrix_D(M_TEST)
    gg = rp.evaluate_schwartz(M_TEST, GroupWord(("I", "I")))
    assert gg.kind == pj.TRANSFORMATION
    assert pj.proj_equal_mat(gg.matrix, sc.IDENTITY)


def test_evaluate_matches_schwartz_at_zero():
    for w in filter(md.in_subgroup_o, md.enumerate_words(5)):
        g = rp.evaluate_schwartz(M_TEST, w)
        assert g.kind == pj.TRANSFORMATION
        assert pj.proj_equal_mat(g.matrix, rp.evaluate(rp.Representation(M_TEST, LAMBDA_ZERO), w))


def test_translation_squared_not_loxodromic():
    w = md.T1_WORD * md.T1_WORD
    mat = rp.evaluate(rp.Representation(M_TEST, LAMBDA_ZERO), w)
    res = sc.eigen_real(sc.normalize_det_one(sc.mat_to_mpf(mat)))
    assert not res.loxodromic
    assert max(res.moduli) - min(res.moduli) < mpf("1e-12")


# ---------------------------------------------------------------------------
# box cycles


def test_matrix_a_box_cycle():
    box = from_moduli(M_TEST)
    a = rp.matrix_A(M_TEST)
    target = bx.transform_j(rp.xi_action(GroupWord(("R",)), box))
    step1 = bx.apply_matrix(box, a)
    assert step1 == target
    # the cube closes the cycle up to the corner-swap involution
    step3 = bx.apply_matrix(bx.apply_matrix(step1, a), a)
    assert marked_equal(step3, box)


def test_matrix_a_uniqueness():
    # any transformation realizing the same corner correspondence is
    # projectively the same matrix
    box = from_moduli(M_TEST)
    a = rp.matrix_A(M_TEST)
    image = bx.apply_matrix(box, a)
    frame = pj.frame_change(
        pj.frame_matrix(box.p, box.q, box.r, box.s),
        pj.frame_matrix(image.p, image.q, image.r, image.s),
    )
    assert pj.proj_equal_mat(frame, a)


def test_matrix_d_box_cycle():
    box = from_moduli(M_TEST)
    d = pj.duality(rp.matrix_D(M_TEST))
    target = bx.transform_j(bx.transform_i(box))
    step1 = bx.apply_symmetry_to_box(d, box)
    assert step1 == target
    # the square closes the cycle up to the corner-swap involution
    assert marked_equal(bx.apply_symmetry_to_box(d, step1), box)


def test_matrix_b_box_cycle():
    rng = random.Random(11)
    box = from_moduli(M_TEST)
    for lam in (LAMBDA_ZERO, random_lambda(rng), random_lambda(rng)):
        b = rp.matrix_B(M_TEST, lam)
        # one application realizes the twisted first descendant composite
        step1 = bx.apply_matrix(box, b)
        target = bx.transform_j(
            bx.tau1_lambda(bx.i_lambda(box, lam), lam)
        )
        assert step1 == target
        step3 = bx.apply_matrix(bx.apply_matrix(step1, b), b)
        assert marked_equal(step3, box)


def test_schwartz_equivariance():
    box = from_moduli(M_TEST)
    for w in md.enumerate_words(4):
        e = md.star_action(w, BASE_EDGE)
        label = rp.xi_action(md.label_word(e), box)
        for gen in (md.I_WORD, md.R_WORD):
            moved = md.mobius_action(gen, e)
            lhs = rp.xi_action(md.label_word(moved), box)
            rhs = bx.apply_symmetry_to_box(
                rp.evaluate_schwartz(M_TEST, gen), label
            )
            assert marked_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# non-loxodromic witness


@pytest.mark.parametrize("m", [BoxModuli(0, 0), M_TEST])
def test_non_anosov_witness_exact(m):
    p, q = rp.non_anosov_witness(m)
    conj = sc.mat_mul(sc.mat_mul(q, p), sc.mat_inverse(q))
    assert conj == rp.NON_LOXODROMIC_NORMAL_FORM


def test_non_anosov_witness_moduli():
    p, _ = rp.non_anosov_witness(M_TEST)
    res = sc.eigen_real(sc.mat_to_mpf(p))
    assert all(abs(x - 1) < mpf("1e-12") for x in res.moduli)


# ---------------------------------------------------------------------------
# the curve h


def test_curve_h_at_eps_zero():
    lam = Lambda(u=1, v=Fraction(7, 5))
    coeff = rp._special_coefficient(M_TEST)
    v = Fraction(7, 5)
    sd, cd = (v - 1 / v) / 2, (v + 1 / v) / 2
    assert rp.curve_h(M_TEST, lam) == coeff * sd * 2 * cd
    assert abs(rp.solve_delta_h(M_TEST, 0)) < mpf("1e-10")


def test_curve_h_delta_derivative():
    step = mpf("1e-6")
    fd = (
        rp.curve_h(M_TEST, Lambda(epsilon=0, delta=step))
        - rp.curve_h(M_TEST, Lambda(epsilon=0, delta=-step))
    ) / (2 * step)
    expected = 2 * sc.to_mpf(rp._special_coefficient(M_TEST))
    assert abs(fd - expected) < mpf("1e-8")


def test_solve_delta_h_flat_at_zero():
    eps = mpf("1e-4")
    slope = (rp.solve_delta_h(M_TEST, eps) - rp.solve_delta_h(M_TEST, -eps)) / (
        2 * eps
    )
    assert abs(slope) < mpf("1e-4")
    with pytest.raises(SpecialBox):
        rp.solve_delta_h(BoxModuli(0, 0), mpf("0.1"))


def test_solve_delta_h_rejects_tol_below_precision():
    eps = mpf("-0.05")
    with mpmath.workprec(128):
        floor = sc.float_epsilon()
        with pytest.raises(ToleranceBelowPrecision):
            rp.solve_delta_h(M_TEST, eps, tol=floor)
        # just above the floor the bisection still meets tol
        delta = rp.solve_delta_h(M_TEST, eps, tol=2 * floor)
        assert abs(rp.curve_h(M_TEST, Lambda(epsilon=eps, delta=delta))) <= 2 * floor


# ---------------------------------------------------------------------------
# extension intertwiner


def test_intertwiner_special_moduli():
    rng = random.Random(23)
    lam = random_lambda(rng)
    s, residual, invertible = rp.extension_intertwiner(rp.Representation(BoxModuli(0, 0), lam))
    assert s == lam.sigma
    assert residual < mpf("1e-20")
    assert invertible


def test_intertwiner_on_curve():
    eps = mpf("-0.1")
    delta = rp.solve_delta_h(M_TEST, eps)
    lam = Lambda(epsilon=eps, delta=delta)
    obs, _ = rp.obstruction(rp.Representation(M_TEST, lam))
    assert abs(obs) < mpf("1e-10")
    s, residual, invertible = rp.extension_intertwiner(rp.Representation(M_TEST, lam))
    assert s == sc.mat_transpose(s)
    assert residual < mpf("1e-9")
    assert invertible


def test_residual_copies_no_matrix_that_is_all_mpf(monkeypatch):
    # at a float point c, B^λ and S are already mpf: the residual rounds
    # none of them again, and an exact matrix is still rounded to nearest
    eps = mpf("-0.1")
    rep = rp.Representation(M_TEST, Lambda(epsilon=eps, delta=rp.solve_delta_h(M_TEST, eps)))
    s, residual, _ = rp.extension_intertwiner(rep)
    c = sc.mat_inverse(sc.mat_transpose(rep.a))
    exact_s = sc.mat_transpose(rp.matrix_D(M_TEST))
    mixed = rp._residual(c, rep.b, sc.mat_to_mpf(exact_s))
    rounded = []
    inner = sc.to_mpf
    monkeypatch.setattr(sc, "to_mpf", lambda x: rounded.append(x) or inner(x))
    assert rp._residual(c, rep.b, s)._mpf_ == residual._mpf_
    assert rounded == []
    assert rp._residual(c, rep.b, exact_s)._mpf_ == mixed._mpf_
    assert len(rounded) == 9


def test_obstruction_multiplies_two_mpf_matrices():
    # A is rounded to nearest once, not truncated inside a mixed product
    m = BoxModuli(Fraction(3, 10), Fraction(-1, 5))
    eps = mpf("-0.05")
    rep = rp.Representation(m, Lambda(epsilon=eps, delta=rp.solve_delta_h(m, eps)))
    ab = sc.mat_mul(sc.mat_to_mpf(rp.matrix_A(m)), rep.b)
    obs, product = rp.obstruction(rep)
    assert _typed_bits(product) == _typed_bits(ab)
    assert obs._mpf_ == sc.det3(sc.mat_sub(sc.IDENTITY, ab))._mpf_


def test_intertwiner_off_curve():
    lam = Lambda(epsilon=mpf("-0.1"), delta=mpf("0.5"))
    obs, _ = rp.obstruction(rp.Representation(M_TEST, lam))
    assert abs(obs) > mpf("1e-6")
    with pytest.raises(NoSolution):
        rp.extension_intertwiner(rp.Representation(M_TEST, lam))


def test_intertwiner_off_curve_exact():
    with pytest.raises(NoSolution):
        lam = Lambda(u=Fraction(9, 10), v=Fraction(3, 2))
        rp.extension_intertwiner(rp.Representation(M_TEST, lam))


# the float nullspace of the conjugation system, against mpmath.svd_r

nonspecial_tenths = st.tuples(st.integers(-8, 8), st.integers(-8, 8)).filter(
    lambda t: t != (0, 0)
).map(lambda t: BoxModuli(Fraction(t[0], 10), Fraction(t[1], 10)))


def _svd_r(rows, **kwargs):
    return mpmath.svd_r(mpmath.matrix([[sc.to_mpf(x) for x in row] for row in rows]), **kwargs)


def _svd_kernel_dimension(rows):
    # singular values at most rel_tol * max(largest, 1); the systems have
    # at least as many rows as columns, so each column has one
    svals = _svd_r(rows, compute_uv=False)
    svals = [svals[i] for i in range(svals.rows)]
    cutoff = sc.NULLSPACE_REL_TOL * max(max(svals), mpf(1))
    return sum(1 for sval in svals if sval <= cutoff)


def _conjugation(moduli, lam):
    rep = rp.Representation(moduli, lam)
    c = sc.mat_inverse(sc.mat_transpose(rep.a))
    return c, rep.b, rp._conjugation_system(c, rep.b)


@pytest.mark.parametrize("prec", [53, 64, 128, 256])
@given(nonspecial_tenths, st.integers(-100, -10))
@settings(max_examples=6, deadline=None)
def test_nullspace_matches_svd_r_on_curve(prec, moduli, eps_thousandths):
    with mpmath.workprec(prec):
        eps = mpf(eps_thousandths) / 1000
        c, b, rows = _conjugation(moduli, Lambda(epsilon=eps, delta=rp.solve_delta_h(moduli, eps)))
        assert len(rows) == 9 and len(rows[0]) == 6
        basis = sc.nullspace(rows)
        assert len(basis) == _svd_kernel_dimension(rows) == 1
        # svd_r sorts the singular values down: V's last row spans the kernel
        _, _, v = _svd_r(rows)
        by_svd = rp._residual(c, b, rp._sym_from_vector(v.tolist()[-1]))
        assert rp._residual(c, b, rp._sym_from_vector(basis[0])) <= 10 * by_svd


def test_nullspace_matches_svd_r_off_curve():
    _, _, rows = _conjugation(M_TEST, Lambda(epsilon=mpf("-0.1"), delta=mpf("0.5")))
    assert sc.nullspace(rows) == []
    assert _svd_kernel_dimension(rows) == 0


@st.composite
def svd_system(draw):
    """An m x n system, 1 <= n <= m <= 9: mpfs of 1 to 320 random bits,
    either sign, scaled by 2^e with e within 3 of a common base in
    +-200, or spread over +-200; now and then zero entries, a zero
    column or a repeated column (rank deficiency).  Returns the rows and
    whether a column is zero or repeats another.  The bits come from a
    drawn seed, as hypothesis's own integers favour sparse mantissas."""
    n = draw(st.integers(1, 9))
    m = draw(st.integers(n, 9))
    base = draw(st.integers(-200, 200))
    spread = draw(st.sampled_from([3, 3, 200]))
    zeros = draw(st.sampled_from([0, 0, 0.2, 0.6]))
    rng = random.Random(draw(st.integers(0, 2**64)))
    rows = []
    for _ in range(m):
        row = []
        for _ in range(n):
            size = rng.randint(1, 320)
            man = (rng.getrandbits(size) | 1 << (size - 1)) * rng.choice((1, -1))
            exp = base + rng.randint(-spread, spread) - size
            zero = rng.random() < zeros
            row.append(mpf(0) if zero else mpmath.mp.make_mpf(from_man_exp(man, exp)))
        rows.append(row)
    col = draw(st.integers(0, n - 1))
    shape = draw(st.sampled_from(["plain", "plain", "zero_column", "repeated_column"]))
    for row in rows:
        if shape == "zero_column":
            row[col] = mpf(0)
        elif shape == "repeated_column":
            row[col] = row[0]
    return rows, shape == "zero_column" or (shape == "repeated_column" and col != 0)


# The name is that of the check of the SVD the float nullspace was once
# read from; it now checks sc.nullspace against mpmath.svd_r.
@pytest.mark.parametrize("prec", [53, 64, 128, 256])
@given(system=svd_system())
@settings(max_examples=25, deadline=None)
def test_v_only_svd_equals_svd_r_on_drawn_systems(prec, system):
    # A free column's entries are at most the floor when it is passed
    # over, and stay so; with partial pivoting |L| <= 1, so each basis
    # vector v (1 at its free column) has |A v| <= m^1.5 * floor * |v|,
    # and j of them span vectors that A shrinks as much, so at least j
    # singular values are at most m^2 * floor.  Rounding adds at most
    # 2^-53 * 2^8 * 9 / 1e-9 < 3e-4 of that; the factor 2 covers it.
    rows, deficient = system
    m = len(rows)
    with mpmath.workprec(prec):
        basis = sc.nullspace(rows)
        floor = sc.NULLSPACE_REL_TOL * max(max(abs(x) for row in rows for x in row), mpf(1))
        bound = 2 * m * m * floor
        svals = _svd_r(rows, compute_uv=False)
        assert sum(1 for i in range(svals.rows) if svals[i] <= bound) >= len(basis)
        for v in basis:
            with mpmath.extraprec(64):
                residual = mpmath.norm([mpmath.fdot(row, v) for row in rows])
                assert residual <= bound * mpmath.norm(v)
    if deficient:
        assert basis

def test_nullspace_dimension_equals_svd_r_on_acceptance_07_family():
    # the systems of appendix_criterion on acceptance test 7's draws
    rng = random.Random(13)
    dimensions = []
    while len(dimensions) < 200:
        theta = rng.uniform(0.2, 2.9)
        mu = rng.choice([1, -1]) * rng.uniform(0.5, 2.0)
        cos, sin = mpmath.cos(theta), mpmath.sin(theta)
        a = ((mu, 0, 0), (0, mu * cos, -mu * sin), (0, mu * sin, mu * cos))
        g = tuple(
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
            for _ in range(3)
        )
        if sc.det3(g) == 0:
            continue
        af, gf = sc.mat_to_mpf(a), sc.mat_to_mpf(g)
        c = sc.mat_inverse(sc.mat_transpose(af))
        rows = rp._conjugation_system(c, sc.mat_mul(sc.mat_mul(sc.mat_inverse(gf), c), gf))
        dimensions.append((len(sc.nullspace(rows)), _svd_kernel_dimension(rows)))
    assert all(ours == theirs for ours, theirs in dimensions)
    # both sides of the rank floor occur
    assert sorted({ours for ours, _ in dimensions}) == [0, 1]


# the generator matrices: the float kernel takes them at mpf moduli and a
# float deformation, with the bits of the operator formula


def _nearest(m):
    # m with its Fractions rounded to nearest and its ints left in place
    return tuple(tuple(sc.to_mpf(x) if type(x) is Fraction else x for x in row) for row in m)


def _operator_matrix_B(m, lam):
    # matrix_B0 and matrix_B with their int literals left in place; where
    # the point is in float mode, every Fraction is rounded to nearest
    # before it meets an mpf
    a, d, sig = rp.matrix_A(m), rp.matrix_D(m), lam.sigma
    b0 = sc.mat_mul(sc.mat_mul(sc.mat_inverse(d), sc.mat_inverse(sc.mat_transpose(a))), d)
    if not (sc.mat_is_exact(b0) and sc.mat_is_exact(sig)):
        # an exact lam.sigma is integral, and enters float mode whole
        b0, sig = _nearest(b0), sc.mat_to_mpf(sig) if lam.exact else sig
    return sc.mat_mul(sc.mat_mul(sc.mat_inverse(sig), b0), sig)


def _typed_bits(m):
    return [[(type(x), x._mpf_ if type(x) is mpf else x) for x in row] for row in m]


@pytest.mark.parametrize("prec", [53, 64, 128, 256])
@given(
    st.integers(-99, 99), st.integers(-99, 99),
    st.integers(-300, 300), st.integers(-300, 300),
    st.sampled_from(["mpf", "mpf_exact", "exact", "mixed"]),
)
@settings(max_examples=30, deadline=None)
def test_matrix_B_matches_operator_bits(prec, zt, zb, eps, delta, kind):
    # kind: moduli and deformation both float, float moduli with an exact
    # deformation, both exact, or exact moduli with a float deformation
    with mpmath.workprec(prec):
        moduli = BoxModuli(Fraction(zt, 100), Fraction(zb, 100))
        if kind.startswith("mpf"):
            moduli = BoxModuli(mpf(zt) / 100, mpf(zb) / 100)
        if kind.endswith("exact"):
            lam = Lambda(u=Fraction(1000 + eps, 1000), v=Fraction(1000 + delta, 1000))
        else:
            lam = Lambda(epsilon=mpf(eps) / 1000, delta=mpf(delta) / 1000)
        assert _typed_bits(rp.matrix_B(moduli, lam)) == _typed_bits(_operator_matrix_B(moduli, lam))
        assert _typed_bits(rp.matrix_B0(moduli)) == _typed_bits(
            _operator_matrix_B(moduli, LAMBDA_ZERO)
        )


# the bisection evaluates h with epsilon's cosh and sinh fixed; it must
# find the delta that a search calling curve_h at every step finds


def _solve_with_curve_h(m, eps, tol=rp.CURVE_TOL):
    def h(delta):
        return rp.curve_h(m, Lambda(epsilon=eps, delta=delta))

    lo, hi = mpf(-1), mpf(1)
    flo, fhi = h(lo), h(hi)
    while flo * fhi > 0:
        lo, hi = 2 * lo, 2 * hi
        flo, fhi = h(lo), h(hi)
    for _ in range(mpmath.mp.prec + 60):
        mid = (lo + hi) / 2
        fmid = h(mid)
        if abs(fmid) <= tol:
            return mid
        if flo * fmid < 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return (lo + hi) / 2


# moduli with zt close to zb or to -zb, where K2 = zt zb (zt^2 - zb^2) nearly
# vanishes
near_diagonal = st.tuples(
    st.integers(-8, 8).filter(bool), st.sampled_from([1, -1]), st.integers(3, 12)
).map(lambda t: BoxModuli(Fraction(t[0], 10), Fraction(t[1] * t[0], 10) + Fraction(1, 10 ** t[2])))


@pytest.mark.parametrize("prec", [53, 64, 128, 256])
@given(
    st.one_of(nonspecial_tenths, near_diagonal),
    st.one_of(
        st.integers(-100, -10).map(lambda k: "%d/1000" % k),
        st.sampled_from(["-1e-6", "-8", "0", "0.05"]),
    ),
)
# cases whose decisions a bound scaled by |sinh delta|, not cosh delta, gets
# wrong: tiny epsilon, zt close to +-zb, and tol at the floor
@example(BoxModuli(Fraction(3, 10), Fraction(301, 1000)), "-1e-6")
@example(BoxModuli(Fraction(1, 2), Fraction(-499, 1000)), "-1e-6")
@example(BoxModuli(Fraction(7, 10), Fraction(3, 10)), "-1e-6")
@example(BoxModuli(Fraction(-7, 10), Fraction(-1, 10)), "0.05")
@example(BoxModuli(Fraction(1, 10 ** 6), Fraction(3, 10)), "-8")
@settings(max_examples=6, deadline=None)
def test_solve_delta_h_matches_curve_h_search(prec, moduli, eps):
    with mpmath.workprec(prec):
        eps = mpf(eps)
        for tol in (rp.CURVE_TOL, 2 * sc.float_epsilon(), mpf("1e-6")):
            found = rp.solve_delta_h(moduli, eps, tol=tol)
            assert found._mpf_ == _solve_with_curve_h(moduli, eps, tol=tol)._mpf_


GOLDEN_CURVE_POINTS = [
    (BoxModuli(Fraction(3, 10), Fraction(-1, 5)), "-0.05"),
    (BoxModuli(Fraction(-7, 10), Fraction(1, 2)), "-0.09"),
]


@pytest.mark.parametrize("prec", [53, 64, 128, 256])
@pytest.mark.parametrize("moduli, eps", GOLDEN_CURVE_POINTS)
def test_solve_delta_h_decides_in_float64(monkeypatch, prec, moduli, eps):
    # every decision reads h in float64 once, and h in mpf only where the
    # float value is too close to 0 or tol to be certain
    curve_h, h_from = rp.curve_h, rp._h_from
    oracle, kinds = [], []
    monkeypatch.setattr(rp, "curve_h", lambda *args: oracle.append(1) or curve_h(*args))
    with mpmath.workprec(prec):
        eps = mpf(eps)
        expected = _solve_with_curve_h(moduli, eps)
        monkeypatch.setattr(rp, "_h_from", lambda *args: kinds.append(type(args[0])) or h_from(*args))
        delta = rp.solve_delta_h(moduli, eps)
    assert type(delta) is mpf and delta._mpf_ == expected._mpf_
    assert 40 <= len(oracle) <= 41
    assert kinds.count(float) == len(oracle)
    assert kinds.count(mpf) <= 5
    assert len(kinds) == kinds.count(float) + kinds.count(mpf)


# ---------------------------------------------------------------------------
# rotation criterion


def _rot(c, s, mu=1):
    return ((mu, 0, 0), (0, mu * c, -mu * s), (0, mu * s, mu * c))


def test_rotation_angle():
    theta = rp.rotation_angle(_rot(0, 1))
    assert abs(theta - sc.to_mpf(mpf(1)) * 3.14159265358979 / 2) < mpf("1e-9")
    with pytest.raises(NotARotation):
        rp.rotation_angle(((1, 0, 0), (0, 2, 0), (0, 0, 3)))
    # order-3 family is a rotation of angle 2*pi/3
    theta = rp.rotation_angle(rp.matrix_A(M_TEST))
    assert abs(theta - 2 * sc.to_mpf(3.14159265358979) / 3) < mpf("1e-6")


def test_appendix_criterion_identity_g():
    a = _rot(0, 1, mu=2)
    by_det, by_s = rp.appendix_criterion(a, sc.IDENTITY)
    assert by_det == by_s


def test_appendix_criterion_random_g():
    rng = random.Random(31)
    a = _rot(0, 1, mu=2)
    for _ in range(5):
        g = tuple(
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)) for _ in range(3)
        )
        if sc.det3(g) == 0:
            continue
        by_det, by_s = rp.appendix_criterion(a, g)
        assert by_det == by_s


def test_appendix_criterion_curve_family():
    eps = mpf("-0.05")
    delta = rp.solve_delta_h(M_TEST, eps)
    lam = Lambda(epsilon=eps, delta=delta)
    g = sc.mat_mul(sc.mat_to_mpf(rp.matrix_D(M_TEST)), lam.sigma)
    by_det, by_s = rp.appendix_criterion(rp.matrix_A(M_TEST), g)
    assert by_det and by_s
    # off the curve both predicates are false
    g2 = sc.mat_mul(
        sc.mat_to_mpf(rp.matrix_D(M_TEST)),
        Lambda(epsilon=eps, delta=mpf("0.5")).sigma,
    )
    by_det, by_s = rp.appendix_criterion(rp.matrix_A(M_TEST), g2)
    assert not by_det and not by_s
