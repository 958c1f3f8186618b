"""End-to-end acceptance checks, one per headline claim.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
on failure) and then asserts, so the suite doubles as a human-readable
certification report.
"""

import random
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from pappuslab import anosov_lab as al
from pappuslab import boxes as bx
from pappuslab import cli
from pappuslab import hilbert as hb
from pappuslab import modular as md
from pappuslab import projective as pj
from pappuslab import representation as rp
from pappuslab import scalars as sc
from pappuslab import variety as vy
from pappuslab.boxes import LAMBDA_ZERO, BoxModuli, Lambda, from_moduli, marked_equal
from pappuslab.errors import NonLoxodromic, SpecialBox
from pappuslab.modular import BASE_EDGE, W_STEPS, GroupWord
from pappuslab.projective import Point

M_TEST = BoxModuli(Fraction(1, 2), Fraction(1, 3))
M_ZERO = BoxModuli(0, 0)


def _report(n, ok, detail):
    print("ACCEPTANCE %d: %s — %s" % (n, "PASS" if ok else "FAIL", detail))
    return ok


def _chart(point):
    return tuple(sc.to_mpf(c) for c in bx.chart_coords(sc.vec_to_mpf(point.coords)))


def _chart_distance(p1, p2):
    a, b = _chart(p1), _chart(p2)
    return mpmath.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)


def _attracting_point(m, lam, w):
    res = al.loxodromic_eigen(rp.Representation(m, lam), w)
    _, vec = max(res.pairs, key=lambda p: abs(p[0]))
    return Point(vec)


def _random_w_word(rng, blocks):
    w = GroupWord.identity()
    for _ in range(blocks):
        w = w * rng.choice(W_STEPS)
    return w


# ---------------------------------------------------------------------------
# 1. exact relation suite


def test_acceptance_01_exact_relations():
    rng = random.Random(2024)
    start = time.time()
    boxes = [cli._random_convex_box(rng) for _ in range(100)]
    lambdas = [LAMBDA_ZERO] + [
        Lambda(
            u=Fraction(rng.randint(5, 15), 10), v=Fraction(rng.randint(5, 15), 10)
        )
        for _ in range(9)
    ]
    failures = []
    for box in boxes:
        for lam in lambdas:
            failures.extend(cli._relation_suite(box, lam))
    elapsed = time.time() - start
    ok = _report(
        1,
        not failures,
        "all 6 generator relations bit-exact on 100 boxes x 10 deformations"
        " (%.1fs)" % elapsed,
    )
    assert ok, failures


# ---------------------------------------------------------------------------
# 2. matrix ground truth


def test_acceptance_02_matrix_ground_truth():
    a = rp.matrix_A(M_ZERO)
    a_ok = pj.proj_equal_mat(a, ((1, 0, 0), (0, -1, 1), (0, -1, 0)))
    d_ok = rp.matrix_D(M_ZERO) == sc.IDENTITY
    b = rp.matrix_B(M_ZERO, LAMBDA_ZERO)
    b_ok = pj.proj_equal_mat(b, ((1, 0, 0), (0, 0, 1), (0, -1, -1)))

    rng = random.Random(5)
    conj_ok = True
    for _ in range(20):
        m = BoxModuli(
            Fraction(rng.randint(-8, 8), 10), Fraction(rng.randint(-8, 8), 10)
        )
        p, q = rp.non_anosov_witness(m)
        conj = sc.mat_mul(sc.mat_mul(q, p), sc.mat_inverse(q))
        conj_ok = conj_ok and conj == rp.NON_LOXODROMIC_NORMAL_FORM
        conj_ok = conj_ok and rp.NON_LOXODROMIC_NORMAL_FORM == (
            (-1, 1, 0),
            (0, -1, 0),
            (0, 0, 1),
        )
    ok = _report(
        2,
        a_ok and d_ok and b_ok and conj_ok,
        "special-box generator matrices and the exact parabolic normal-form"
        " conjugacy on 20 random moduli",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. equivariance of the edge labeling


def test_acceptance_03_labeling_equivariance():
    rng = random.Random(11)
    moduli = [M_ZERO, M_TEST] + [
        BoxModuli(Fraction(rng.randint(-8, 8), 10), Fraction(rng.randint(-8, 8), 10))
        for _ in range(3)
    ]
    checked = 0
    ok = True
    for m in moduli:
        box = from_moduli(m)
        for w in md.enumerate_words(5):
            e = md.star_action(w, BASE_EDGE)
            label = rp.xi_action(md.label_word(e), box)
            for gen in (md.I_WORD, md.R_WORD):
                moved = md.mobius_action(gen, e)
                lhs = rp.xi_action(md.label_word(moved), box)
                rhs = bx.apply_symmetry_to_box(rp.evaluate_schwartz(m, gen), label)
                ok = ok and marked_equal(lhs, rhs)
                checked += 1
    ok = _report(
        3,
        ok,
        "label(g.e) = image(g)(label(e)) exactly on %d edge/generator pairs"
        " at 5 moduli, combinatorial depth 5" % checked,
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. the non-loxodromic boundary word


def test_acceptance_04_boundary_non_loxodromic():
    w = md.T1_WORD * md.T1_WORD
    ok = True
    for m in (M_ZERO, M_TEST):
        mat = rp.evaluate(rp.Representation(m, LAMBDA_ZERO), w)
        res = sc.eigen_real(sc.normalize_det_one(sc.mat_to_mpf(mat)))
        ratios = [res.moduli[k + 1] / res.moduli[k] for k in range(2)]
        ok = ok and all(abs(r - 1) <= mpf("1e-9") for r in ratios)
        scan = al.loxodromy_scan(rp.Representation(m, LAMBDA_ZERO), max_len=4)
        cores = {md.crossing_form(v).letters for v in scan["non_loxodromic"]}
        ok = ok and md.crossing_form(w).letters in cores
    ok = _report(
        4,
        ok,
        "undeformed squared-translation image has equal eigenvalue moduli"
        " (ratios within 1e-9) and the scan flags it",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. interior contraction diagnostics


def test_acceptance_05_interior_diagnostics():
    eps_ticks = [mpf(s) for s in ("-0.05", "-0.1", "-0.15", "-0.2", "-0.25")]
    delta_ticks = [mpf(s) for s in ("-0.02", "-0.01", "0", "0.01", "0.02")]
    moduli = [M_ZERO, M_TEST, BoxModuli(Fraction(-3, 10), Fraction(1, 5))]
    grid = [
        Lambda(epsilon=e, delta=d) for e in eps_ticks for d in delta_ticks
    ]
    assert all(bx.in_region(lam, strict=True) for lam in grid)

    nesting_ok = True
    constant_ok = True
    gap_ok = True
    min_gap = None
    for m in moduli:
        box = from_moduli(m)
        for lam in grid:
            nesting_ok = nesting_ok and bx.containment_check(box, lam, strict=True)
            c = al.constant_C(rp.Representation(m, lam), resolution=6, directions=4)
            constant_ok = constant_ok and c > 1
            scan = al.loxodromy_scan(rp.Representation(m, lam), max_len=6)
            gap_ok = gap_ok and not scan["non_loxodromic"]
            gap_ok = gap_ok and scan["min_gap"] > 1 + mpf("1e-6")
            min_gap = scan["min_gap"] if min_gap is None else min(min_gap, scan["min_gap"])

    rng = random.Random(7)
    limit_ok = True
    residual_ok = True
    seen = set()
    checked = 0
    while checked < 50:
        w = _random_w_word(rng, rng.randint(1, 4))
        m = rng.choice(moduli)
        lam = rng.choice(grid)
        key = (w.letters, moduli.index(m), grid.index(lam))
        if key in seen:
            continue
        seen.add(key)
        sample = al.limit_point(rp.Representation(m, lam), w)
        target = _attracting_point(m, lam, w)
        limit_ok = limit_ok and _chart_distance(sample.point, target) <= mpf("1e-9")
        residual_ok = residual_ok and sample.flag_residual <= mpf("1e-9")
        checked += 1

    ok = _report(
        5,
        nesting_ok and constant_ok and gap_ok and limit_ok and residual_ok,
        "5x5 interior deformation grid x 3 moduli: strict nesting, sampled"
        " distortion > 1, all words of length <= 6 loxodromic (min gap %s),"
        " 50 limit points match the attracting eigenlines" % mpmath.nstr(min_gap, 6),
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. the extension curve


def test_acceptance_06_extension_curve():
    ok = True
    for eps_str in ("-0.01", "-0.02", "-0.05"):
        eps = mpf(eps_str)
        delta = rp.solve_delta_h(M_TEST, eps)
        lam = Lambda(epsilon=eps, delta=delta)
        ok = ok and abs(rp.curve_h(M_TEST, lam)) <= mpf("1e-12")
        obs, ab = rp.obstruction(rp.Representation(M_TEST, lam))
        scale = max(sc.to_mpf(sc.mat_max_abs(ab)) ** 3, mpf(1))
        ok = ok and abs(sc.to_mpf(obs)) <= mpf("1e-10") * scale
        s, residual, invertible = rp.extension_intertwiner(rp.Representation(M_TEST, lam))
        ok = ok and s == sc.mat_transpose(s)
        ok = ok and invertible
        ok = ok and residual <= mpf("1e-10")
    ok = ok and abs(rp.solve_delta_h(M_TEST, 0)) <= mpf("1e-10")
    step = mpf("1e-4")
    slope = (rp.solve_delta_h(M_TEST, step) - rp.solve_delta_h(M_TEST, -step)) / (
        2 * step
    )
    ok = ok and abs(slope) <= mpf("1e-3")
    ok = _report(
        6,
        ok,
        "solved curve parameter at three deformations: vanishing obstruction,"
        " symmetric invertible intertwiner, flat slope at zero",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. the intertwiner existence criterion


def test_acceptance_07_intertwiner_criterion():
    rng = random.Random(13)
    agreements = 0
    trials = 0
    while trials < 200:
        theta = rng.uniform(0.2, 2.9)
        mu = rng.choice([1, -1]) * rng.uniform(0.5, 2.0)
        c, s = mpf(mpmath.cos(theta)), mpf(mpmath.sin(theta))
        a = ((mu, 0, 0), (0, mu * c, -mu * s), (0, mu * s, mu * c))
        g = tuple(
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
            for _ in range(3)
        )
        if sc.det3(g) == 0:
            continue
        by_det, by_s = rp.appendix_criterion(a, g)
        # appendix_criterion raises InternalInconsistency on disagreement
        assert by_det == by_s
        agreements += 1
        trials += 1

    # the antisymmetric factorization, verified in exact arithmetic:
    # with b = S^-1 tA^-1 S, Id - A B = A S^-1 (S A^-1 - t(S A^-1))
    identity_ok = True
    count = 0
    while count < 50:
        s_mat = [[Fraction(0)] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                s_mat[i][j] = s_mat[j][i] = Fraction(
                    rng.randint(-5, 5), rng.randint(1, 3)
                )
        s_mat = tuple(tuple(row) for row in s_mat)
        a = tuple(
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3))
            for _ in range(3)
        )
        if sc.det3(s_mat) == 0 or sc.det3(a) == 0:
            continue
        a_inv = sc.mat_inverse(a)
        s_inv = sc.mat_inverse(s_mat)
        b = sc.mat_mul(sc.mat_mul(s_inv, sc.mat_transpose(a_inv)), s_mat)
        sa_inv = sc.mat_mul(s_mat, a_inv)
        k = sc.mat_sub(sa_inv, sc.mat_transpose(sa_inv))
        lhs = sc.mat_sub(sc.IDENTITY, sc.mat_mul(a, b))
        rhs = sc.mat_mul(sc.mat_mul(a, s_inv), k)
        identity_ok = identity_ok and lhs == rhs
        count += 1

    ok = _report(
        7,
        agreements == 200 and identity_ok,
        "determinant and intertwiner criteria agree on 200 random rotation"
        " pairs; antisymmetric factorization exact on 50 symmetric matrices",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. Jacobian certificates


def test_acceptance_08_jacobians():
    ticks = [Fraction(-9, 20), Fraction(-3, 20), Fraction(3, 20), Fraction(9, 20)]
    psi_ok = True
    phi_ok = True
    for zt in ticks:
        for zb in ticks:
            m = BoxModuli(zt, zb)
            psi_ok = psi_ok and vy.jacobian_check_psi(m, LAMBDA_ZERO)["match"]
            phi_ok = phi_ok and vy.jacobian_check_phi(m)["match"]
    with pytest.raises(SpecialBox):
        vy.jacobian_check_phi(M_ZERO)
    ok = _report(
        8,
        psi_ok and phi_ok,
        "closed-form Jacobian determinants match finite differences to 1e-6"
        " on a 4x4 moduli grid; the degenerate moduli raise as required",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. Hilbert metric suite


def test_acceptance_09_hilbert_suite():
    rng = random.Random(17)
    square = hb.ConvexQuad(bx.STANDARD_CORNERS)
    big = hb.ConvexQuad(
        tuple(Point((2 * p.coords[0], p.coords[1], p.coords[2])) for p in bx.STANDARD_CORNERS)
    )
    g = ((2, 1, 0), (0, 1, 1), (1, 0, 3))
    moved = hb.ConvexQuad(
        tuple(Point(sc.mat_vec(g, p.coords)) for p in square.vertices)
    )

    def interior(quad):
        x = mpf(rng.uniform(-0.95, 0.95))
        y = mpf(rng.uniform(-0.95, 0.95))
        return quad.point_at((x, y))

    configs = 0
    ok = True
    # metric axioms on random triples
    for _ in range(4000):
        p1, p2, p3 = interior(square), interior(square), interior(square)
        d12 = hb.hilbert_distance(square, p1, p2)
        d21 = hb.hilbert_distance(square, p2, p1)
        d13 = hb.hilbert_distance(square, p1, p3)
        d23 = hb.hilbert_distance(square, p2, p3)
        ok = ok and d12 >= 0 and abs(d12 - d21) <= mpf("1e-10")
        ok = ok and d13 <= d12 + d23 + mpf("1e-10")
        ok = ok and hb.hilbert_distance(square, p1, p1) == 0
        configs += 1
    # projective invariance
    for _ in range(3000):
        p1, p2 = interior(square), interior(square)
        d = hb.hilbert_distance(square, p1, p2)
        dm = hb.hilbert_distance(
            moved,
            Point(sc.mat_vec(g, p1.coords)),
            Point(sc.mat_vec(g, p2.coords)),
        )
        ok = ok and abs(d - dm) <= mpf("1e-10") * max(d, mpf(1))
        configs += 1
    # monotonicity: a bigger domain shortens distances
    for _ in range(3000):
        p1, p2 = interior(square), interior(square)
        ok = ok and hb.hilbert_distance(big, p1, p2) <= hb.hilbert_distance(
            square, p1, p2
        ) + mpf("1e-12")
        configs += 1
    # distortion composition inequality with sampling slack, on randomly
    # placed strictly nested squares
    def sub_square(scale, cx, cy):
        corners = ((-1, 1), (1, 1), (1, -1), (-1, -1))
        return hb.ConvexQuad(
            tuple(
                square.point_at((cx + scale * u, cy + scale * v))
                for u, v in corners
            )
        )

    for _ in range(10):
        cx, cy = mpf(rng.uniform(-0.2, 0.2)), mpf(rng.uniform(-0.2, 0.2))
        mid = sub_square(mpf(rng.uniform(0.5, 0.7)), cx, cy)
        dx, dy = mpf(rng.uniform(-0.1, 0.1)), mpf(rng.uniform(-0.1, 0.1))
        inner = sub_square(mpf(rng.uniform(0.2, 0.35)), cx + dx, cy + dy)
        c20 = hb.distortion_estimate(inner, square, resolution=16, directions=8)
        c21 = hb.distortion_estimate(inner, mid, resolution=16, directions=8)
        c10 = hb.distortion_estimate(mid, square, resolution=16, directions=8)
        ok = ok and c20 >= c21 * c10 - mpf("1e-3")
        configs += 1

    ok = _report(
        9,
        ok,
        "metric axioms, projective invariance, domain monotonicity and the"
        " distortion composition inequality on %d sampled configurations"
        % configs,
    )
    assert ok


# ---------------------------------------------------------------------------
# 10. special-box limit geometry


def test_acceptance_10_special_limit_geometry():
    rng = random.Random(19)
    seen = set()
    on_line = 0
    sampled = 0
    while sampled < 100:
        w = _random_w_word(rng, rng.randint(1, 4))
        if w.letters in seen:
            continue
        seen.add(w.letters)
        try:
            sample = al.limit_point(rp.Representation(M_ZERO, LAMBDA_ZERO), w)
        except NonLoxodromic:
            continue
        pt = sc.vec_to_mpf(sample.point.coords)
        if abs(pt[0]) <= mpf("1e-9") * sc.vec_max_abs(pt):
            on_line += 1
        sampled += 1
    ok = _report(
        10,
        on_line == 100,
        "%d/100 undeformed special-box limit points lie on the invariant"
        " line {x = 0} to 1e-9" % on_line,
    )
    assert ok
