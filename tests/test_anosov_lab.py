import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from pappuslab import anosov_lab as al
from pappuslab import boxes as bx
from pappuslab import modular as md
from pappuslab import representation as rp
from pappuslab import scalars as sc
from pappuslab.boxes import BoxModuli, Lambda
from pappuslab.errors import (
    NonLoxodromic,
    NotInRegionInterior,
    NotInSubgroupO,
    NotNested,
)
from pappuslab.modular import W_STEPS, GroupWord

M_ZERO = BoxModuli(0, 0)
M_TEST = BoxModuli(Fraction(1, 2), Fraction(1, 3))
LAM_ZERO = Lambda(epsilon=0, delta=0)


def lam(e, d=0):
    return Lambda(epsilon=e, delta=d)


def chart(point):
    return tuple(sc.to_mpf(c) for c in bx.chart_coords(sc.vec_to_mpf(point.coords)))


def chart_distance(p1, p2):
    a, b = chart(p1), chart(p2)
    return mpmath.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)


def attracting_vector(m, la, w):
    res = al.loxodromic_eigen(rp.Representation(m, la), w)
    _, vec = max(res.pairs, key=lambda p: abs(p[0]))
    return vec


def random_w_word(rng, blocks):
    w = GroupWord.identity()
    for _ in range(blocks):
        w = w * rng.choice(W_STEPS)
    return w


# ---------------------------------------------------------------------------
# constant_C


def test_constant_c_undeformed():
    c = al.constant_C(rp.Representation(M_ZERO, LAM_ZERO), resolution=16, directions=8)
    assert c > 1


def test_constant_c_deformed_larger():
    c0 = al.constant_C(rp.Representation(M_TEST, LAM_ZERO), resolution=16, directions=8)
    deformed = rp.Representation(M_TEST, lam(mpf("-0.2")))
    cd = al.constant_C(deformed, resolution=16, directions=8)
    assert c0 > 1
    assert cd > c0


def test_constant_c_outside_region():
    with pytest.raises(NotNested):
        al.constant_C(rp.Representation(M_ZERO, lam(mpf("0.5"))), resolution=8, directions=4)


# ---------------------------------------------------------------------------
# limit_point


def test_limit_point_special_moduli_on_line():
    # at the special box with no deformation, all limit points lie on
    # the invariant line {x = 0}
    for letters in (
        ("R", "I", "RR", "I"),
        ("RR", "I", "R", "I"),
        ("R", "I", "RR", "I", "RR", "I", "RR", "I"),
    ):
        s = al.limit_point(rp.Representation(M_ZERO, LAM_ZERO), GroupWord(letters))
        pt = sc.vec_to_mpf(s.point.coords)
        assert abs(pt[0]) <= mpf("1e-9") * sc.vec_max_abs(pt)


def test_limit_point_matches_attracting_eigenvector():
    la = lam(mpf("-0.1"))
    w = md.R_WORD * GroupWord(("I", "R", "I"))  # R I R I
    s = al.limit_point(rp.Representation(M_TEST, la), w)
    vec = attracting_vector(M_TEST, la, w)
    from pappuslab.projective import Point

    assert chart_distance(s.point, Point(vec)) < mpf("1e-9")


def test_limit_point_flag_residual():
    la = lam(mpf("-0.1"))
    rng = random.Random(23)
    for _ in range(10):
        w = random_w_word(rng, rng.randint(1, 3))
        s = al.limit_point(rp.Representation(M_TEST, la), w)
        assert s.flag_residual <= mpf("1e-9")
        assert s.diameter_at_stop < al.LIMIT_TOL


def test_limit_point_random_words_eigen_oracle():
    # the nested-intersection limit equals the attracting eigenline for
    # many random periodic words
    from pappuslab.projective import Point

    la = lam(mpf("-0.1"))
    rng = random.Random(42)
    seen = set()
    checked = 0
    while checked < 50:
        w = random_w_word(rng, rng.randint(1, 4))
        if w.letters in seen:
            continue
        seen.add(w.letters)
        s = al.limit_point(rp.Representation(M_ZERO, la), w)
        vec = attracting_vector(M_ZERO, la, w)
        assert chart_distance(s.point, Point(vec)) < 10 * al.LIMIT_TOL
        checked += 1


def test_limit_point_rejects_bad_inputs():
    with pytest.raises(NotInSubgroupO):
        al.limit_point(rp.Representation(M_ZERO, LAM_ZERO), md.I_WORD)
    with pytest.raises(NonLoxodromic):
        # parabolic at the undeformed parameters
        al.limit_point(rp.Representation(M_ZERO, LAM_ZERO), GroupWord(("R", "I", "R", "I")))
    with pytest.raises(NotInRegionInterior):
        outside = rp.Representation(M_ZERO, lam(mpf("0.5")))
        al.limit_point(outside, GroupWord(("R", "I", "RR", "I")))


def test_limit_map_injectivity_deformed():
    # distinct periodic words, distinct limit points (well separated)
    la = lam(mpf("-0.1"))
    words = [
        GroupWord(("R", "I", "R", "I")),
        GroupWord(("R", "I", "RR", "I")),
        GroupWord(("RR", "I", "R", "I")),
        GroupWord(("RR", "I", "RR", "I")),
        GroupWord(("R", "I", "R", "I", "RR", "I", "RR", "I")),
    ]
    pts = [al.limit_point(rp.Representation(M_ZERO, la), w).point for w in words]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert chart_distance(pts[i], pts[j]) > 10 * al.LIMIT_TOL


def test_collapsed_component_extremities():
    # the two ends of the axis of the parabolic word R I R I: deformed,
    # they are the attracting lines of the word and of its inverse and
    # are far apart; undeformed, forward and backward iteration collapse
    # onto one point (the repeated-eigenvalue direction)
    from pappuslab.projective import Point

    g = GroupWord(("R", "I", "R", "I"))
    la = lam(mpf("-0.1"))
    plus = Point(attracting_vector(M_ZERO, la, g))
    minus = Point(attracting_vector(M_ZERO, la, g.inverse()))
    assert chart_distance(plus, minus) > mpf("0.1")

    p = sc.mat_to_mpf(rp.evaluate(rp.Representation(M_ZERO, LAM_ZERO), g))
    p_inv = sc.mat_inverse(p)

    def iterate(mat, steps):
        v = sc.vec_to_mpf((mpf("0.3"), mpf("0.7"), mpf(1)))
        for _ in range(steps):
            v = sc.mat_vec(mat, v)
            top = sc.vec_max_abs(v)
            v = tuple(c / top for c in v)
        return Point(v)

    gaps = []
    for steps in (200, 400, 800):
        fwd = iterate(p, steps)
        bwd = iterate(p_inv, steps)
        gaps.append(chart_distance(fwd, bwd))
    # the two extremities converge to each other at the 1/n rate of a
    # unipotent block: each doubling of the depth roughly halves the gap
    assert gaps[1] < mpf("0.7") * gaps[0]
    assert gaps[2] < mpf("0.7") * gaps[1]
    assert gaps[2] < mpf("1e-2")


# ---------------------------------------------------------------------------
# doubling_check


def test_doubling_deformed_certifies():
    rep = rp.Representation(M_ZERO, lam(mpf("-0.3")))
    rep = al.doubling_check(rep, budget=24, sequences=12, seed=1)
    assert rep["constant"] > 2
    assert rep["window"] >= 1
    assert rep["worst_growth"] >= 2
    assert rep["certified"]


def test_doubling_undeformed_parabolic_fails():
    # the constant sequence shadowing the parabolic word does not double
    # within the budget: growth flattens as the boxes collapse onto a
    # segment
    w = GroupWord(("R", "I", "R", "I"))
    rep = al.doubling_check(
        rp.Representation(M_ZERO, LAM_ZERO), budget=32, fixed_sequence=[w] * 32
    )
    assert not rep["certified"]
    assert rep["worst_growth"] < 2


def test_doubling_outside_region():
    with pytest.raises(NotInRegionInterior):
        al.doubling_check(rp.Representation(M_ZERO, lam(mpf("0.5"))), budget=8)


# ---------------------------------------------------------------------------
# loxodromy_scan


def test_loxodromy_scan_undeformed_parabolic():
    scan = al.loxodromy_scan(rp.Representation(M_ZERO, LAM_ZERO), max_len=4)
    bad = {w.letters for w in scan["non_loxodromic"]}
    assert ("R", "I", "R", "I") in bad or ("I", "R", "I", "R") in bad


def test_loxodromy_scan_deformed_all_loxodromic():
    scan = al.loxodromy_scan(rp.Representation(M_ZERO, lam(mpf("-0.2"))), max_len=6)
    assert scan["scanned"] > 0
    assert not scan["non_loxodromic"]
    assert scan["min_gap"] > 1


def test_loxodromy_scan_propagates_unexpected_errors(monkeypatch):
    # only a complex spectrum or a singular image is a verdict; any other
    # error is a fault and must not be reported as a non-loxodromic word
    def broken(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(sc, "eigen_real", broken)
    with pytest.raises(RuntimeError):
        al.loxodromy_scan(rp.Representation(M_ZERO, lam(mpf("-0.2"))), max_len=4)


def test_gap_growth_along_powers():
    la = lam(mpf("-0.2"))
    w = GroupWord(("R", "I", "RR", "I"))
    gaps = []
    for k in (1, 2, 3):
        res = al.loxodromic_eigen(rp.Representation(M_ZERO, la), w ** k)
        gaps.append(min(res.gaps))
    assert gaps[0] < gaps[1] < gaps[2]
    # the gap of the k-th power is the k-th power of the gap
    assert abs(gaps[1] - gaps[0] ** 2) < mpf("1e-9") * gaps[1]
    assert abs(gaps[2] - gaps[0] ** 3) < mpf("1e-9") * gaps[2]
