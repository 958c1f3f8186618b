import random
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import from_man_exp, fzero, mpf_add, mpf_div, mpf_gt, mpf_mul, mpf_pos, mpf_sub

from pappuslab import anosov_lab as al
from pappuslab import boxes as bx
from pappuslab import modular as md
from pappuslab import representation as rp
from pappuslab import scalars as sc
from pappuslab.boxes import BoxModuli, Lambda
from pappuslab.errors import (
    ComplexSpectrum,
    DegenerateConfiguration,
    NoConvergence,
    NonLoxodromic,
    NotInRegionInterior,
    NotInSubgroupO,
    NotNested,
    PappusLabError,
    SingularMatrix,
    ToleranceBelowPrecision,
)
from pappuslab.modular import W_STEPS, GroupWord
from pappuslab.projective import Point

M_ZERO = BoxModuli(0, 0)
M_TEST = BoxModuli(Fraction(1, 2), Fraction(1, 3))
GOLDEN_MODULI = BoxModuli(Fraction(3, 10), Fraction(-1, 5))
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


def flat(m):
    return [x for row in m for x in row]


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
        pt = sc.vec_to_mpf(s.point)
        assert abs(pt[0]) <= mpf("1e-9") * sc.vec_max_abs(pt)


def test_limit_point_matches_attracting_eigenvector():
    la = lam(mpf("-0.1"))
    w = md.R_WORD * GroupWord(("I", "R", "I"))  # R I R I
    s = al.limit_point(rp.Representation(M_TEST, la), w)
    vec = attracting_vector(M_TEST, la, w)
    from pappuslab.projective import Point

    assert chart_distance(Point(s.point), Point(vec)) < mpf("1e-9")


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
        assert chart_distance(Point(s.point), Point(vec)) < 10 * al.LIMIT_TOL
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


def test_limit_point_takes_loxodromy_from_the_period_product():
    # two scan words (maxlen 10) whose crossing form is a conjugate by an
    # odd word, so its period product P has another spectrum than the
    # word's own image; with a gap margin between the two least gaps, the
    # verdict is P's
    rep = rp.Representation(GOLDEN_MODULI, lam(mpf("-0.15"), mpf("0.01")))
    margin = mpf("9.67")
    for letters, p_loxodromic in (("I R I R I R I RR", False), ("I R I R I RR I R", True)):
        w = GroupWord(tuple(letters.split()))
        p = sc.IDENTITY
        for step in md.crossing_steps(w):
            p = sc.mat_mul(p, rep.step_images[step])
        gaps = [min(al._spectrum(g).gaps) for g in (rp.evaluate(rep, w), p)]
        assert (gaps[0] > margin) != (gaps[1] > margin) == p_loxodromic
        with mock.patch.object(sc, "MODULI_GAP_MARGIN", margin - 1):
            if p_loxodromic:
                assert al.limit_point(rep, w).diameter_at_stop < al.LIMIT_TOL
            else:
                with pytest.raises(NonLoxodromic):
                    al.limit_point(rep, w)


def test_limit_point_rejects_tol_below_precision():
    rep = rp.Representation(M_TEST, lam(mpf("-0.1")))
    w = GroupWord(("R", "I", "RR", "I"))
    with mpmath.workprec(128):
        floor = sc.float_epsilon()
        with pytest.raises(ToleranceBelowPrecision):
            al.limit_point(rep, w, tol=floor)
        # just above the floor the diameters still fall to tol
        assert al.limit_point(rep, w, tol=2 * floor).diameter_at_stop < 2 * floor


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
    pts = [Point(al.limit_point(rp.Representation(M_ZERO, la), w).point) for w in words]
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


# ---------------------------------------------------------------------------
# the tree-walk scan, the float letter images and the lazy eigenvectors
# against the per-word computations they replace

SCAN_LEN = 6

tenths_moduli = st.tuples(st.integers(-8, 8), st.integers(-8, 8)).filter(
    lambda t: t != (0, 0)
).map(lambda t: BoxModuli(Fraction(t[0], 10), Fraction(t[1], 10)))
# (eps, delta) in the strict interior of the admissible region
float_lambdas = st.builds(
    lambda e, d: lam(mpf(e), mpf(d)),
    st.floats(-0.25, -0.05),
    st.floats(-0.02, 0.02),
)
exact_lambdas = st.builds(
    lambda u, v: Lambda(u=Fraction(u, 10), v=Fraction(v, 10)),
    st.integers(5, 15),
    st.integers(5, 15),
)


def at_working_precision(la):
    """la, rebuilt at the working precision if it is a float Lambda: a
    parameter point is built at the precision of its float lambda."""
    return la if la.exact else Lambda(epsilon=la.epsilon, delta=la.delta)


def scanned_words(max_len):
    """Even words with an axis, in scan order."""
    words = []
    for w in filter(md.in_subgroup_o, md.enumerate_words(max_len)):
        _, core = w.cyclic_reduction()
        if core.is_identity or all(let != "I" for let in core.letters):
            continue
        words.append(w)
    return words


def class_representatives(max_len):
    """The first word of each class of {w, w^-1} under even conjugation,
    in scan order."""
    seen, reps = set(), []
    for w in scanned_words(max_len):
        key = md.even_class_key(w)
        if key not in seen:
            seen.add(key)
            reps.append(w)
    return reps


def reference_solve(mat):
    """(loxodromic, min gap or None) of one image, solved on its own."""
    try:
        res = sc.eigen_real(sc.normalize_det_one(sc.mat_to_mpf(mat)))
    except (ComplexSpectrum, SingularMatrix):
        return False, None
    return res.loxodromic, min(res.gaps)


def reference_verdicts(rep, words):
    """Per-word (loxodromic, min gap or None), every word evaluated from
    scratch and solved on its own at the working precision.  An exact
    image's verdict is read from a second solve at 512 bits instead,
    where rounding stays far below ``MODULI_GAP_MARGIN`` even for the
    parabolic words of the zero deformation, which the scan decides
    exactly and a 53-bit solve can misjudge; where that solve finds two
    equal moduli, the gap is 1."""
    out = {}
    for w in words:
        mat = rp.evaluate(rep, w)
        verdict, gap = reference_solve(mat)
        if sc.mat_is_exact(mat):
            with mpmath.workprec(512):
                verdict, fine = reference_solve(mat)
                # two equal moduli on a real spectrum: the least gap is 1
                if not verdict and fine is not None and fine - 1 < mpf("1e-30"):
                    gap = mpf(1)
        out[w] = (verdict, gap)
    return out


def least_gap(verdicts):
    return min((gap for _, gap in verdicts.values() if gap is not None), default=None)


def reference_scan(rep, max_len):
    """The scan as a per-word loop: one spectrum per word."""
    words = scanned_words(max_len)
    verdicts = reference_verdicts(rep, words)
    return {
        "scanned": len(words),
        "min_gap": least_gap(verdicts),
        "non_loxodromic": [w for w in words if not verdicts[w][0]],
    }


@pytest.mark.parametrize("bits", [53, 128])
def test_scan_reports_do_not_depend_on_the_kept_plan(bits):
    # the plan is kept per process: two scans in one process, of the same
    # point and of a new point equal to it, and one after the plan is
    # dropped, give equal reports
    with mpmath.workprec(bits):
        for rep in golden_reps():
            first = al.loxodromy_scan(rep, 10)
            assert al.loxodromy_scan(rep, 10) == first
            assert al.loxodromy_scan(rp.Representation(rep.moduli, rep.lam), 10) == first
            md.scan_plan.cache_clear()
            assert al.loxodromy_scan(rep, 10) == first


@given(tenths_moduli, st.one_of(float_lambdas, exact_lambdas))
@settings(max_examples=12, deadline=None)
def test_scan_tree_walk_images_match_evaluate(moduli, la):
    # at most one spectrum per class, solved on the image of the class's
    # first word in scan order, which is that word's ``evaluate`` bit for
    # bit; at float and exact points alike only the classes the gap filter
    # leaves open
    max_len = 8
    rep = rp.Representation(moduli, la)
    seen = []
    spectrum = al._spectrum

    def recording(g):
        seen.append(g)
        return spectrum(g)

    al._spectrum = recording
    try:
        al.loxodromy_scan(rep, max_len=max_len)
    finally:
        al._spectrum = spectrum
    words = class_representatives(max_len)
    assert len(words) == 7
    # a subsequence of the representatives' images, in scan order
    reps = iter(words)
    for g in seen:
        assert any(same_bits(g, rp.evaluate(rep, w)) for w in reps)


def same_bits(g, ref):
    pairs = [(x, y) for rg, rr in zip(g, ref) for x, y in zip(rg, rr)]
    return all(x == y and type(x) is type(y) for x, y in pairs)


def bits(x):
    return None if x is None else x._mpf_


# Relative distance of the class minimum from the all-word minimum of the
# per-word reference, in units of 2^-prec: at most 2^13.2 over 90 drawn
# points (tenths moduli, float and exact lambda) at maxlen 6 and each of
# 53, 64, 128 and 256 bits, and 2^13.1 over 150 more at each, a third of
# them at the exact lambda = 0, where both minima read exactly 1.  Longer
# words are worse conditioned: at maxlen 10 it reached 2^23.4 (53 bits)
# to 2^32.7 (64 bits).
SPREAD_ULPS = 2**20


@given(
    tenths_moduli,
    st.one_of(float_lambdas, exact_lambdas),
    st.sampled_from([53, 64, 128, 256]),
)
@settings(max_examples=16, deadline=None)
def test_scan_matches_per_word_reference(moduli, la, prec):
    with mpmath.workprec(prec):
        rep = rp.Representation(moduli, at_working_precision(la))
        scan = al.loxodromy_scan(rep, max_len=SCAN_LEN)
        ref = reference_scan(rep, SCAN_LEN)
        assert scan["scanned"] == ref["scanned"]
        assert scan["non_loxodromic"] == ref["non_loxodromic"]
        class_min = least_gap(reference_verdicts(rep, class_representatives(SCAN_LEN)))
        assert bits(scan["min_gap"]) == bits(class_min)
        if class_min is not None:
            bound = SPREAD_ULPS * mpf(2) ** -prec * ref["min_gap"]
            assert abs(scan["min_gap"] - ref["min_gap"]) <= bound


def check_gap_filter(v, g):
    """Where ``sc.gap_bounds`` decides on the ints v, the mpf spectrum of g
    (v's matrix, or v's entries rounded once) has each gap in its widened
    bracket, and is loxodromic where the brackets say so."""
    bounds = sc.gap_bounds(*sc.char_cubic((v[0:3], v[3:6], v[6:9])), max(map(abs, v)))
    if bounds is None:
        return
    res = al._spectrum(g)
    widen = 1 + sc.GAP_FILTER_BOUND
    for gap, (lo, hi) in zip(res.gaps, bounds):
        assert lo / widen <= gap <= hi * widen
    if min(lo for lo, _ in bounds) > (1 + sc.MODULI_GAP_MARGIN) * widen:
        assert res.loxodromic


@given(
    tenths_moduli,
    # (eps, delta) of a float point, or an exact point
    st.one_of(
        st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
        st.builds(
            lambda u, v: Lambda(u=Fraction(u, 10), v=Fraction(v, 10)),
            st.integers(1, 30),
            st.integers(1, 30),
        ),
    ),
    st.sampled_from([53, 64, 128, 256]),
    st.sampled_from(scanned_words(10)),
)
# at 64 bits |det|/M^3 = 2.7e-15 here: without the conditioning requirement
# the filter decides, and an mpf gap falls outside its widened bracket
@example(BoxModuli(Fraction(-1, 2), Fraction(2, 5)), (-1.5774, -1.3459), 64, GroupWord.from_string("RR I R I RR I R I R"))
@settings(max_examples=150, deadline=None)
def test_gap_filter_agrees_with_the_mpf_spectrum(moduli, point, prec, w):
    with mpmath.workprec(prec):
        la = point if isinstance(point, Lambda) else lam(mpf(point[0]), mpf(point[1]))
        g = rp.evaluate(rp.Representation(moduli, la), w)
        if la.exact:
            # the scan's cleared ints (where max|g| >= 1), against g rounded
            # once per entry
            n, cleared = rp._cleared(g)
            if sc.mat_max_abs(cleared) >= n:
                check_gap_filter(flat(cleared), sc.mat_to_mpf(g))
            return
        # the scan's exact ints (where max|g| >= 1), and the limit chain's
        # rounded ones
        if sc.mat_max_abs(g) >= 1:
            check_gap_filter(sc.to_exact_scaled(x for row in g for x in row)[0], g)
        v = sc.to_scaled([x for row in g for x in row])
        check_gap_filter(v, sc.scaled_to_mat(v))


def exact_invariants(g):
    """The unordered pair {t^3/d, s^3/d^2} of an exact image: scale
    invariant, and swapped by inversion."""
    t, s, d = g[0][0] + g[1][1] + g[2][2], sc.second_symmetric(g), sc.det3(g)
    return frozenset((Fraction(t) ** 3 / d, Fraction(s) ** 3 / d**2))


@given(tenths_moduli, exact_lambdas)
@settings(max_examples=10, deadline=None)
def test_equal_class_keys_give_equal_exact_invariants(moduli, la):
    rep = rp.Representation(moduli, la)
    invariants = {}
    for w in scanned_words(8):
        inv = exact_invariants(rp.evaluate(rep, w))
        assert invariants.setdefault(md.even_class_key(w), inv) == inv, w


def test_odd_conjugates_have_different_spectra():
    # I w I swaps A and B^lambda: not a conjugate of the image of w
    rep = rp.Representation(BoxModuli(Fraction(3, 10), Fraction(-1, 5)), lam(mpf("-0.15"), mpf("0.01")))
    w = GroupWord.from_string("I R I R I R I RR")
    odd = md.I_WORD * w * md.I_WORD
    gaps = [min(al.loxodromic_eigen(rep, v).gaps) for v in (w, odd)]
    assert abs(gaps[0] - mpf("9.708")) < mpf("1e-3") and abs(gaps[1] - mpf("9.635")) < mpf("1e-3")
    assert md.even_class_key(w) != md.even_class_key(odd)


def test_exact_verdicts():
    def diag(*x):
        return tuple(tuple(Fraction(x[i]) if i == j else 0 for j in range(3)) for i in range(3))

    assert al._exact_verdict(diag(1, 2, 3)) == (True, None)
    assert al._exact_verdict(diag(-1, 2, Fraction(1, 3))) == (True, None)
    # equal moduli on a real spectrum: a repeated root, or a root pair
    # r, -r (d = t s, s < 0); the least gap is exactly 1
    assert al._exact_verdict(diag(2, 2, 3)) == (False, 1)
    assert al._exact_verdict(diag(1, -1, 2)) == (False, 1)
    assert al._exact_verdict(diag(3, 2, -2)) == (False, 1)
    assert al._exact_verdict(((1, 1, 0), (0, 1, 1), (0, 0, 1))) == (False, 1)
    # a complex pair (disc < 0), and a singular matrix
    assert al._exact_verdict(((0, -1, 0), (1, 0, 0), (0, 0, 2))) == (False, None)
    assert al._exact_verdict(diag(0, 1, 2)) == (False, None)
    # the verdict reads only the cubic: a conjugate, or a multiple, agrees
    p = ((1, 2, 0), (0, 1, 3), (1, 0, 1))
    g = sc.mat_mul(sc.mat_mul(p, diag(1, -1, 2)), sc.mat_inverse(p))
    assert al._exact_verdict(g) == (False, 1)
    assert al._exact_verdict(sc.mat_scale(g, Fraction(-7, 3))) == (False, 1)


@pytest.mark.parametrize("moduli", [M_ZERO, M_TEST])
def test_scan_matches_reference_with_non_loxodromic_words(moduli):
    # undeformed: parabolic words make the order of non_loxodromic matter
    for la in (bx.LAMBDA_ZERO, LAM_ZERO):
        rep = rp.Representation(moduli, la)
        scan = al.loxodromy_scan(rep, max_len=SCAN_LEN)
        ref = reference_scan(rep, SCAN_LEN)
        assert scan["non_loxodromic"]
        if la.exact:
            assert scan == ref
            continue
        # at the float zero the least gap is a parabolic word's rounding
        # noise (1 + 4.2e-20 for the class, 1.0 per word at M_TEST), so
        # only its size is compared
        assert scan["scanned"] == ref["scanned"]
        assert scan["non_loxodromic"] == ref["non_loxodromic"]
        assert max(scan["min_gap"], ref["min_gap"]) <= 1 + sc.MODULI_GAP_MARGIN


@given(tenths_moduli, float_lambdas)
@settings(max_examples=20, deadline=None)
def test_float_letter_images_are_mpf(moduli, la):
    # A's rationals enter float mode once, rounded to nearest, and every
    # letter image is then a product of mpf matrices
    rep = rp.Representation(moduli, la)
    nearest = sc.mat_to_mpf(rp.matrix_A(moduli))
    assert [bits(x) for row in rep.a for x in row] == [bits(x) for row in nearest for x in row]
    rotations, conjugates = rep.letter_images
    assert rotations == {"R": rep.a, "RR": sc.mat_mul(rep.a, rep.a)}
    assert conjugates == {"R": rep.b, "RR": sc.mat_mul(rep.b, rep.b)}
    for images in rep.letter_images:
        for m in images.values():
            assert all(type(x) is mpf for row in m for x in row)


@given(tenths_moduli, exact_lambdas)
@settings(max_examples=10, deadline=None)
def test_exact_lambda_keeps_exact_images(moduli, la):
    rep = rp.Representation(moduli, la)
    assert all(sc.mat_is_exact(m) for images in rep.letter_images for m in images.values())
    assert all(sc.mat_is_exact(m) for m in rep.step_images.values())


@given(tenths_moduli, float_lambdas, st.sampled_from(W_STEPS), st.sampled_from(W_STEPS))
@settings(max_examples=20, deadline=None)
def test_lazy_pairs_equal_eager_list(moduli, la, w1, w2):
    rep = rp.Representation(moduli, la)
    m = sc.normalize_det_one(sc.mat_to_mpf(rp.evaluate(rep, w1 * w2)))
    calls = []
    eigenvector = sc._eigenvector

    def counting(*args):
        calls.append(args)
        return eigenvector(*args)

    sc._eigenvector = counting
    try:
        res = sc.eigen_real(m)
        assert calls == []
        # the list eigen_real used to build for every call
        eager = [(x, eigenvector(sc.mat_to_mpf(m), x)) for x in res.roots]
        assert res.pairs == eager
        assert res.pairs is res.pairs
        assert len(calls) == 3
    finally:
        sc._eigenvector = eigenvector
    assert tuple(sorted(abs(x) for x in res.roots)) == res.moduli
    for x, v in res.pairs:
        residual = tuple(a - b for a, b in zip(sc.mat_vec(m, v), sc.vec_scale(v, x)))
        assert sc.vec_max_abs(residual) <= mpf("1e-20") * max(abs(x), 1)


def test_step_images_are_evaluated_once():
    rep = rp.Representation(M_TEST, lam(mpf("-0.1")))
    assert "step_images" not in vars(rep)
    images = rep.step_images
    assert list(images) == list(W_STEPS)
    assert all(images[w] == rp.evaluate(rep, w) for w in W_STEPS)
    assert rep.step_images is images


def test_chart_diameter_single_root():
    rng = random.Random(5)
    for _ in range(50):
        chart = [(mpf(rng.uniform(-1, 1)), mpf(rng.uniform(-1, 1))) for _ in range(4)]
        pts = [bx.chart_point(xy) for xy in chart]
        coords = [bx.chart_coords(p) for p in pts]
        roots = []
        for i, a in enumerate(coords):
            for b in coords[i + 1:]:
                dx, dy = a[0] - b[0], a[1] - b[1]
                roots.append(mpmath.sqrt(dx * dx + dy * dy))
        assert chart_diameter(pts) == max(roots)


def test_spectrum_converts_only_exact_images():
    # det = -8/27 is a rational cube; the exact image and its mpf copy
    # both give the spectrum of the normalized mpf copy, bit for bit
    third = Fraction(1, 3)
    m = ((1, 1, third), (third, -third, 3), (0, third, -1))
    with mpmath.workprec(128):
        for g in (m, sc.mat_to_mpf(m)):
            res = al._spectrum(g)
            ref = sc.eigen_real(sc.normalize_det_one(sc.mat_to_mpf(g)))
            assert (res.roots, res.gaps) == (ref.roots, ref.gaps)


# ---------------------------------------------------------------------------
# the chart diameter on raw mpf values against the operator formula, and
# the exact stopping test of limit_point against that mpf oracle


def chart_diameter(box_points) -> mpf:
    """Largest chart distance between float-mode points, the stopping
    measure ``limit_point`` read before its test became exact.

    One square root, of the largest squared distance: mpmath's sqrt is
    correctly rounded and monotone, so that is the largest distance.
    The chart is ``bx.chart_coords``, x / (y + z) and (y - z) / (y + z).
    The arithmetic runs on the raw ``_mpf_`` values with the libmp calls
    mpf's operators would make, at their precision and rounding, so the
    bits are theirs.
    """
    prec, rnd = mpmath.mp._prec_rounding
    coords = []
    for x, y, z in box_points:
        w = mpf_add(y._mpf_, z._mpf_, prec, rnd)
        if w == fzero:
            raise DegenerateConfiguration("point at infinity of the chart")
        coords.append((
            mpf_div(mpf_pos(x._mpf_, prec, rnd), w, prec, rnd),
            mpf_div(mpf_sub(y._mpf_, z._mpf_, prec, rnd), w, prec, rnd),
        ))
    best = fzero
    for i, (xi, yi) in enumerate(coords):
        for xj, yj in coords[i + 1:]:
            dx, dy = mpf_sub(xi, xj, prec, rnd), mpf_sub(yi, yj, prec, rnd)
            # max(best, dx * dx + dy * dy)
            d2 = mpf_add(mpf_mul(dx, dx, prec, rnd), mpf_mul(dy, dy, prec, rnd), prec, rnd)
            best = d2 if mpf_gt(d2, best) else best
    return mpmath.sqrt(mpmath.mp.make_mpf(best))


def operator_chart_diameter(box_points):
    coords = [bx.chart_coords(p) for p in box_points]
    best = mpf(0)
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            dx = coords[i][0] - coords[j][0]
            dy = coords[i][1] - coords[j][1]
            best = max(best, dx * dx + dy * dy)
    return mpmath.sqrt(best)


def diameter_outcome(func, points):
    try:
        return func(points)._mpf_
    except DegenerateConfiguration as exc:
        return type(exc)


@pytest.mark.parametrize("prec", [53, 128, 256])
@given(seed=st.integers(0, 2**64), spread=st.sampled_from([0, 4, 100]))
@settings(max_examples=40, deadline=None)
def test_chart_diameter_matches_operator_bits(prec, seed, spread):
    rng = random.Random(seed)

    def coord():
        # up to 320 random bits, so some carry more than the precision
        size = rng.randint(1, 320)
        man = (rng.getrandbits(size) | 1 << (size - 1)) * rng.choice([-1, 1])
        return mpmath.mp.make_mpf(from_man_exp(man, rng.randint(-spread, spread) - size))

    points = [(coord(), coord(), coord()) for _ in range(4)]
    if rng.randrange(8) == 0:
        # a point at infinity of the chart, y + z = 0
        x, y, _ = points[1]
        points[1] = (x, y, -y)
    with mpmath.workprec(prec):
        expected = diameter_outcome(operator_chart_diameter, points)
        assert diameter_outcome(chart_diameter, points) == expected


def dyadic(x) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def oracle_margin(images, prec) -> Fraction:
    """A bound, 16 times over, on the rounding error of ``chart_diameter``
    on the mpf copies of int images (x, y, z) at prec bits: each chart
    coordinate is off by a few units of 2^-prec of its size, times the
    cancellation (|y| + |z|) / |y + z| of its denominator."""
    total = 1
    for x, y, z in images:
        w = y + z
        total += (abs(Fraction(x, w)) + abs(Fraction(y - z, w))) * (2 + Fraction(abs(y) + abs(z), abs(w)))
    return 16 * total / 2**prec


def scaled_images(g, corners):
    return [
        tuple(g[i] * v0 + g[i + 1] * v1 + g[i + 2] * v2 for i in (0, 3, 6)) for v0, v1, v2 in corners
    ]


@pytest.mark.parametrize("prec", [53, 128, 256])
@given(seed=st.integers(0, 2**64), offset=st.sampled_from((0, 1, -1, 2, -2, 64, -64, 2**40)))
@settings(max_examples=60, deadline=None)
def test_exact_stop_test_agrees_with_the_mpf_oracle(prec, seed, offset):
    # random int corner sets, some nearly collapsed as the chain's are,
    # under a random scaled matrix; tol a dyadic mpf offset from the
    # oracle's diameter by a multiple of the oracle's error bound
    rng = random.Random(seed)

    def signed(bits):
        return rng.getrandbits(bits) * rng.choice([-1, 1])

    size = rng.randint(1, 200)
    base = [signed(size) for _ in range(3)]
    spread = rng.randint(0, size)
    corners = [tuple(b + signed(spread) for b in base) for _ in range(4)]
    g = tuple(signed(rng.randint(1, 200)) for _ in range(9))
    images = scaled_images(g, corners)
    with mpmath.workprec(prec):
        points = [sc.vec_to_mpf(v) for v in images]
        if any(y + z == 0 for _, y, z in images):
            with pytest.raises(DegenerateConfiguration):
                chart_pairs(g, corners)
            return
        pairs = chart_pairs(g, corners)
        oracle = chart_diameter(points)
        margin = oracle_margin(images, prec)
        tol = sc.to_mpf(max(dyadic(oracle) + offset * margin, dyadic(oracle) / 2))
        assume(tol > 0)
        below = all_below(pairs, al._square_bound(tol))
        # exactly: d^2 = max N / D against tol^2
        square = max(Fraction(n, d) for n, d in pairs)
        t = dyadic(tol)
        assert below == (square < t * t)
        # the oracle agrees wherever it is clear of tol
        if square > (t + margin) ** 2 or (t > margin and square < (t - margin) ** 2):
            assert below == (oracle < tol)
        # the reported diameter is d rounded down
        diameter = al._diameter(pairs)
        assert dyadic(diameter) ** 2 <= square
        assert not below or diameter < tol


@pytest.mark.parametrize("prec", [53, 128])
def test_exact_stop_test_does_not_stop_at_a_tie(prec):
    # chart points (0, 0), (3t/5, 4t/5), (t/2, 0), (0, t/4) with w = 2^40:
    # diameter exactly t = 5 2^-20, which no rounding touches
    w = 2**40
    chart = [(0, 0), (3 * 2**-20, 4 * 2**-20), (5 * 2**-21, 0), (0, 5 * 2**-22)]
    corners = [
        (int(a * w), int((1 + b) * w) // 2, int((1 - b) * w) // 2) for a, b in (map(Fraction, xy) for xy in chart)
    ]
    identity = flat(sc.IDENTITY)
    with mpmath.workprec(prec):
        tol = mpf(5) * mpf(2) ** -20
        pairs = chart_pairs(identity, corners)
        assert max(Fraction(n, d) for n, d in pairs) == dyadic(tol) ** 2
        assert chart_diameter([sc.vec_to_mpf(c) for c in corners]) == tol
        assert not all_below(pairs, al._square_bound(tol))
        assert all_below(pairs, al._square_bound(tol + mpmath.eps * tol))
        assert al._diameter(pairs) == tol


# ---------------------------------------------------------------------------
# the scaled-integer product chain of limit_point


def golden_reps():
    """The golden cases' DEFORMED and EXACT points, at the working precision."""
    return (
        rp.Representation(GOLDEN_MODULI, lam(mpf("-0.15"), mpf("0.01"))),
        rp.Representation(GOLDEN_MODULI, Lambda(u=Fraction(9, 10), v=1)),
    )


DEPTH_TWO_WORDS = [s * t for s in W_STEPS for t in W_STEPS]


def unflat(values):
    return tuple(tuple(values[i: i + 3]) for i in (0, 3, 6))


def projective_error(a, ref):
    """Normwise distance of two matrices (nine entries each) as points of
    projective space: max |a / a_k - ref / ref_k|, at the largest |ref_k|."""
    k = max(range(9), key=lambda i: abs(ref[i]))
    return max(abs(x / a[k] - y / ref[k]) for x, y in zip(a, ref))


@pytest.mark.parametrize("bits", [53, 64, 128, 256])
def test_scaled_chain_is_within_a_unit_of_the_exact_chain(bits):
    # the chains of the 16 depth-2 words to depth 60, against the chain of
    # the same rounded step matrices in mpf at four times the precision:
    # at most 0.00025 units of 2^-bits, where the mpf chain at the
    # precision itself drifts 7.9-10.1 units from its own such reference
    worst = 0
    with mpmath.workprec(bits):
        reps = golden_reps()
    for rep in reps:
        for w in DEPTH_TWO_WORDS:
            with mpmath.workprec(bits):
                steps = [
                    sc.to_scaled(flat(sc.mat_to_mpf(rep.step_images[s])))
                    for s in md.crossing_steps(w)
                ]
                chain = [flat(sc.IDENTITY)]
                for n in range(60):
                    chain.append(sc.scaled_mul(chain[-1], steps[n % len(steps)]))
            with mpmath.workprec(4 * bits):
                ref = sc.mat_to_mpf(sc.IDENTITY)
                for n, g in enumerate(chain[1:]):
                    ref = sc.mat_mul(ref, sc.mat_to_mpf(unflat(steps[n % len(steps)])))
                    error = projective_error([mpf(x) for x in g], flat(ref))
                    worst = max(worst, error * mpf(2) ** bits)
    assert worst <= 1


@pytest.mark.parametrize("bits", [53, 64, 128, 256])
def test_scaled_chain_ignores_the_scale_of_the_steps(bits):
    # step images scaled by 2^530 or 2^-530 (as Fractions at the exact
    # point) give the same scaled ints, so the same limit sample, bit for bit
    with mpmath.workprec(bits):
        for rep in golden_reps():
            for w in W_STEPS:
                expected = limit_outcome(al.limit_point, rep, w, al.LIMIT_TOL, al.LIMIT_DEPTH_CAP)
                assert isinstance(expected, tuple)
                for scale in (Fraction(2**530), Fraction(1, 2**530)):
                    scaled = rp.Representation(rep.moduli, rep.lam)
                    vars(scaled)["step_images"] = {
                        s: sc.mat_scale(g, scale if sc.mat_is_exact(g) else sc.to_mpf(scale))
                        for s, g in rep.step_images.items()
                    }
                    got = limit_outcome(al.limit_point, scaled, w, al.LIMIT_TOL, al.LIMIT_DEPTH_CAP)
                    assert got == expected


# ---------------------------------------------------------------------------
# limit_point's walk against a plain linear loop


def chart_pairs(g: tuple, corners: list) -> list:
    """Ints (N, D) per pair of corner images (x, y, z) = g c, whose squared
    chart distance is N / D: with u = y - z and w = y + z (own scales
    cancel), N = (x_i w_j - x_j w_i)^2 + (u_i w_j - u_j w_i)^2, D = (w_i w_j)^2.
    The generic form, for any corner ints: the oracle of ``al._chart_pairs``
    and ``al._stop_pairs``, which read the standard corners' images as
    sums and differences of g's columns."""
    images = []
    for v0, v1, v2 in corners:
        x, y, z = (g[i] * v0 + g[i + 1] * v1 + g[i + 2] * v2 for i in (0, 3, 6))
        if y + z == 0:
            raise DegenerateConfiguration("point at infinity of the chart")
        images.append((x, y - z, y + z))
    return [
        ((xi * wj - xj * wi) ** 2 + (ui * wj - uj * wi) ** 2, (wi * wj) ** 2)
        for i, (xi, ui, wi) in enumerate(images)
        for xj, uj, wj in images[i + 1:]
    ]


def all_below(pairs: list, bound: tuple) -> bool:
    """Whether every N / D < tol^2, for tol's ``al._square_bound`` (a tie fails)."""
    square, left, right = bound
    return all(n << left < square * d << right for n, d in pairs)


STANDARD = [c.coords for c in bx.STANDARD_CORNERS]


def oracle_stop_pairs(g, bound):
    """``al._stop_pairs`` from the generic pairs: the diagonal (p, r), then
    the six pairs only where the diagonal passes."""
    if not all_below(chart_pairs(g, STANDARD[::2]), bound):
        return None
    pairs = chart_pairs(g, STANDARD)
    return pairs if all_below(pairs, bound) else None


def stop_outcome(stop, g, bound):
    try:
        return stop(g, bound)
    except DegenerateConfiguration as exc:
        return type(exc)


def linear_limit_point(rep, w, tol, depth_cap=al.LIMIT_DEPTH_CAP):
    """``limit_point`` testing the chart diameter at every depth in turn,
    on the same scaled-integer products and exact stopping test, with the
    six pairs of the scaled corners and no diagonal pre-test."""
    letters = md.crossing_form(w).letters
    steps = [
        sc.to_scaled(flat(sc.mat_to_mpf(rep.step_images[GroupWord(letters[k: k + 4])])))
        for k in range(0, len(letters), 4)
    ]
    period_product = flat(sc.IDENTITY)
    for step in steps:
        period_product = sc.scaled_mul(period_product, step)
    if not al._spectrum(sc.scaled_to_mat(period_product)).loxodromic:
        raise NonLoxodromic("word image has collapsing eigenvalue moduli")
    box = bx.from_moduli(rep.moduli)
    corners = [sc.to_scaled(sc.vec_to_mpf(p.coords)) for p in (box.p, box.q, box.r, box.s)]
    g = flat(sc.IDENTITY)
    depth = 0
    while True:
        pairs = chart_pairs(g, corners)
        if all_below(pairs, al._square_bound(tol)):
            break
        if depth >= depth_cap:
            raise NoConvergence("depth cap reached before the boxes collapsed")
        g = sc.scaled_mul(g, steps[depth % len(steps)])
        depth += 1
    g = sc.scaled_to_mat(g)
    point = unit_max_norm(sc.mat_vec(g, sc.vec_to_mpf(box.b.coords)))
    dual = unit_max_norm(sc.mat_vec(sc.mat_transpose(sc.adjugate(g)), sc.vec_to_mpf(box.line_B.coords)))
    residual = al.incidence_residual(dual, point)
    return al.LimitSample(w, point, dual, residual, al._diameter(pairs), depth)


def unit_max_norm(v):
    top = sc.vec_max_abs(v)
    return tuple(x / top for x in v)


def limit_outcome(limit, rep, w, tol, depth_cap, max_tests=None):
    """Every field of the sample (points and lines by their coordinates,
    since their ``==`` is projective), or the type of the library error.

    More than ``max_tests`` stopping tests (``_stop_pairs``) fail the test."""
    tests = []
    stop_pairs = al._stop_pairs

    def counting(g, bound):
        tests.append(bound)
        assert max_tests is None or len(tests) <= max_tests, "too many stopping tests"
        return stop_pairs(g, bound)

    with mock.patch.object(al, "_stop_pairs", counting):
        try:
            s = limit(rep, w, tol=tol, depth_cap=depth_cap)
        except PappusLabError as exc:
            return type(exc)
    return (s.word, s.point, s.dual_point, s.flag_residual, s.diameter_at_stop, s.depth)


@given(
    tenths_moduli,
    st.one_of(float_lambdas, exact_lambdas),
    st.lists(st.sampled_from(W_STEPS), min_size=1, max_size=3),
    st.sampled_from((64, 128, 256)),
    st.floats(0, 1),
    st.sampled_from(("plain", "tie", "above_d0", "cap_at_stop", "cap_below_stop")),
)
@settings(max_examples=40, deadline=None)
def test_limit_search_matches_linear_loop(moduli, la, steps, bits, x, case):
    assume(bx.in_region(la))
    w = GroupWord.identity()
    for step in steps:
        w = w * step
    with mpmath.workprec(bits):
        rep = rp.Representation(moduli, at_working_precision(la))
        floor = sc.float_epsilon()
        # tol = 10^-e, e from 1 to 1.5 digits short of the precision floor
        tol = mpf(10) ** -(1 + x * (-mpmath.log10(floor) - 2.5))
        depth_cap = al.LIMIT_DEPTH_CAP
        reference = limit_outcome(linear_limit_point, rep, w, tol, depth_cap)
        if isinstance(reference, tuple):
            stop, diameter_at_stop = reference[5], reference[4]
            if case == "tie" and diameter_at_stop > floor:
                # d(stop) rounded down: d(stop) is equal to tol or a few
                # ulps above it, and does not stop
                tol = diameter_at_stop
            elif case == "above_d0":
                tol = mpf(3)  # the base box has chart diameter 2 sqrt 2
            elif case == "cap_at_stop":
                depth_cap = stop
            elif case == "cap_below_stop" and stop:
                depth_cap = stop - 1
            reference = limit_outcome(linear_limit_point, rep, w, tol, depth_cap)
        # one stopping test per depth walked: to the stop, or to the cap
        max_tests = (reference[5] if isinstance(reference, tuple) else depth_cap) + 1
        walked = limit_outcome(al.limit_point, rep, w, tol, depth_cap, max_tests)
    assert walked == reference
    if case == "above_d0" and isinstance(reference, tuple):
        assert reference[5] == 0
    if case == "cap_below_stop" and depth_cap < al.LIMIT_DEPTH_CAP:
        assert reference is NoConvergence


# ---------------------------------------------------------------------------
# the stopping test on the standard corners against the generic oracle


def chart_affine_matrix(a, b, c, d, x0, y0):
    """Ints g whose chart map is (X, Y) -> (a X + b Y + x0, c X + d Y + y0),
    for dyadic Fractions: g = T^-1 M T on (x, u, w) = (x, y - z, y + z),
    cleared of its denominators."""
    t = ((1, 0, 0), (0, 1, -1), (0, 1, 1))
    t_inv = ((1, 0, 0), (0, Fraction(1, 2), Fraction(1, 2)), (0, Fraction(-1, 2), Fraction(1, 2)))
    m = ((a, b, x0), (c, d, y0), (0, 0, 1))
    g = flat(sc.mat_mul(sc.mat_mul(t_inv, m), t))
    scale = max(Fraction(x).denominator for x in g)
    return tuple(int(x * scale) for x in g)


def drawn_scaled_matrix(rng):
    """Nine ints as a chain's product may hold them: a rank-one part v f^T of
    random size plus noise of random size, so some boxes nearly collapse."""

    def signed(bits):
        return rng.getrandbits(bits) * rng.choice([-1, 1])

    size = rng.randint(1, 200)
    v, f = [signed(size) for _ in range(3)], [signed(size) for _ in range(3)]
    noise = rng.randint(0, 2 * size)
    return tuple(v[i] * f[j] + signed(noise) for i in range(3) for j in range(3))


def tol_candidates(g):
    """Dyadic tols at and about the diagonal's length and the diameter of
    g's corner images, where either is defined, and two far from both."""
    out = [mpf(2) ** -200, mpf(2) ** 200]
    try:
        pairs = chart_pairs(g, STANDARD)
    except DegenerateConfiguration:
        return out
    for pair in (pairs[1:2], pairs):
        d = al._diameter(pair)
        out += [d, d + mpmath.eps * d, d - mpmath.eps * d]
    return [t for t in out if t > 0]


@given(seed=st.integers(0, 2**64), at_infinity=st.sampled_from((None, 0, 1, 2, 3)), pick=st.integers(0, 7))
@settings(max_examples=150, deadline=None)
def test_corner_stop_test_matches_the_generic_oracle(seed, at_infinity, pick):
    # drawn scaled-int matrices; with at_infinity, one corner's image moved
    # onto the chart's line at infinity (y + z = 0) by one entry of g's last row
    rng = random.Random(seed)
    g = list(drawn_scaled_matrix(rng))
    if at_infinity is not None:
        corner = STANDARD[at_infinity]
        j = next(k for k in range(3) if corner[k])
        rest = sum((g[3 + k] + g[6 + k]) * corner[k] for k in range(3) if k != j)
        g[6 + j] = -(rest + g[3 + j] * corner[j]) // corner[j]
        assert sum((g[3 + k] + g[6 + k]) * corner[k] for k in range(3)) == 0
    g = tuple(g)
    assert stop_outcome(lambda g, _: al._chart_pairs(g), g, None) == stop_outcome(
        lambda g, _: chart_pairs(g, STANDARD), g, None
    )
    with mpmath.workprec(128):
        tols = tol_candidates(g)
        bound = al._square_bound(tols[pick % len(tols)])
    assert stop_outcome(al._stop_pairs, g, bound) == stop_outcome(oracle_stop_pairs, g, bound)


@pytest.mark.parametrize("shape", ["rectangle", "parallelogram"])
def test_corner_stop_test_does_not_stop_at_a_tie(shape):
    # chart images of the standard corners with diameter exactly
    # t = 5 2^-20: a 6k by 8k rectangle, whose diagonal ties too, and a
    # parallelogram whose diagonal (p, r) has length 2k and passes, while
    # (q, s) ties; k = 2^-21, and each is shifted off the chart's origin
    k = Fraction(1, 2**21)
    a, b, c, d = (3 * k, 0, 0, 4 * k) if shape == "rectangle" else (k, 2 * k, 2 * k, 2 * k)
    g = chart_affine_matrix(a, b, c, d, Fraction(1, 8), Fraction(-3, 16))
    calls = []
    pairs_of = al._chart_pairs

    def counting(g):
        calls.append(g)
        return pairs_of(g)

    with mpmath.workprec(128), mock.patch.object(al, "_chart_pairs", counting):
        tol = mpf(5) * mpf(2) ** -20
        assert max(Fraction(n, d) for n, d in chart_pairs(g, STANDARD)) == dyadic(tol) ** 2
        bound = al._square_bound(tol)
        assert al._stop_pairs(g, bound) is None
        assert oracle_stop_pairs(g, bound) is None
        # only the parallelogram's diagonal passes at the tie
        assert len(calls) == (shape == "parallelogram")
        bound = al._square_bound(tol + mpmath.eps * tol)
        pairs = al._stop_pairs(g, bound)
        assert pairs == oracle_stop_pairs(g, bound) == chart_pairs(g, STANDARD)
        assert al._diameter(pairs) == tol


@pytest.mark.parametrize("bits", [53, 128])
def test_corner_stop_test_matches_the_oracle_along_the_limit_chains(bits):
    # every depth of the 16 chains of ``limit --depth 2`` at the golden
    # deformed point, to two depths past each stop
    with mpmath.workprec(bits):
        rep = golden_reps()[0]
        bound = al._square_bound(al.LIMIT_TOL)
        for w in DEPTH_TWO_WORDS:
            stop = al.limit_point(rep, w).depth
            steps = [sc.to_scaled(flat(sc.mat_to_mpf(rep.step_images[s]))) for s in md.crossing_steps(w)]
            g = flat(sc.IDENTITY)
            for depth in range(stop + 3):
                got = al._stop_pairs(g, bound)
                assert got == oracle_stop_pairs(g, bound)
                assert al._chart_pairs(g) == chart_pairs(g, STANDARD)
                assert (got is not None) == (depth >= stop) or depth > stop
                g = sc.scaled_mul(g, steps[depth % len(steps)])


# ---------------------------------------------------------------------------
# Birkhoff's contraction bound
#
# G. Birkhoff, "Extensions of Jentzsch's theorem", Trans. AMS 85 (1957)
# 219-227: a projective map sending a convex domain onto a subset of
# projective diameter Delta contracts the domain's Hilbert metric by at
# least tanh(Delta / 4).  Each step word maps the base box onto its image
# inside the box, so the constant C that constant_C samples is at least
# coth(Delta / 4).  In the square chart the facet functionals 1 - x,
# 1 + x, 1 - y and 1 + y are positive inside the box, and Delta = log r
# for r the largest max_f f(a)/f(b) * max_f f(b)/f(a) over pairs (a, b)
# of image vertices, so coth(Delta / 4) = (sqrt r + 1) / (sqrt r - 1).

# the golden certify point, in float and exact lambda
M_GOLDEN = BoxModuli(Fraction(3, 10), Fraction(-1, 5))

exact_interior_lambdas = st.builds(
    lambda u, v: Lambda(u=Fraction(u, 10), v=Fraction(v, 10)),
    st.integers(5, 9),
    st.integers(8, 12),
).filter(lambda la: bx.in_region(la, strict=True))


def facet_values(rep):
    """Per step word, the facet functionals (1 - x, 1 + x, 1 - y, 1 + y)
    at the chart points of the four corners of its image of the base box;
    rational at an exact lambda."""
    box = bx.from_moduli(rep.moduli)
    per_step = []
    for w in W_STEPS:
        g = rep.step_images[w]
        charts = [bx.chart_coords(sc.mat_vec(g, p.coords)) for p in (box.p, box.q, box.r, box.s)]
        per_step.append([(1 - x, 1 + x, 1 - y, 1 + y) for x, y in charts])
    return per_step


def birkhoff_bound(rep):
    """The least over the four step words of (sqrt r + 1) / (sqrt r - 1):
    exactly 1 at a step whose image has a vertex on the square, where r
    is infinite.  Raises NotNested when an image vertex leaves it."""
    bounds = []
    for values in facet_values(rep):
        least = min(f for fs in values for f in fs)
        if least < 0:
            raise NotNested("an image vertex leaves the square")
        if least == 0:
            bounds.append(mpf(1))
            continue
        r = max(
            max(fa / fb for fa, fb in zip(a, b)) * max(fb / fa for fa, fb in zip(a, b))
            for a in values
            for b in values
        )
        root = mpmath.sqrt(sc.to_mpf(r))
        bounds.append((root + 1) / (root - 1))
    return min(bounds)


@pytest.mark.parametrize(
    "moduli, la, expected",
    [
        # the sampled constant_C reads 1.9093, 1.6500 and 2.3956 at these
        # points on its default 16 x 8 grid, and 1.8655, 1.6071 and
        # 2.391209 on a 64 x 64 grid, falling towards the bound
        (M_GOLDEN, lam(mpf("-0.15"), mpf("0.01")), "1.85099"),
        (M_GOLDEN, Lambda(u=Fraction(9, 10), v=1), "1.59266"),
        (M_TEST, lam(mpf("-0.2")), "2.39121"),
    ],
)
def test_birkhoff_bound_values(moduli, la, expected):
    assert mpmath.nstr(birkhoff_bound(rp.Representation(moduli, la)), 6) == expected


@given(tenths_moduli, exact_interior_lambdas)
@settings(max_examples=30, deadline=None)
def test_birkhoff_bound_exceeds_one_inside_region(moduli, la):
    # inside the region every image vertex lies strictly inside the
    # square, decided on rationals; so C_B > 1, and crossing
    # ceil(log 2 / log C_B) step words at least doubles the Hilbert norm
    rep = rp.Representation(moduli, la)
    values = [f for per_step in facet_values(rep) for fs in per_step for f in fs]
    assert all(type(f) is Fraction and f > 0 for f in values)
    c = birkhoff_bound(rep)
    assert c > 1
    steps = int(mpmath.ceil(mpmath.log(2) / mpmath.log(c)))
    assert c**steps >= 2


@given(tenths_moduli)
@settings(max_examples=20, deadline=None)
def test_birkhoff_bound_is_one_at_zero_deformation(moduli):
    # rho_Theta is not Anosov: at the exact lambda = 0 an image vertex lies
    # on the square, so the bound proves no contraction
    rep = rp.Representation(moduli, bx.LAMBDA_ZERO)
    values = [f for per_step in facet_values(rep) for fs in per_step for f in fs]
    assert all(type(f) is Fraction and f >= 0 for f in values)
    assert 0 in values
    assert birkhoff_bound(rep) == 1


@given(tenths_moduli, st.one_of(float_lambdas, exact_interior_lambdas))
@settings(max_examples=15, deadline=None)
def test_sampled_constant_is_at_least_birkhoff_bound(moduli, la):
    # a sample minimum can only over-estimate the infimum C >= C_B; the
    # slack covers the float64 sampling
    rep = rp.Representation(moduli, la)
    assert al.constant_C(rep) >= birkhoff_bound(rep) * (1 - mpf("1e-9"))
