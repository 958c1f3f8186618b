import random
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import from_man_exp

from pappuslab import anosov_lab as al
from pappuslab import boxes as bx
from pappuslab import modular as md
from pappuslab import projective as pj
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
from pappuslab.projective import Line, Point

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


def scanned_words(max_len):
    """Even words with an axis, in scan order."""
    words = []
    for w in md.enumerate_words(max_len, subgroup_o_only=True):
        _, core = w.cyclic_reduction()
        if core.is_identity or all(let != "I" for let in core.letters):
            continue
        words.append(w)
    return words


def reference_scan(rep, max_len):
    """The scan as a per-word loop: every word evaluated from scratch."""
    words = scanned_words(max_len)
    min_gap = None
    non_loxodromic = []
    for w in words:
        mat = sc.mat_to_mpf(rp.evaluate(rep, w))
        try:
            res = sc.eigen_real(sc.normalize_det_one(mat))
        except (ComplexSpectrum, SingularMatrix):
            non_loxodromic.append(w)
            continue
        gap = min(res.gaps)
        min_gap = gap if min_gap is None else min(min_gap, gap)
        if not res.loxodromic:
            non_loxodromic.append(w)
    return {
        "scanned": len(words),
        "min_gap": min_gap,
        "non_loxodromic": non_loxodromic,
    }


def mixed_evaluate(rep, w, rotations):
    """``evaluate`` with the rotation letters mapped to ``rotations``
    (images of R and RR) and the conjugate letters to B^lambda."""
    images = (rotations, rep.letter_images[1])
    out, parity = sc.IDENTITY, 0
    for let in w.letters:
        if let == "I":
            parity ^= 1
        else:
            out = sc.mat_mul(out, images[parity][let])
    return out


def mpmathify_matrix(m):
    return tuple(tuple(mpmath.mpmathify(x) for x in row) for row in m)


@given(tenths_moduli, st.one_of(float_lambdas, exact_lambdas))
@settings(max_examples=12, deadline=None)
def test_scan_tree_walk_images_match_evaluate(moduli, la):
    rep = rp.Representation(moduli, la)
    seen = []
    spectrum = al._spectrum

    def recording(g):
        seen.append(g)
        return spectrum(g)

    al._spectrum = recording
    try:
        al.loxodromy_scan(rep, max_len=SCAN_LEN)
    finally:
        al._spectrum = spectrum
    words = scanned_words(SCAN_LEN)
    assert len(seen) == len(words)
    for g, w in zip(seen, words):
        ref = rp.evaluate(rep, w)
        pairs = [(x, y) for rg, rr in zip(g, ref) for x, y in zip(rg, rr)]
        assert all(x == y and type(x) is type(y) for x, y in pairs), w


@given(tenths_moduli, st.one_of(float_lambdas, exact_lambdas))
@settings(max_examples=12, deadline=None)
def test_scan_matches_per_word_reference(moduli, la):
    rep = rp.Representation(moduli, la)
    assert al.loxodromy_scan(rep, max_len=SCAN_LEN) == reference_scan(rep, SCAN_LEN)


@pytest.mark.parametrize("moduli", [M_ZERO, M_TEST])
def test_scan_matches_reference_with_non_loxodromic_words(moduli):
    # undeformed: parabolic words make the order of non_loxodromic matter
    rep = rp.Representation(moduli, LAM_ZERO)
    scan = al.loxodromy_scan(rep, max_len=SCAN_LEN)
    assert scan["non_loxodromic"]
    assert scan == reference_scan(rep, SCAN_LEN)


@given(tenths_moduli, float_lambdas)
@settings(max_examples=20, deadline=None)
def test_float_letter_images_are_mpmathified_rotations(moduli, la):
    rep = rp.Representation(moduli, la)
    a = rp.matrix_A(moduli)
    rotations = {"R": a, "RR": sc.mat_mul(a, a)}
    assert rep.a == a and sc.mat_is_exact(rep.a)
    images = rep.letter_images[0]
    for let, m in rotations.items():
        assert images[let] == mpmathify_matrix(m)
        assert all(type(x) is mpf for row in images[let] for x in row)
    # word images equal the mixed Fraction x mpf products bit for bit;
    # rounding the rotations to nearest (sc.to_mpf) would not
    words = md.enumerate_words(SCAN_LEN, subgroup_o_only=True)
    for w in words:
        assert rp.evaluate(rep, w) == mixed_evaluate(rep, w, rotations)
    to_nearest = {let: sc.mat_to_mpf(m) for let, m in rotations.items()}
    if to_nearest != images:
        assert any(
            mixed_evaluate(rep, w, to_nearest) != mixed_evaluate(rep, w, rotations)
            for w in words
        )


def test_to_nearest_rotations_would_change_word_images():
    rep = rp.Representation(M_TEST, lam(mpf("-0.15"), mpf("0.01")))
    a = rp.matrix_A(M_TEST)
    rotations = {"R": a, "RR": sc.mat_mul(a, a)}
    to_nearest = {let: sc.mat_to_mpf(m) for let, m in rotations.items()}
    assert to_nearest != rep.letter_images[0]
    assert any(
        mixed_evaluate(rep, w, to_nearest) != rp.evaluate(rep, w)
        for w in md.enumerate_words(4, subgroup_o_only=True)
    )


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
        residual = sc.vec_sub(sc.mat_vec(m, v), sc.vec_scale(v, x))
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
        assert al._chart_diameter(pts) == max(roots)


def test_spectrum_converts_only_exact_images():
    # det = -8/27 is a rational cube: normalizing the exact matrix would
    # keep it exact and round differently from normalizing its mpf copy
    third = Fraction(1, 3)
    m = ((1, 1, third), (third, -third, 3), (0, third, -1))
    with mpmath.workprec(128):
        for g in (m, sc.mat_to_mpf(m)):
            res = al._spectrum(g)
            ref = sc.eigen_real(sc.normalize_det_one(sc.mat_to_mpf(g)))
            assert (res.roots, res.gaps) == (ref.roots, ref.gaps)
        assert sc.eigen_real(sc.normalize_det_one(m)).roots != res.roots


# ---------------------------------------------------------------------------
# the chart diameter on raw mpf values against the operator formula


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
        assert diameter_outcome(al._chart_diameter, points) == expected


# ---------------------------------------------------------------------------
# the bracketed stopping-depth search against the linear loop it replaced


def linear_limit_point(rep, w, tol, depth_cap=al.LIMIT_DEPTH_CAP):
    """``limit_point`` testing the chart diameter at every depth in turn."""
    al.loxodromic_eigen(rep, w)
    letters = md.crossing_form(w).letters
    step_mats = [
        sc.mat_to_mpf(rep.step_images[GroupWord(letters[k: k + 4])])
        for k in range(0, len(letters), 4)
    ]
    box = bx.from_moduli(rep.moduli)
    corners = [sc.vec_to_mpf(p.coords) for p in (box.p, box.q, box.r, box.s)]
    g = sc.mat_to_mpf(sc.IDENTITY)
    depth = 0
    while True:
        diameter = al._chart_diameter([sc.mat_vec(g, c) for c in corners])
        if diameter < tol:
            break
        if depth >= depth_cap:
            raise NoConvergence("depth cap reached before the boxes collapsed")
        g = sc.mat_mul(g, step_mats[depth % len(step_mats)])
        depth += 1
    point = Point(sc.mat_vec(g, sc.vec_to_mpf(box.b.coords)))
    dual = Line(sc.mat_vec(sc.mat_transpose(sc.adjugate(g)), sc.vec_to_mpf(box.line_B.coords)))
    residual = pj.incidence_residual(dual.coords, point.coords)
    return al.LimitSample(w, point, dual, residual, diameter, depth)


def limit_outcome(limit, rep, w, tol, depth_cap, max_tests=None):
    """Every field of the sample (points and lines by their coordinates,
    since their ``==`` is projective), or the type of the library error.

    More than ``max_tests`` stopping tests (a diameter compared with tol)
    fail the test: a search whose probe leaves the bracket can loop
    without closing it, on diameters it has already computed."""
    tests = []
    diameter = al._chart_diameter

    class Diameter(mpf):
        def __lt__(self, other):
            tests.append(other)
            assert max_tests is None or len(tests) <= max_tests, "search does not close"
            return super().__lt__(other)

    def counting(points):
        return Diameter(diameter(points))

    with mock.patch.object(al, "_chart_diameter", counting):
        try:
            s = limit(rep, w, tol=tol, depth_cap=depth_cap)
        except PappusLabError as exc:
            return type(exc)
    return (s.word, s.point.coords, s.dual_point.coords, s.flag_residual, s.diameter_at_stop, s.depth)


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
        rep = rp.Representation(moduli, la)
        floor = sc.float_epsilon()
        # tol = 10^-e, e from 1 to 1.5 digits short of the precision floor
        tol = mpf(10) ** -(1 + x * (-mpmath.log10(floor) - 2.5))
        depth_cap = al.LIMIT_DEPTH_CAP
        reference = limit_outcome(linear_limit_point, rep, w, tol, depth_cap)
        if isinstance(reference, tuple):
            stop, diameter_at_stop = reference[5], reference[4]
            if case == "tie" and diameter_at_stop > floor:
                tol = diameter_at_stop  # a diameter equal to tol does not stop
            elif case == "above_d0":
                tol = mpf(3)  # the base box has chart diameter 2 sqrt 2
            elif case == "cap_at_stop":
                depth_cap = stop
            elif case == "cap_below_stop" and stop:
                depth_cap = stop - 1
            reference = limit_outcome(linear_limit_point, rep, w, tol, depth_cap)
        # each test is at a new depth, at most max(period, 2 stop - 1) and
        # at most the cap
        period = len(md.crossing_form(w).letters) // 4
        max_tests = depth_cap + 1
        if isinstance(reference, tuple):
            max_tests = min(max_tests, max(period, 2 * reference[5]) + 1)
        searched = limit_outcome(al.limit_point, rep, w, tol, depth_cap, max_tests)
    assert searched == reference
    if case == "above_d0" and isinstance(reference, tuple):
        assert reference[5] == 0
    if case == "cap_below_stop" and depth_cap < al.LIMIT_DEPTH_CAP:
        assert reference is NoConvergence


ULP_FALL = 1 - mpf(2) ** -126


@given(
    st.lists(st.sampled_from((0, 0.1, 0.5, 0.5, 0.9, 0.99, ULP_FALL, 1, 1)), min_size=1, max_size=60),
    st.one_of(st.integers(0, 60), st.floats(-30, 1)),
    st.integers(1, 8),
    st.integers(0, 80),
)
@settings(max_examples=300, deadline=None)
def test_first_depth_below_matches_linear_scan(ratios, tol_at, first_probe, depth_cap):
    # a planted non-increasing diameter with plateaus (ratio 1), falls of
    # about an ulp, whose logs can be equal, and drops to 0, constant past
    # its end; tol is one of its values (a tie) or a power of ten
    d = [mpf(3)]
    for r in ratios:
        d.append(d[-1] * r)
    tol = d[min(tol_at, len(d) - 1)] if isinstance(tol_at, int) else mpf(10) ** tol_at
    assume(tol > 0)
    calls = []

    def diameter(n):
        calls.append(n)
        assert len(calls) <= 3 * (depth_cap + 1) + 1, "search does not close"
        return d[min(n, len(d) - 1)]

    stop = next((n for n in range(depth_cap + 1) if diameter(n) < tol), None)
    calls.clear()
    if stop is None:
        with pytest.raises(NoConvergence):
            al._first_depth_below(diameter, tol, first_probe, depth_cap)
    else:
        assert al._first_depth_below(diameter, tol, first_probe, depth_cap) == stop
        assert max(calls) <= max(first_probe, 2 * stop - 1)
    assert max(calls) <= depth_cap


def test_first_depth_below_with_equal_logs():
    # diameters an ulp apart can have equal mpf logs: that is no usable
    # rate, so the bracket is bisected rather than divided by a zero fall
    x = mpf("1e-12")
    assert x > x * ULP_FALL and mpmath.log(x) == mpmath.log(x * ULP_FALL)

    def diameter(n):
        return x if n <= 5 else x * ULP_FALL

    assert al._first_depth_below(diameter, x, 2, 100) == 6
