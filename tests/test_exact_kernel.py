"""The integer exact kernel against the rational formulas it replaced,
and the boxes that skip validation against the public constructor."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import mpmath
from mpmath import mpf

from pappuslab import boxes as bx
from pappuslab import cli
from pappuslab import projective as pj
from pappuslab import representation as rp
from pappuslab import scalars as sc
from pappuslab.errors import DegenerateBox, DegenerateConfiguration, PappusLabError
from pappuslab.modular import W_STEPS
from pappuslab.projective import Point

# ---------------------------------------------------------------------------
# reference: the rational formulas of frame_matrix, theta_basis and
# transform_sigma before their integer versions


def ref_frame_matrix(a, b, c, d):
    cols = sc.mat_transpose((a.coords, b.coords, c.coords))
    coeffs = sc.mat_vec(sc.mat_inverse(cols), d.coords)
    if any(x == 0 for x in coeffs):
        raise PappusLabError("frame points are not in general position")
    return sc.mat_transpose(
        (
            sc.vec_scale(a.coords, coeffs[0]),
            sc.vec_scale(b.coords, coeffs[1]),
            sc.vec_scale(c.coords, coeffs[2]),
        )
    )


def ref_theta_basis(box):
    f_src = ref_frame_matrix(box.p, box.q, box.r, box.s)
    f_dst = ref_frame_matrix(*bx.STANDARD_CORNERS)
    return sc.mat_exact_reduce(sc.mat_mul(f_dst, sc.adjugate(f_src)))


def integer_sigma(lam):
    """2uv times the det-one deformation matrix of an exact lam, with the
    denominators of u = a/b and v = c/d cleared."""
    a, b = lam.u.numerator, lam.u.denominator
    c, d = lam.v.numerator, lam.v.denominator
    diag = a * a + b * b
    off = c * d * (a * a - b * b)
    return (
        (2 * a * b * c * d, 0, 0),
        (0, diag * d * d, -off),
        (0, -off, diag * c * c),
    )


def ref_transform_sigma(box, lam):
    if lam.is_zero:
        return box
    g = ref_theta_basis(box)
    m = sc.mat_exact_reduce(sc.mat_mul(sc.mat_mul(sc.adjugate(g), integer_sigma(lam)), g))
    return bx.OvermarkedBox(*(Point(sc.mat_vec(m, x.coords)) for x in box.points))


def coords(box):
    return tuple(x.coords for x in box.points)


# ---------------------------------------------------------------------------
# strategies

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
positive_rationals = st.builds(Fraction, st.integers(1, 30), st.integers(1, 30))


@st.composite
def exact_boxes(draw):
    """A validated exact box: rational moduli moved by a rational map."""
    zt, zb = draw(rationals), draw(rationals)
    assume((zt * zt - 1) * (zb * zb - 1) != 0)
    m = tuple(tuple(draw(rationals) for _ in range(3)) for _ in range(3))
    assume(sc.det3(m) != 0)
    normal = bx.from_moduli(bx.BoxModuli(zt, zb))
    # the public constructor, so the drawn box is validated
    return bx.OvermarkedBox(*(Point(sc.mat_vec(m, x.coords)) for x in normal.points))


@given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=9))
def test_vec_exact_reduce_integer_shortcut(ints):
    assume(any(ints))
    via_fraction = sc.vec_exact_reduce([Fraction(x) for x in ints])
    assert sc.vec_exact_reduce(ints) == via_fraction
    assert sc.vec_exact_reduce(tuple(ints)) == via_fraction


class Int(int):
    """An int subclass: exact, but not a plain int."""


# every kind of scalar the mode decision meets, plain ints and the
# values that a bare type test would misclassify
MODE_ENTRY = st.one_of(
    st.integers(-10**12, 10**12),
    st.booleans(),
    st.integers(-9, 9).map(Int),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.integers(-9, 9).map(mpf),
)
MODE_VEC = st.tuples(MODE_ENTRY, MODE_ENTRY, MODE_ENTRY)


def ref_is_exact(values):
    return all(isinstance(x, (int, Fraction)) for x in values)


def ref_exact_reduce(values):
    """Coprime ints by the Fraction lcm, up to positive scale."""
    fractions = [Fraction(x) for x in values]
    scale = math.lcm(*(x.denominator for x in fractions))
    ints = [int(x * scale) for x in fractions]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def assert_reduced(got, values):
    assert got == ref_exact_reduce(values)
    assert all(type(x) is int for x in got)


@given(MODE_VEC, MODE_VEC, MODE_VEC)
# a bool is exact: Point((True, 0, 1)) has the coordinates (1, 0, 1)
@example((True, 0, 1), (0, Int(2), Fraction(1, 2)), (mpf(1), 0, 0))
@settings(max_examples=300, deadline=None)
def test_mode_decision_matches_the_isinstance_definition(u, v, w):
    exact = ref_is_exact(u)
    if any(u):
        for element in (Point(u), pj.Line(u)):
            if exact:
                assert_reduced(element.coords, u)
            else:
                # any other input is rounded once, by the scaled kernel's rule
                assert element.coords == sc.vec_exact_reduce(sc.to_scaled(sc.vec_to_mpf(u)))
                assert all(type(x) is int for x in element.coords)
        if exact:
            assert_reduced(sc.vec_exact_reduce(u), u)
    m = (u, v, w)
    flat = u + v + w
    assert sc.mat_is_exact(m) is ref_is_exact(flat)
    if ref_is_exact(flat) and any(flat):
        assert_reduced(sc.vec_exact_reduce(flat), flat)
        assert_reduced(sum(sc.mat_exact_reduce(m), ()), flat)


@given(exact_boxes())
@settings(max_examples=60, deadline=None)
def test_frame_matrix_and_theta_basis_match_rational_formulas(box):
    corners = (box.p, box.q, box.r, box.s)
    frame = pj.frame_matrix(*corners)
    assert all(type(x) is int for row in frame for x in row)
    # a positive multiple of the rational frame: same reduced tuples
    assert sc.mat_exact_reduce(frame) == sc.mat_exact_reduce(ref_frame_matrix(*corners))
    assert bx.theta_basis(box) == ref_theta_basis(box)


@given(exact_boxes(), positive_rationals, positive_rationals)
@settings(max_examples=60, deadline=None)
def test_transform_sigma_matches_rational_formula(box, u, v):
    lam = bx.Lambda(u=u, v=v)
    assert lam.sigma == sc.mat_exact_reduce(integer_sigma(lam))
    assert coords(bx.transform_sigma(box, lam)) == coords(ref_transform_sigma(box, lam))


def test_standard_frame_is_the_rational_one():
    assert bx.STANDARD_FRAME == ref_frame_matrix(*bx.STANDARD_CORNERS)


def ref_float_transform_sigma(box, lam):
    """The float deformation before it was formed on the box's frame."""
    g = bx.theta_basis(box)
    return bx.apply_matrix(box, sc.mat_mul(sc.mat_mul(sc.adjugate(g), lam.sigma), g))


def frobenius(m):
    return math.sqrt(sum(float(x) ** 2 for row in m for x in row))


def vec_norm(v):
    return math.sqrt(sum(float(x) ** 2 for x in v))


# Both float deformations read the same mpf sigma, and round different
# products: F K and F K (adj(F) x), with K = adj(F0) sigma F0 rounded too,
# against m = adj(g) sigma g and m x.  To first order, with u = 2^-P and
# |.| entrywise, the first is within 12 u |F| |adj F0| |sigma| |F0| |adj F| |x|
# of the exact image F K adj(F) x (6 u for K, 3 u for F K, 3 u for the
# product with the exact ints adj(F) x), and the second within 9 u of the
# same bound, as g and adj(g) are positive multiples of F0 adj(F) and
# det(F) F adj(F0).  So the images' projective distance is at most 21 units
# of 2^-P times kappa, the Frobenius norms' bound over |F K adj(F) x|; 24
# leave room for the second order and the rounding of each point to
# P + 16 bits.  Measured at most 0.18 over 4000 draws of these strategies.
SIGMA_ORACLE_UNITS = 24


@given(exact_boxes(), st.tuples(st.floats(-3, 3), st.floats(-3, 3)), st.sampled_from([53, 64, 128, 256]))
@settings(max_examples=80, deadline=None)
def test_float_transform_sigma_matches_the_formula_it_replaced(box, eps_delta, bits):
    with mpmath.workprec(bits):
        lam = bx.Lambda(epsilon=eps_delta[0], delta=eps_delta[1])
        got, ref = bx.transform_sigma(box, lam), ref_float_transform_sigma(box, lam)
        sigma_norm = frobenius(sc.adjugate(bx.STANDARD_FRAME)) * frobenius(lam.sigma) * frobenius(bx.STANDARD_FRAME)
    f = pj.frame_matrix(box.p, box.q, box.r, box.s)
    with mpmath.workprec(4 * bits):
        exact_map = sc.mat_mul(sc.mat_mul(f, lam.frame_sigma), sc.adjugate(f))
    for x, a, b in zip(box.points, got.points, ref.points, strict=True):
        kappa = frobenius(f) * sigma_norm * frobenius(sc.adjugate(f)) * vec_norm(x.coords)
        kappa /= vec_norm(sc.mat_vec(exact_map, x.coords))
        c = sc.cross(a.coords, b.coords)
        # |a x b| / (|a| |b|) in units of 2^-P, formed exactly before the root
        distance = math.sqrt(Fraction(sc.dot(c, c) * 4**bits, sc.dot(a.coords, a.coords) * sc.dot(b.coords, b.coords)))
        assert distance <= SIGMA_ORACLE_UNITS * kappa


@given(exact_boxes())
@settings(max_examples=40, deadline=None)
def test_pappus_children_are_tau1_and_tau2(box):
    children = tuple(coords(child) for child in bx.pappus_children(box))
    assert children == (coords(bx.tau1(box)), coords(bx.tau2(box)))
    # the children's slots: (p, q, QR, PS; t, (pr)(qs)) and (QR, PS, s, r; (pr)(qs), b)
    qr, ps, mid = (x.coords for x in bx._pappus_points(box))
    p, q, r, s, t, b = coords(box)
    assert children == ((p, q, qr, ps, t, mid), (qr, ps, s, r, mid, b))


# corners with no frame: p, q, r collinear, and q, r, s collinear
FRAMELESS = [
    ((-1, 1, 0), (1, 1, 0), (0, 1, 0), (-1, 0, 1)),
    ((-1, 1, 0), (1, 1, 0), (1, 0, 1), (1, 2, -1)),
]


@pytest.mark.parametrize("corners", FRAMELESS)
@pytest.mark.parametrize(
    "lam", [bx.Lambda(u=Fraction(3, 2), v=Fraction(4, 5)), bx.Lambda(epsilon=-0.2, delta=0.1)], ids=["exact", "float"]
)
def test_transform_sigma_of_frameless_corners_raises(corners, lam):
    box = bx.OvermarkedBox._trusted(*(Point(c) for c in corners), Point((0, 1, 1)), Point((2, 0, 1)))
    with pytest.raises(DegenerateBox):
        bx.transform_sigma(box, lam)


# ---------------------------------------------------------------------------
# boxes built without validation


def record_boxes(monkeypatch, names):
    """The boxes each named ``boxes`` function returns, by name; both of
    ``pappus_children``'s."""
    produced = {name: [] for name in names}

    def recording(name, func):
        def wrapper(*args):
            result = func(*args)
            produced[name].extend(result if isinstance(result, tuple) else (result,))
            return result

        return wrapper

    for name in names:
        monkeypatch.setattr(bx, name, recording(name, getattr(bx, name)))
    return produced


def publicly_valid(box):
    try:
        return bx.OvermarkedBox(*box.points) == box
    except PappusLabError:
        return False


def assert_publicly_valid(produced):
    for name, boxes in produced.items():
        assert boxes, name
        for box in boxes:
            # raises unless the public validation accepts the box
            assert bx.OvermarkedBox(*box.points) == box


# A box of rounded float points (see ``projective``) keeps, exactly, every
# condition of ``OvermarkedBox.__post_init__`` but its two incidences, t on
# pq and b on rs.  Those hold to the rounding: each coordinate of a float
# image m x is rounded at P bits, then to P + 16 bits, and the Pappus
# children of a rounded box inherit its residuals, scaled by the box's
# shape.  Over the float runs below at 53 to 256 bits, |det(p, q, t)| /
# (|p| |q| |t|) and its bottom twin reach 1.28 units of 2^-P (iterate at
# depth 9, 256 bits; 1.11 at depth 4; certify 0.70), and 1.17 at another
# certify point (moduli (-7/10, 1/2), eps -0.09, 53 bits); 4 units leave
# room.  A deformed box's six points come from one rounded matrix F K
# (its columns and row sums, and its products with exact ints; see
# ``boxes.transform_sigma``), so the residual does not grow with the
# depth, as it did, about 2.5-fold per level, when each point was
# multiplied by a rounded adj(g) sigma g: the depth-9 run holds it.
ROUNDED_INCIDENCE_UNITS = 4


def assert_rounded_valid(box, bits):
    pts = box.points
    assert all(pts[i] != pts[j] for i in range(6) for j in range(i + 1, 6))
    top, bottom = pj.join(box.p, box.q), pj.join(box.r, box.s)
    assert top != bottom
    tb = pj.meet(top, bottom)
    assert all(tb != x for x in pts)
    for a, b, c in ((box.p, box.q, box.t), (box.r, box.s, box.b)):
        # squared and in ints: det^2 4^P <= units^2 |a|^2 |b|^2 |c|^2
        det = sc.det3((a.coords, b.coords, c.coords))
        norms = sc.dot(a.coords, a.coords) * sc.dot(b.coords, b.coords) * sc.dot(c.coords, c.coords)
        assert det * det * 4**bits <= ROUNDED_INCIDENCE_UNITS**2 * norms


INVERTIBLE = ((2, 1, 0), (0, 1, 1), (1, 0, 3))
SINGULAR = [
    ((1, 0, 0), (0, 1, 0), (1, 1, 0)),
    ((1, 2, 3), (2, 4, 6), (0, 0, 1)),
    ((1, 0, 0), (0, 0, 0), (0, 0, 1)),
]
# every function of ``boxes`` that builds the boxes of a relations run
UNVALIDATED = ("from_moduli", "pappus_children", "transform_i", "transform_j", "transform_sigma", "apply_matrix")


def test_unvalidated_boxes_of_a_relation_run_are_valid(monkeypatch, capsys):
    produced = record_boxes(monkeypatch, UNVALIDATED)
    assert cli.main(["relations", "--trials", "2", "--pairs", "4", "--seed", "11"]) == 0
    capsys.readouterr()
    assert all(type(c) is int for boxes in produced.values() for box in boxes for x in box.points for c in x.coords)
    assert_publicly_valid(produced)


# every function of ``boxes`` that builds the run's boxes, and the one
# whose images are rounded float points; certify builds only its base box
# (constant_C reads the step images S_w as matrices, so the rounded images
# S_w(box) are checked on their own below)
@pytest.mark.parametrize(
    "argv, names, rounded",
    [
        (["certify", "--maxlen", "4", "--zt=3/10", "--zb=-2/10", "--eps=-0.15", "--delta=0.01"],
         ("from_moduli",), None),
        (["iterate", "--eps=-0.1", "--depth", "4"], ("from_moduli", "pappus_children", "transform_sigma"),
         "transform_sigma"),
        (["iterate", "--eps=-0.1", "--delta=0.02", "--zt=3/10", "--zb=-2/10", "--depth", "9"],
         ("pappus_children", "transform_sigma"), "transform_sigma"),
    ],
    ids=["certify", "iterate", "iterate_depth9"],
)
def test_unvalidated_boxes_of_a_float_run_are_valid(argv, names, rounded, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    produced = record_boxes(monkeypatch, names)
    for bits in (53, 64, 128, 256):
        for boxes in produced.values():
            boxes.clear()
        assert cli.main(["--precision", str(bits), *argv]) == 0
        capsys.readouterr()
        # the float map's images are rounded: the exact validation rejects some
        assert rounded is None or any(not publicly_valid(box) for box in produced[rounded])
        for name, boxes in produced.items():
            assert boxes, name
            for box in boxes:
                assert_rounded_valid(box, bits)


@pytest.mark.parametrize("bits", [53, 64, 128, 256])
def test_float_step_images_of_the_base_box_are_rounded_valid(bits):
    # the images of the golden certify box under its float step images
    with mpmath.workprec(bits):
        moduli = bx.BoxModuli(Fraction(3, 10), Fraction(-2, 10))
        rep = rp.Representation(moduli, bx.Lambda(epsilon=mpf("-0.15"), delta=mpf("0.01")))
        box = bx.from_moduli(moduli)
        images = [bx.apply_matrix(box, rep.step_images[w]) for w in W_STEPS]
    # the float map's images are rounded: the exact validation rejects some
    assert any(not publicly_valid(image) for image in images)
    for image in images:
        assert_rounded_valid(image, bits)


@pytest.mark.parametrize("to_scalar", [lambda m: m, sc.mat_to_mpf], ids=["exact", "float"])
def test_duality_images_are_valid(to_scalar):
    box = bx.apply_matrix(bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(-1, 3))), to_scalar(INVERTIBLE))
    d = pj.duality(to_scalar(((2, -1, 0), (1, 3, 1), (0, 1, -2))))
    for _ in range(4):
        box = bx.apply_symmetry_to_box(d, box)
        assert bx.OvermarkedBox(*box.points) == box


def count_validations(monkeypatch):
    calls = []
    post_init = bx.OvermarkedBox.__post_init__

    def counting(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(bx.OvermarkedBox, "__post_init__", counting)
    return calls


def test_exact_invertible_image_skips_validation(monkeypatch):
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(-1, 3)))
    calls = count_validations(monkeypatch)
    image = bx.apply_matrix(box, INVERTIBLE)
    assert not calls
    assert bx.OvermarkedBox(*image.points) == image


def test_float_invertible_image_skips_validation(monkeypatch):
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(-1, 3)))
    calls = count_validations(monkeypatch)
    image = bx.apply_matrix(box, sc.mat_to_mpf(INVERTIBLE))
    assert not calls
    assert_rounded_valid(image, mpmath.mp.prec)
    # INVERTIBLE's small ints make each product exact in mpf: no point moves
    assert image == bx.apply_matrix(box, INVERTIBLE)


@pytest.mark.parametrize("m", SINGULAR)
def test_singular_exact_matrix_still_raises(m):
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(-1, 3)))
    with pytest.raises(DegenerateConfiguration):
        bx.apply_matrix(box, m)


@pytest.mark.parametrize("m", SINGULAR)
def test_singular_float_matrix_still_raises(m):
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(-1, 3)))
    with pytest.raises(DegenerateConfiguration):
        bx.apply_matrix(box, sc.mat_to_mpf(m))


rational_matrices = st.tuples(*[st.tuples(rationals, rationals, rationals)] * 3).filter(lambda m: sc.det3(m) != 0)


@given(exact_boxes(), rational_matrices)
@settings(max_examples=60, deadline=None)
def test_pappus_children_and_duality_images_are_valid(box, m):
    # exact_boxes draws moduli in [-6, 6], so non-convex boxes are included
    children = (bx.tau1(box), bx.tau2(box), bx.transform_i(box), bx.transform_j(box))
    for child in children + (bx.apply_symmetry_to_box(pj.duality(m), box),):
        assert bx.OvermarkedBox(*child.points) == child
    # in the adapted basis the Pappus points are the closed forms of
    # OvermarkedBox._trusted's docstring
    g, mod = bx.theta_basis(box), bx.moduli(box)
    zt, zb = mod.zeta_t, mod.zeta_b
    a = 1 - zt * zb
    closed = ((a, 1 - zb, 1 - zt), (a, -1 - zb, -1 - zt), (0, 1, 1))
    for point, form in zip(bx._pappus_points(box), closed, strict=True):
        assert Point(sc.mat_vec(g, point.coords)) == Point(form)
