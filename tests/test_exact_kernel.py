"""The integer exact kernel against the rational formulas it replaced,
and the boxes that skip validation against the public constructor."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pappuslab import boxes as bx
from pappuslab import cli
from pappuslab import projective as pj
from pappuslab import scalars as sc
from pappuslab.errors import DegenerateConfiguration, PappusLabError
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


# ---------------------------------------------------------------------------
# boxes built without validation


def record_boxes(monkeypatch, names):
    """The boxes each named ``boxes`` function returns, by name."""
    produced = {name: [] for name in names}

    def recording(name, func):
        def wrapper(*args):
            box = func(*args)
            produced[name].append(box)
            return box

        return wrapper

    for name in names:
        monkeypatch.setattr(bx, name, recording(name, getattr(bx, name)))
    return produced


def assert_publicly_valid(produced):
    for name, boxes in produced.items():
        assert boxes, name
        for box in boxes:
            # raises unless the public validation accepts the box
            assert bx.OvermarkedBox(*box.points) == box


INVERTIBLE = ((2, 1, 0), (0, 1, 1), (1, 0, 3))
SINGULAR = [
    ((1, 0, 0), (0, 1, 0), (1, 1, 0)),
    ((1, 2, 3), (2, 4, 6), (0, 0, 1)),
    ((1, 0, 0), (0, 0, 0), (0, 0, 1)),
]
UNVALIDATED = ("from_moduli", "tau1", "tau2", "transform_i", "transform_j", "transform_sigma", "apply_matrix")


def test_unvalidated_boxes_of_a_relation_run_are_valid(monkeypatch, capsys):
    produced = record_boxes(monkeypatch, UNVALIDATED)
    assert cli.main(["relations", "--trials", "2", "--pairs", "4", "--seed", "11"]) == 0
    capsys.readouterr()
    assert all(x.exact for boxes in produced.values() for box in boxes for x in box.points)
    assert_publicly_valid(produced)


@pytest.mark.parametrize(
    "argv, names",
    [
        (["certify", "--maxlen", "4", "--zt=3/10", "--zb=-2/10", "--eps=-0.15", "--delta=0.01"],
         ("from_moduli", "apply_matrix")),
        (["iterate", "--eps=-0.1", "--depth", "4"], ("from_moduli", "tau1", "tau2", "transform_sigma", "apply_matrix")),
    ],
    ids=["certify", "iterate"],
)
def test_unvalidated_boxes_of_a_float_run_are_valid(argv, names, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    produced = record_boxes(monkeypatch, names)
    assert cli.main(argv) == 0
    capsys.readouterr()
    images = produced["apply_matrix"]
    assert images and not any(x.exact for box in images for x in box.points)
    assert_publicly_valid(produced)


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
    assert not calls and not any(x.exact for x in image.points)
    assert bx.OvermarkedBox(*image.points) == image


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
