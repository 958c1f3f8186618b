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
    coeffs = sc.solve3(cols, d.coords)
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


def ref_transform_sigma(box, lam):
    if lam.is_zero:
        return box
    g = ref_theta_basis(box)
    m = sc.mat_exact_reduce(sc.mat_mul(sc.mat_mul(sc.adjugate(g), bx.sigma_matrix(lam)), g))
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
    assert coords(bx.transform_sigma(box, lam)) == coords(ref_transform_sigma(box, lam))


def test_standard_frame_is_the_rational_one():
    assert bx.STANDARD_FRAME == ref_frame_matrix(*bx.STANDARD_CORNERS)


# ---------------------------------------------------------------------------
# boxes built without validation


def test_unvalidated_boxes_of_a_relation_run_are_valid(monkeypatch, capsys):
    produced = {name: [] for name in ("transform_i", "transform_j", "transform_sigma", "apply_matrix")}

    def recording(name, func):
        def wrapper(*args):
            box = func(*args)
            produced[name].append(box)
            return box

        return wrapper

    for name in produced:
        monkeypatch.setattr(bx, name, recording(name, getattr(bx, name)))
    assert cli.main(["relations", "--trials", "2", "--pairs", "4", "--seed", "11"]) == 0
    capsys.readouterr()
    for name, boxes in produced.items():
        assert boxes, name
        for box in boxes:
            assert all(x.exact for x in box.points)
            # raises unless the public validation accepts the box
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
    image = bx.apply_matrix(box, ((2, 1, 0), (0, 1, 1), (1, 0, 3)))
    assert not calls
    assert bx.OvermarkedBox(*image.points) == image


@pytest.mark.parametrize(
    "m",
    [
        ((1, 0, 0), (0, 1, 0), (1, 1, 0)),
        ((1, 2, 3), (2, 4, 6), (0, 0, 1)),
        ((1, 0, 0), (0, 0, 0), (0, 0, 1)),
    ],
)
def test_singular_exact_matrix_still_raises(m):
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(-1, 3)))
    with pytest.raises(DegenerateConfiguration):
        bx.apply_matrix(box, m)


def test_float_image_is_validated(monkeypatch):
    box = bx.from_moduli(bx.BoxModuli(Fraction(1, 2), Fraction(-1, 3)))
    calls = count_validations(monkeypatch)
    m = sc.mat_to_mpf(((2, 1, 0), (0, 1, 1), (1, 0, 3)))
    image = bx.apply_matrix(box, m)
    assert len(calls) == 1 and not any(x.exact for x in image.points)
    singular = sc.mat_to_mpf(((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    with pytest.raises(DegenerateConfiguration):
        bx.apply_matrix(box, singular)
