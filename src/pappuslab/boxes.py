"""Overmarked and marked boxes, their moduli and transformations.

An overmarked box is the data of six points p, q, r, s, t, b with p, q,
t on a common (top) line and r, s, b on a common (bottom) line, plus the
six derived lines

    P = ts,  Q = tr,  R = bq,  S = bp,  T = pq,  B = rs.

A marked box is the class of an overmarked box under the involution j
which swaps (p, q) and (r, s) simultaneously; ``marked_equal`` compares
two classes.  Every overmarked box has a normal form in its own adapted
basis, where the four corners sit at

    p = [-1:1:0],  q = [1:1:0],  r = [1:0:1],  s = [-1:0:1]

and t = [zeta_t:1:0], b = [zeta_b:0:1]; the pair (zeta_t, zeta_b) is the
box's moduli.  The box is convex exactly when both moduli lie strictly
between -1 and 1.

Only ``OvermarkedBox(...)``, for points from outside, validates a box;
every box derived here from a valid one is built by ``_trusted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf

from . import projective as pj
from . import scalars as sc
from .errors import (
    DegenerateBox,
    DegenerateConfiguration,
    InvalidModuli,
    NotConvex,
    PappusLabError,
)
from .projective import Line, Point

# corner positions of the normal form, in the order (p, q, r, s)
STANDARD_CORNERS = (
    Point((-1, 1, 0)),
    Point((1, 1, 0)),
    Point((1, 0, 1)),
    Point((-1, 0, 1)),
)
# their frame matrix, the target of every adapted basis
STANDARD_FRAME = pj.frame_matrix(*STANDARD_CORNERS)


# ---------------------------------------------------------------------------
# deformation parameters


class Lambda:
    """Deformation parameter pair (epsilon, delta), with the values that
    every object built from it reads, computed once here.

    Float mode keeps (epsilon, delta), and values of the precision it was
    built at, ``prec``; exact mode keeps rational u = e^epsilon and
    v = e^delta, so every value is rational (cosh eps = (u + 1/u)/2 and so
    on), and ``prec`` is None.  ``sigma`` is the deformation matrix of the
    normal-form coordinates, of unit determinant as cosh^2 - sinh^2 = 1;
    in exact mode, its coprime integral positive multiple.  Every reader
    of sigma is projective, and integral entries keep products small.
    """

    __slots__ = ("epsilon", "delta", "u", "v", "prec", "cosh_eps", "sinh_eps",
                 "exp_delta", "exp_minus_delta", "sigma")

    def __init__(self, epsilon=None, delta=None, u=None, v=None):
        if u is not None or v is not None:
            if u is None or v is None or epsilon is not None or delta is not None:
                raise ValueError("exact style takes u and v only")
            u, v = Fraction(u), Fraction(v)
            if u <= 0 or v <= 0:
                raise ValueError("u = e^epsilon and v = e^delta must be positive")
            self.u, self.v = u, v
            self.epsilon = self.delta = self.prec = None
            self.cosh_eps, self.sinh_eps = ch, sh = (u + 1 / u) / 2, (u - 1 / u) / 2
            self.exp_delta, self.exp_minus_delta = v, 1 / v
        else:
            if epsilon is None or delta is None:
                raise ValueError("float style takes epsilon and delta")
            self.epsilon, self.delta = eps, delta = sc.to_mpf(epsilon), sc.to_mpf(delta)
            self.u = self.v = None
            self.prec = mpmath.mp.prec
            self.cosh_eps, self.sinh_eps = ch, sh = mpmath.cosh(eps), mpmath.sinh(eps)
            self.exp_delta, self.exp_minus_delta = mpmath.exp(delta), mpmath.exp(-delta)
        sigma = ((1, 0, 0), (0, self.exp_minus_delta * ch, -sh), (0, -sh, self.exp_delta * ch))
        self.sigma = sc.mat_exact_reduce(sigma) if self.exact else sigma

    @property
    def exact(self) -> bool:
        return self.u is not None

    def eps_value(self) -> mpf:
        return mpmath.log(sc.to_mpf(self.u)) if self.exact else self.epsilon

    def delta_value(self) -> mpf:
        return mpmath.log(sc.to_mpf(self.v)) if self.exact else self.delta

    @property
    def is_zero(self) -> bool:
        if self.exact:
            return self.u == 1 and self.v == 1
        return self.epsilon == 0 and self.delta == 0

    def __repr__(self):
        if self.exact:
            return "Lambda(u=%s, v=%s)" % (self.u, self.v)
        return "Lambda(epsilon=%s, delta=%s)" % (self.epsilon, self.delta)


LAMBDA_ZERO = Lambda(u=1, v=1)


def in_region(lam: Lambda, strict: bool = False) -> bool:
    """Whether deformed boxes stay nested inside their parents.

    The condition is f(eps, delta) >= 0 and f(eps, -delta) >= 0, with
    f(eps, delta) = e^-delta cosh(eps) - sinh(eps) - 1 (strict
    inequalities for the interior of the region).
    """
    low = min(e * lam.cosh_eps - lam.sinh_eps - 1 for e in (lam.exp_minus_delta, lam.exp_delta))
    return low > 0 if strict else low >= 0


# ---------------------------------------------------------------------------
# moduli


@dataclass(frozen=True)
class BoxModuli:
    zeta_t: object
    zeta_b: object

    def __post_init__(self):
        zt, zb = self.zeta_t, self.zeta_b
        if (zt * zt - 1) * (zb * zb - 1) == 0:
            raise InvalidModuli("moduli must avoid +-1")

    @property
    def is_convex(self) -> bool:
        return abs(self.zeta_t) < 1 and abs(self.zeta_b) < 1


# ---------------------------------------------------------------------------
# boxes


def _require_distinct(pts, what):
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            if pts[i] == pts[j]:
                raise DegenerateBox("coincident %s" % what)


@dataclass(frozen=True)
class OvermarkedBox:
    p: Point
    q: Point
    r: Point
    s: Point
    t: Point
    b: Point

    @classmethod
    def _trusted(cls, p, q, r, s, t, b) -> "OvermarkedBox":
        """A box derived from a valid one, built without validation.

        The conditions of ``__post_init__`` are kept by the relabelings i
        and j and by invertible maps (``apply_matrix``), and a valid box is
        the image of its normal form (p, q, t on z = 0, r, s, b on y = 0,
        t = [zt:1:0], b = [zb:0:1]), where each reduces to
        (1 +- zt)(1 +- zb) != 0, as in ``BoxModuli``.

        - ``from_moduli``: the lines meet at [1:0:0], off all six points.
        - ``tau1``/``tau2``: with a = 1 - zt zb, QR = [a : 1-zb : 1-zt],
          PS = [a : -1-zb : -1-zt] and (pr)(qs) = [0:1:1] are distinct
          and lie on the line [zb-zt : a : -a] (Pappus).  It meets z = 0
          at [-a : zb-zt : 0], which is p, q or t only if (1+zt)(1-zb),
          (1-zt)(1+zb) or zt^2 - 1 vanishes, and y = 0 at
          [-a : 0 : zt-zb], likewise for r, s, b.  The new points have
          z = 1-zt, -1-zt, 1 and y = 1-zb, -1-zb, 1, so miss both meets.
        - ``apply_symmetry_to_box``: a duality sends the lines P, Q, T
          through t (R, S, B through b) to distinct points on one line,
          and tb, which is none of the six lines, to the lines' meet.

        In float mode this holds in exact arithmetic; a box degenerate
        to working precision fails ``theta_basis`` where it is used.
        """
        box = object.__new__(cls)
        for name, point in zip(("p", "q", "r", "s", "t", "b"), (p, q, r, s, t, b)):
            object.__setattr__(box, name, point)
        return box

    def __post_init__(self):
        pts = (self.p, self.q, self.r, self.s, self.t, self.b)
        _require_distinct((self.p, self.q, self.t), "top points")
        _require_distinct((self.r, self.s, self.b), "bottom points")
        top = pj.join(self.p, self.q)
        bottom = pj.join(self.r, self.s)
        if not (pj.incident(top, self.t) and pj.incident(bottom, self.b)):
            raise DegenerateBox("t must lie on pq and b on rs")
        if top == bottom:
            raise DegenerateBox("top and bottom lines coincide")
        tb = pj.meet(top, bottom)
        if any(tb == x for x in pts):
            raise DegenerateBox("intersection of top and bottom lines hits a marked point")

    @property
    def points(self):
        return (self.p, self.q, self.r, self.s, self.t, self.b)

    # the six derived lines
    @property
    def line_P(self) -> Line:
        return pj.join(self.t, self.s)

    @property
    def line_Q(self) -> Line:
        return pj.join(self.t, self.r)

    @property
    def line_R(self) -> Line:
        return pj.join(self.b, self.q)

    @property
    def line_S(self) -> Line:
        return pj.join(self.b, self.p)

    @property
    def line_T(self) -> Line:
        return pj.join(self.p, self.q)

    @property
    def line_B(self) -> Line:
        return pj.join(self.r, self.s)

    @property
    def lines(self):
        return (self.line_P, self.line_Q, self.line_R, self.line_S, self.line_T, self.line_B)

    def __eq__(self, other):
        return isinstance(other, OvermarkedBox) and all(
            a == b for a, b in zip(self.points, other.points)
        )

    def __hash__(self):
        raise TypeError("boxes are unhashable (point equality is projective)")


def from_moduli(m: BoxModuli) -> OvermarkedBox:
    """The normal-form box with the given moduli."""
    return OvermarkedBox._trusted(*STANDARD_CORNERS, Point((m.zeta_t, 1, 0)), Point((m.zeta_b, 0, 1)))


SPECIAL_BOX = from_moduli(BoxModuli(0, 0))


def corner_basis(p: Point, q: Point, r: Point, s: Point) -> tuple:
    """Matrix carrying four corners in general position to ``STANDARD_CORNERS``."""
    return pj.frame_change(pj.frame_matrix(p, q, r, s), STANDARD_FRAME)


def theta_basis(box: OvermarkedBox) -> tuple:
    """Change-of-basis matrix carrying the box corners to normal form."""
    try:
        return corner_basis(box.p, box.q, box.r, box.s)
    except PappusLabError as exc:
        raise DegenerateBox("box corners admit no adapted basis") from exc


def moduli(box: OvermarkedBox) -> BoxModuli:
    """Moduli (zeta_t, zeta_b): normal-form coordinates of t and b."""
    return _moduli_in_basis(box, theta_basis(box))


def _moduli_in_basis(box: OvermarkedBox, g: tuple) -> BoxModuli:
    """``moduli`` of a box whose ``theta_basis`` is g."""
    tc = sc.mat_vec(g, box.t.coords)
    bc = sc.mat_vec(g, box.b.coords)
    exact = all(sc.is_exact(x) for x in tc + bc)
    if exact:
        if tc[1] == 0 or bc[2] == 0:
            raise DegenerateBox("t or b degenerates in the adapted basis")
        zt = Fraction(tc[0]) / Fraction(tc[1])
        zb = Fraction(bc[0]) / Fraction(bc[2])
    else:
        tcf, bcf = sc.vec_to_mpf(tc), sc.vec_to_mpf(bc)
        if abs(tcf[1]) <= pj.ANGLE_TOL * sc.vec_max_abs(tcf) or abs(bcf[2]) <= pj.ANGLE_TOL * sc.vec_max_abs(bcf):
            raise DegenerateBox("t or b degenerates in the adapted basis")
        zt = tcf[0] / tcf[1]
        zb = bcf[0] / bcf[2]
    try:
        return BoxModuli(zt, zb)
    except InvalidModuli as exc:
        raise DegenerateBox(str(exc)) from exc


def is_convex(box: OvermarkedBox) -> bool:
    return moduli(box).is_convex


def interior_basis(box: OvermarkedBox) -> tuple:
    """``theta_basis`` of a convex box; raises NotConvex otherwise."""
    g = theta_basis(box)
    if not _moduli_in_basis(box, g).is_convex:
        raise NotConvex("interior is only defined for convex boxes")
    return g


# ---------------------------------------------------------------------------
# the elementary transformations


def transform_j(box: OvermarkedBox) -> OvermarkedBox:
    """The marking involution: swap (p, q) and (r, s)."""
    return OvermarkedBox._trusted(box.q, box.p, box.s, box.r, box.t, box.b)


def transform_i(box: OvermarkedBox) -> OvermarkedBox:
    """The flip (s, r, p, q; b, t); an involution on marked boxes.

    On overmarked boxes the square of the flip is the marking
    involution j, so it is an involution only modulo j.
    """
    return OvermarkedBox._trusted(box.s, box.r, box.p, box.q, box.b, box.t)


def marked_equal(box1: OvermarkedBox, box2: OvermarkedBox) -> bool:
    """Equality of the marked boxes represented by two overmarked ones."""
    return box1 == box2 or box1 == transform_j(box2)


def _pappus_points(box: OvermarkedBox):
    """The three new points QR, PS and (pr)(qs) of the Pappus step."""
    try:
        qr = pj.meet(box.line_Q, box.line_R)
        ps = pj.meet(box.line_P, box.line_S)
        mid = pj.meet(pj.join(box.p, box.r), pj.join(box.q, box.s))
    except PappusLabError as exc:
        raise DegenerateConfiguration(str(exc)) from exc
    return qr, ps, mid


def tau1(box: OvermarkedBox) -> OvermarkedBox:
    """First Pappus child: (p, q, QR, PS; t, (pr)(qs))."""
    qr, ps, mid = _pappus_points(box)
    return OvermarkedBox._trusted(box.p, box.q, qr, ps, box.t, mid)


def tau2(box: OvermarkedBox) -> OvermarkedBox:
    """Second Pappus child: (QR, PS, s, r; (pr)(qs), b)."""
    qr, ps, mid = _pappus_points(box)
    return OvermarkedBox._trusted(qr, ps, box.s, box.r, mid, box.b)


def apply_matrix(box: OvermarkedBox, m: tuple) -> OvermarkedBox:
    """Image of a box under a projective transformation matrix.

    The image of a valid box under an invertible matrix is valid, in
    either scalar mode, so it is built unchecked; DegenerateConfiguration
    only when det(m) is exactly zero.  A float matrix that is singular
    only to working precision gives a box that ``theta_basis`` rejects.
    """
    if sc.det3(m) == 0:
        raise DegenerateConfiguration("singular transformation matrix")
    return OvermarkedBox._trusted(*(Point(sc.mat_vec(m, x.coords)) for x in box.points))


def apply_symmetry_to_box(g: pj.ProjSymmetry, box: OvermarkedBox) -> OvermarkedBox:
    """Image of a box under a projective symmetry.

    A transformation moves the six points directly.  A duality sends
    the box's lines to points with the reordering

        new points = (P*, Q*, S*, R*; T*, B*)

    where X* is the dual-map image of the line X; the swap of the third
    and fourth slots is what makes the Farey labeling equivariant.
    """
    if not g.is_duality:
        return apply_matrix(box, g.matrix)
    lp, lq, lr, ls, lt, lb = box.lines
    return OvermarkedBox._trusted(*(Point(g.line_image_coords(x.coords)) for x in (lp, lq, ls, lr, lt, lb)))


def transform_sigma(box: OvermarkedBox, lam: Lambda) -> OvermarkedBox:
    """The deformation, applied in the box's own adapted basis."""
    if lam.is_zero:
        return box
    g = theta_basis(box)
    # the adjugate is the inverse up to the (nonzero) determinant, and an
    # exact lam.sigma is sigma up to a positive scale; both scales are
    # invisible projectively and keep exact entries integral
    m = sc.mat_mul(sc.mat_mul(sc.adjugate(g), lam.sigma), g)
    return apply_matrix(box, sc.mat_exact_reduce(m) if lam.exact and sc.mat_is_exact(g) else m)


def i_lambda(box: OvermarkedBox, lam: Lambda) -> OvermarkedBox:
    return transform_sigma(transform_i(box), lam)


def tau1_lambda(box: OvermarkedBox, lam: Lambda) -> OvermarkedBox:
    return transform_sigma(tau1(box), lam)


def tau2_lambda(box: OvermarkedBox, lam: Lambda) -> OvermarkedBox:
    return transform_sigma(tau2(box), lam)


# ---------------------------------------------------------------------------
# the convex interior and containment


def chart_coords(coords):
    """Normal-form chart (x/(y+z), (y-z)/(y+z)) of a coordinate vector.

    Sends the corners p, q, r, s to the corners of the unit square:
    (-1,1), (1,1), (1,-1), (-1,-1).
    """
    x, y, z = coords
    w = y + z
    if w == 0:
        raise DegenerateConfiguration("point at infinity of the chart")
    if sc.is_exact(x) and sc.is_exact(w):
        return (Fraction(x) / Fraction(w), Fraction(y - z) / Fraction(w))
    if isinstance(w, mpf):
        # then y - z is mpf too; both were just computed at the working precision
        return (sc.to_mpf(x) / w, (y - z) / w)
    w = sc.to_mpf(w)
    return (sc.to_mpf(x) / w, sc.to_mpf(y - z) / w)


def chart_point(xy) -> tuple:
    """Coordinate vector of the chart point (x, y); inverse of
    ``chart_coords``."""
    x, y = xy
    return (x, (1 + y) / 2, (1 - y) / 2)


def in_standard_interior(coords, strict: bool = True) -> bool:
    """Membership in the (closed or open) unit square of the chart."""
    x, y, z = coords
    w = y + z
    if w == 0:
        return False
    if strict:
        return abs(x) < abs(w) and abs(y - z) < abs(w)
    return abs(x) <= abs(w) and abs(y - z) <= abs(w)


def containment_check(box: OvermarkedBox, lam: Lambda, strict: bool = False) -> bool:
    """Whether the deformed box's interior stays inside the original's.

    Tests the four deformed corners against the chart inequalities in
    the original box's adapted basis; agrees with ``in_region`` for all
    convex boxes.
    """
    if not is_convex(box):
        raise NotConvex("containment is about convex interiors")
    # the deformation acts in the box's own adapted basis, where the
    # corners sit at the standard positions, so the test is the same
    # for every convex box; the inequalities are homogeneous, so an exact
    # lam.sigma's positive scale does not matter
    return all(
        in_standard_interior(sc.mat_vec(lam.sigma, corner.coords), strict=strict)
        for corner in STANDARD_CORNERS
    )
