"""Overmarked and marked boxes, their moduli and transformations.

An overmarked box is the data of six points p, q, r, s, t, b with p, q,
t on a common (top) line and r, s, b on a common (bottom) line, plus the
six derived lines

    P = ts,  Q = tr,  R = bq,  S = bp,  T = pq,  B = rs.

A marked box is the class of an overmarked box under the involution j
which swaps (p, q) and (r, s) simultaneously.  Every overmarked box has
a normal form in its own adapted basis, where the four corners sit at

    p = [-1:1:0],  q = [1:1:0],  r = [1:0:1],  s = [-1:0:1]

and t = [zeta_t:1:0], b = [zeta_b:0:1]; the pair (zeta_t, zeta_b) is the
box's moduli.  The box is convex exactly when both moduli lie strictly
between -1 and 1.
"""

from __future__ import annotations

import json
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
    """Deformation parameter pair (epsilon, delta).

    Two storage styles: float mode keeps (epsilon, delta) directly;
    exact mode keeps rational u = e^epsilon, v = e^delta so that every
    derived matrix entry is rational (cosh eps = (u + 1/u)/2 and so on).
    """

    __slots__ = ("epsilon", "delta", "u", "v")

    def __init__(self, epsilon=None, delta=None, u=None, v=None):
        if u is not None or v is not None:
            if u is None or v is None or epsilon is not None or delta is not None:
                raise ValueError("exact style takes u and v only")
            u, v = Fraction(u), Fraction(v)
            if u <= 0 or v <= 0:
                raise ValueError("u = e^epsilon and v = e^delta must be positive")
            self.u, self.v = u, v
            self.epsilon, self.delta = None, None
        else:
            if epsilon is None or delta is None:
                raise ValueError("float style takes epsilon and delta")
            self.epsilon, self.delta = sc.to_mpf(epsilon), sc.to_mpf(delta)
            self.u, self.v = None, None

    @property
    def exact(self) -> bool:
        return self.u is not None

    def negate(self) -> "Lambda":
        if self.exact:
            return Lambda(u=1 / self.u, v=1 / self.v)
        return Lambda(epsilon=-self.epsilon, delta=-self.delta)

    def cosh_eps(self):
        if self.exact:
            return (self.u + 1 / self.u) / 2
        return mpmath.cosh(self.epsilon)

    def sinh_eps(self):
        if self.exact:
            return (self.u - 1 / self.u) / 2
        return mpmath.sinh(self.epsilon)

    def exp_delta(self):
        if self.exact:
            return self.v
        return mpmath.exp(self.delta)

    def exp_minus_delta(self):
        if self.exact:
            return 1 / self.v
        return mpmath.exp(-self.delta)

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


def sigma_matrix(lam: Lambda) -> tuple:
    """The deformation matrix of the normal-form coordinates.

    Unit determinant for every (epsilon, delta) since
    cosh^2 - sinh^2 = 1.
    """
    ch, sh = lam.cosh_eps(), lam.sinh_eps()
    return (
        (1, 0, 0),
        (0, lam.exp_minus_delta() * ch, -sh),
        (0, -sh, lam.exp_delta() * ch),
    )


def _integer_sigma(lam: Lambda) -> tuple:
    """2uv sigma_matrix(lam) with the denominators of an exact lam
    cleared: an integral positive multiple, equal projectively."""
    a, b = lam.u.numerator, lam.u.denominator
    c, d = lam.v.numerator, lam.v.denominator
    diag = a * a + b * b
    off = c * d * (a * a - b * b)
    return (
        (2 * a * b * c * d, 0, 0),
        (0, diag * d * d, -off),
        (0, -off, diag * c * c),
    )


def region_f(lam: Lambda):
    """f(epsilon, delta) = e^{-delta} cosh(eps) - sinh(eps) - 1."""
    return lam.exp_minus_delta() * lam.cosh_eps() - lam.sinh_eps() - 1


def in_region(lam: Lambda, strict: bool = False) -> bool:
    """Whether deformed boxes stay nested inside their parents.

    The condition is f(eps, delta) >= 0 and f(eps, -delta) >= 0 (strict
    inequalities for the interior of the region).
    """
    a = region_f(lam)
    b = region_f(Lambda(u=lam.u, v=1 / lam.v) if lam.exact else Lambda(epsilon=lam.epsilon, delta=-lam.delta))
    if strict:
        return a > 0 and b > 0
    return a >= 0 and b >= 0


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

    def orbit(self):
        """The four moduli pairs equivalent to this one."""
        zt, zb = self.zeta_t, self.zeta_b
        out = []
        for _ in range(4):
            out.append((zt, zb))
            zt, zb = -zb, zt
        return out


def moduli_equivalence(m1: BoxModuli, m2: BoxModuli) -> bool:
    """Whether two moduli pairs describe the same marked-box class."""
    return any(m2.zeta_t == zt and m2.zeta_b == zb for zt, zb in m1.orbit())


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
        """A box built without validation.

        Only for images of a valid box under maps that keep every
        condition of ``__post_init__``: the relabelings i and j, and
        exact invertible projective transformations.
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
    return OvermarkedBox(
        p=STANDARD_CORNERS[0],
        q=STANDARD_CORNERS[1],
        r=STANDARD_CORNERS[2],
        s=STANDARD_CORNERS[3],
        t=Point((m.zeta_t, 1, 0)),
        b=Point((m.zeta_b, 0, 1)),
    )


SPECIAL_BOX = from_moduli(BoxModuli(0, 0))


def theta_basis(box: OvermarkedBox) -> tuple:
    """Change-of-basis matrix carrying the box corners to normal form."""
    try:
        return pj.frame_change(pj.frame_matrix(box.p, box.q, box.r, box.s), STANDARD_FRAME)
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


def _interior_basis(box: OvermarkedBox) -> tuple:
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
    try:
        return OvermarkedBox(p=box.p, q=box.q, r=qr, s=ps, t=box.t, b=mid)
    except DegenerateBox as exc:
        raise DegenerateConfiguration(str(exc)) from exc


def tau2(box: OvermarkedBox) -> OvermarkedBox:
    """Second Pappus child: (QR, PS, s, r; (pr)(qs), b)."""
    qr, ps, mid = _pappus_points(box)
    try:
        return OvermarkedBox(p=qr, q=ps, r=box.s, s=box.r, t=mid, b=box.b)
    except DegenerateBox as exc:
        raise DegenerateConfiguration(str(exc)) from exc


def apply_matrix(box: OvermarkedBox, m: tuple) -> OvermarkedBox:
    """Image of a box under a projective transformation matrix.

    An exact image under an invertible matrix is a valid box because
    the box is, so only float images and singular matrices are checked.
    """
    try:
        images = tuple(Point(sc.mat_vec(m, x.coords)) for x in box.points)
        if all(x.exact for x in images) and sc.det3(m) != 0:
            return OvermarkedBox._trusted(*images)
        return OvermarkedBox(*images)
    except (DegenerateBox, PappusLabError) as exc:
        raise DegenerateConfiguration(str(exc)) from exc


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
    try:
        return OvermarkedBox(
            p=Point(g.line_image_coords(lp.coords)),
            q=Point(g.line_image_coords(lq.coords)),
            r=Point(g.line_image_coords(ls.coords)),
            s=Point(g.line_image_coords(lr.coords)),
            t=Point(g.line_image_coords(lt.coords)),
            b=Point(g.line_image_coords(lb.coords)),
        )
    except (DegenerateBox, PappusLabError) as exc:
        raise DegenerateConfiguration(str(exc)) from exc


def dual_box(box: OvermarkedBox) -> OvermarkedBox:
    """The dual box (P, Q, R, S; T, B) in the dual plane.

    The top points P, Q, T of the dual all pass through t in the
    original plane, and the bottom points R, S, B through b, so the
    incidence pattern of a box is preserved with no reordering.
    """
    lp, lq, lr, ls, lt, lb = box.lines
    return OvermarkedBox(
        p=Point(lp.coords),
        q=Point(lq.coords),
        r=Point(lr.coords),
        s=Point(ls.coords),
        t=Point(lt.coords),
        b=Point(lb.coords),
    )


def transform_sigma(box: OvermarkedBox, lam: Lambda) -> OvermarkedBox:
    """The deformation, applied in the box's own adapted basis."""
    if lam.is_zero:
        return box
    g = theta_basis(box)
    # the adjugate is the inverse up to the (nonzero) determinant, and
    # _integer_sigma is sigma up to a positive scale; both scales are
    # invisible projectively and keep exact entries integral
    exact = lam.exact and sc.mat_is_exact(g)
    m = sc.mat_mul(sc.mat_mul(sc.adjugate(g), _integer_sigma(lam) if exact else sigma_matrix(lam)), g)
    return apply_matrix(box, sc.mat_exact_reduce(m) if exact else m)


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


def interior_contains(box: OvermarkedBox, point: Point, strict: bool = True) -> bool:
    """Whether a point lies in the box's convex-interior quadrilateral."""
    return _inside(_interior_basis(box), point, strict)


def _inside(g: tuple, point: Point, strict: bool = True) -> bool:
    """``interior_contains`` for the convex box whose ``theta_basis`` is g."""
    return in_standard_interior(sc.mat_vec(g, point.coords), strict=strict)


def convex_interior(box: OvermarkedBox):
    """The box's interior quadrilateral (vertices in cyclic order p,q,r,s).

    Returned as a ConvexQuad; among the candidate quadrilaterals on the
    corner set this is the one containing the adapted-basis center
    [0:1:1] (the chart origin), which is the projectively invariant
    choice.
    """
    from .hilbert import ConvexQuad

    if not is_convex(box):
        raise NotConvex("interior is only defined for convex boxes")
    return ConvexQuad((box.p, box.q, box.r, box.s))


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
    # for every convex box
    sig = sigma_matrix(lam)
    return all(
        in_standard_interior(sc.mat_vec(sig, corner.coords), strict=strict)
        for corner in STANDARD_CORNERS
    )


def nested_strictly(outer: OvermarkedBox, inner: OvermarkedBox) -> bool:
    """Closure of inner's interior contained in outer's open interior."""
    g = _interior_basis(outer)
    return all(_inside(g, v) for v in (inner.p, inner.q, inner.r, inner.s))


def nested_interiors(outer: OvermarkedBox, inner: OvermarkedBox, resolution: int = 8) -> bool:
    """Open-interior inclusion diagnostic: interior(inner) inside
    interior(outer).  Weaker than ``nested_strictly``: the corners may
    sit on the outer boundary (the undeformed Pappus children share two
    corners with their parent)."""
    g = _interior_basis(outer)
    if not all(_inside(g, v, strict=False) for v in (inner.p, inner.q, inner.r, inner.s)):
        return False
    return all(_inside(g, pt) for pt in _interior_grid(theta_basis(inner), resolution))


def _interior_grid(g: tuple, resolution: int):
    """Sample points of the interior of the box whose ``theta_basis``
    is g, via the adapted chart."""
    inv = sc.mat_inverse(sc.mat_to_mpf(g))
    pts = []
    ticks = [mpf(2 * k + 1) / resolution - 1 for k in range(resolution)]
    for cx in ticks:
        for cy in ticks:
            pts.append(Point(sc.mat_vec(inv, chart_point((cx, cy)))))
    return pts


def interiors_disjoint(box1: OvermarkedBox, box2: OvermarkedBox, resolution: int = 8) -> bool:
    """Diagnostic that two box interiors do not overlap.

    Checks that no corner of either box lies strictly inside the other
    and that a chart grid sample of each interior avoids the other; the
    quads may share corners (siblings do), so a separating line does
    not exist in general and sampling is used instead.
    """
    # box1's basis is built only once box2's corners are through, as
    # the per-point test did: a nonconvex box1 may still give False
    g2 = _interior_basis(box2)
    if any(_inside(g2, v) for v in (box1.p, box1.q, box1.r, box1.s)):
        return False
    g1 = _interior_basis(box1)
    if any(_inside(g1, v) for v in (box2.p, box2.q, box2.r, box2.s)):
        return False
    if any(_inside(g2, pt) for pt in _interior_grid(g1, resolution)):
        return False
    return not any(_inside(g1, pt) for pt in _interior_grid(g2, resolution))


# ---------------------------------------------------------------------------
# marked boxes (classes modulo j)


def _normalized_key(point: Point):
    v = point.coords
    pivot = max(range(3), key=lambda i: abs(sc.to_mpf(v[i])))
    if sc.is_exact(v[0]) and sc.is_exact(v[1]) and sc.is_exact(v[2]):
        piv = Fraction(v[pivot])
        return tuple(Fraction(x) / piv for x in v)
    piv = sc.to_mpf(v[pivot])
    return tuple(sc.to_mpf(x) / piv for x in v)


@dataclass(frozen=True)
class MarkedBox:
    """A marked box: the j-class of an overmarked box.

    The stored representative is the one of the two overmarked lifts
    whose p-point has the lexicographically larger normalized
    coordinates; this pick is deterministic and mode independent.
    """

    representative: OvermarkedBox

    def __post_init__(self):
        other = transform_j(self.representative)
        if _normalized_key(other.p) > _normalized_key(self.representative.p):
            object.__setattr__(self, "representative", other)

    def __eq__(self, other):
        if not isinstance(other, MarkedBox):
            return False
        a, b = self.representative, other.representative
        return a == b or a == transform_j(b)

    def __hash__(self):
        raise TypeError("marked boxes are unhashable")


# ---------------------------------------------------------------------------
# serialization


def _scalar_to_str(x) -> str:
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator)
    if isinstance(x, int):
        return str(x)
    return mpmath.nstr(sc.to_mpf(x), 30)


def _scalar_from_str(sv: str):
    sv = sv.strip()
    if "/" in sv:
        return Fraction(sv)
    if "." in sv or "e" in sv or "E" in sv:
        return mpf(sv)
    return int(sv)


def box_to_json(box: OvermarkedBox) -> str:
    names = ("p", "q", "r", "s", "t", "b")
    data = {
        "points": {
            name: [_scalar_to_str(c) for c in pt.coords]
            for name, pt in zip(names, box.points)
        }
    }
    return json.dumps(data)


def box_from_json(text: str) -> OvermarkedBox:
    data = json.loads(text)
    pts = {}
    for name in ("p", "q", "r", "s", "t", "b"):
        raw = data["points"][name]
        if len(raw) != 3:
            raise DegenerateBox("point %s needs three coordinates" % name)
        pts[name] = Point(tuple(_scalar_from_str(c) for c in raw))
    return OvermarkedBox(**pts)
