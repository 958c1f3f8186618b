"""Points, lines, flags, dualities and cross-ratios of the projective plane.

Coordinates are 3-tuples of scalars in either scalar mode (see
``scalars``); all values are immutable and all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mpf

from . import scalars as sc
from .errors import (
    CoincidentLines,
    CoincidentPoints,
    DegeneratePair,
    NotCollinear,
    PappusLabError,
    SingularMatrix,
)

# angle-based tolerance for projective equality of normalized float vectors
ANGLE_TOL = mpf("1e-12")


def _normalized(v):
    v = sc.vec_to_mpf(v)
    n = sc.vec_norm(v)
    if n == 0:
        raise PappusLabError("zero vector has no projective class")
    return sc.vec_scale(v, 1 / n)


def proj_equal(u, v, exact=None) -> bool:
    """Projective equality of coordinate vectors (proportionality).

    ``exact`` is whether both vectors are in exact mode, for callers
    that already know it (``Point.exact``, ``Line.exact``); when None it
    is read off the scalars.
    """
    if exact is None:
        exact = all(sc.is_exact(x) for x in u) and all(sc.is_exact(x) for x in v)
    if exact:
        return sc.is_zero_vec(sc.cross(u, v))
    c = sc.cross(_normalized(u), _normalized(v))
    return sc.vec_norm(c) <= ANGLE_TOL


def incidence_residual(line_coords, point_coords):
    """|<line|point>| on normalized float vectors; exact value in exact mode."""
    if all(sc.is_exact(x) for x in line_coords) and all(sc.is_exact(x) for x in point_coords):
        return abs(sc.dot(line_coords, point_coords))
    return abs(sc.dot(_normalized(line_coords), _normalized(point_coords)))


@dataclass(frozen=True)
class Point:
    coords: tuple
    # scalar mode, decided once here; exact coordinates are stored as
    # coprime integers
    exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if sc.is_zero_vec(self.coords):
            raise PappusLabError("a point needs a nonzero coordinate vector")
        exact = all(sc.is_exact(x) for x in self.coords)
        if exact:
            object.__setattr__(self, "coords", sc.vec_exact_reduce(self.coords))
        object.__setattr__(self, "exact", exact)

    def __eq__(self, other):
        return isinstance(other, Point) and proj_equal(
            self.coords, other.coords, self.exact and other.exact
        )

    def __hash__(self):
        raise TypeError("projective points are unhashable (equality is up to scale)")

    def __repr__(self):
        return "Point[%s:%s:%s]" % self.coords


@dataclass(frozen=True)
class Line:
    coords: tuple
    # scalar mode, decided once here; exact coordinates are stored as
    # coprime integers
    exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if sc.is_zero_vec(self.coords):
            raise PappusLabError("a line needs a nonzero coordinate vector")
        exact = all(sc.is_exact(x) for x in self.coords)
        if exact:
            object.__setattr__(self, "coords", sc.vec_exact_reduce(self.coords))
        object.__setattr__(self, "exact", exact)

    def __eq__(self, other):
        return isinstance(other, Line) and proj_equal(
            self.coords, other.coords, self.exact and other.exact
        )

    def __hash__(self):
        raise TypeError("projective lines are unhashable (equality is up to scale)")

    def __repr__(self):
        return "Line[%s:%s:%s]" % self.coords


@dataclass(frozen=True)
class Flag:
    point: Point
    line: Line

    def __post_init__(self):
        if not incident(self.line, self.point):
            raise PappusLabError("flag point must lie on the flag line")


def incident(line: Line, point: Point) -> bool:
    if line.exact and point.exact:
        return sc.dot(line.coords, point.coords) == 0
    return incidence_residual(line.coords, point.coords) <= ANGLE_TOL


def join(a: Point, b: Point) -> Line:
    """The line through two distinct points (cross product of coordinates)."""
    c = sc.cross(a.coords, b.coords)
    if proj_equal(a.coords, b.coords, a.exact and b.exact):
        raise CoincidentPoints("join of projectively equal points")
    return Line(c)


def meet(l1: Line, l2: Line) -> Point:
    """The intersection point of two distinct lines."""
    c = sc.cross(l1.coords, l2.coords)
    if proj_equal(l1.coords, l2.coords, l1.exact and l2.exact):
        raise CoincidentLines("meet of projectively equal lines")
    return Point(c)


def _line_chart_index(line_coords) -> int:
    """Coordinate to drop when flattening points of this line to 2 coords."""
    absvals = [abs(sc.to_mpf(x)) for x in line_coords]
    return max(range(3), key=lambda i: absvals[i])


def cross_ratio(a: Point, x: Point, y: Point, b: Point):
    """Cross-ratio [a:x:y:b] of four collinear points.

    Computed with 2x2 determinants in a chart adapted to the common
    line, so the value is independent of any affine chart choice and is
    invariant under projective transformations.
    """
    pts = (a, x, y, b)
    distinct = [(p, q) for p in range(4) for q in range(p + 1, 4) if pts[p] != pts[q]]
    if not distinct:
        raise DegeneratePair("all four points coincide")
    i, j = distinct[0]
    line = join(pts[i], pts[j])
    exact = all(p.exact for p in pts)
    tol = 0 if exact else ANGLE_TOL
    for p in pts:
        if incidence_residual(line.coords, p.coords) > tol:
            raise NotCollinear("cross-ratio needs four collinear points")
    drop = _line_chart_index(line.coords)
    keep = [k for k in range(3) if k != drop]

    def flat(p):
        return (p.coords[keep[0]], p.coords[keep[1]])

    def det2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    fa, fx, fy, fb = flat(a), flat(x), flat(y), flat(b)
    den = det2(fa, fx) * det2(fb, fy)
    if den == 0 or (not exact and abs(sc.to_mpf(den)) <= ANGLE_TOL * sc.to_mpf(
        max(sc.vec_max_abs(a.coords), 1) * max(sc.vec_max_abs(b.coords), 1)
    ) ** 2):
        raise DegeneratePair("cross-ratio undefined: a = x or b = y")
    num = det2(fa, fy) * det2(fb, fx)
    if exact:
        return Fraction(num) / Fraction(den)
    return sc.to_mpf(num) / sc.to_mpf(den)


# ---------------------------------------------------------------------------
# projective symmetries

TRANSFORMATION = "transformation"
DUALITY = "duality"


@dataclass(frozen=True)
class ProjSymmetry:
    """A projective transformation or duality, acting on the flag variety.

    A transformation with matrix M sends (x, X) to (M x, t(M)^-1 X); a
    duality with matrix M sends (x, X) to (t(M)^-1 X, M x).
    """

    kind: str
    matrix: tuple

    def __post_init__(self):
        if self.kind not in (TRANSFORMATION, DUALITY):
            raise ValueError("kind must be 'transformation' or 'duality'")
        sc.mat_inverse(self.matrix)  # raises SingularMatrix when degenerate

    @property
    def is_duality(self) -> bool:
        return self.kind == DUALITY

    def dual_matrix(self) -> tuple:
        return sc.mat_transpose(sc.mat_inverse(self.matrix))

    def point_image_coords(self, coords):
        return sc.mat_vec(self.matrix, coords)

    def line_image_coords(self, coords):
        return sc.mat_vec(self.dual_matrix(), coords)

    def compose(self, other: "ProjSymmetry") -> "ProjSymmetry":
        """self after other (apply ``other`` first)."""
        if not self.is_duality and not other.is_duality:
            return ProjSymmetry(TRANSFORMATION, sc.mat_mul(self.matrix, other.matrix))
        if self.is_duality and not other.is_duality:
            return ProjSymmetry(DUALITY, sc.mat_mul(self.matrix, other.matrix))
        if not self.is_duality and other.is_duality:
            return ProjSymmetry(DUALITY, sc.mat_mul(self.dual_matrix(), other.matrix))
        return ProjSymmetry(TRANSFORMATION, sc.mat_mul(self.dual_matrix(), other.matrix))

    def inverse(self) -> "ProjSymmetry":
        if self.is_duality:
            return ProjSymmetry(DUALITY, sc.mat_transpose(self.matrix))
        return ProjSymmetry(TRANSFORMATION, sc.mat_inverse(self.matrix))

    def is_polarity(self) -> bool:
        if not self.is_duality:
            return False
        return proj_equal_mat(self.matrix, sc.mat_transpose(self.matrix))


def proj_equal_mat(a, b) -> bool:
    """Projective equality of matrices (proportionality)."""
    flat_a = tuple(x for row in a for x in row)
    flat_b = tuple(x for row in b for x in row)
    exact = all(sc.is_exact(x) for x in flat_a + flat_b)
    if not exact:
        flat_a = tuple(sc.to_mpf(x) for x in flat_a)
        flat_b = tuple(sc.to_mpf(x) for x in flat_b)
        na = max(abs(x) for x in flat_a)
        nb = max(abs(x) for x in flat_b)
        flat_a = tuple(x / na for x in flat_a)
        flat_b = tuple(x / nb for x in flat_b)
    for i in range(9):
        for k in range(9):
            d = flat_a[i] * flat_b[k] - flat_a[k] * flat_b[i]
            if exact:
                if d != 0:
                    return False
            elif abs(d) > ANGLE_TOL:
                return False
    return True


def frame_matrix(a: Point, b: Point, c: Point, d: Point) -> tuple:
    """Matrix sending e1, e2, e3, e1+e2+e3 to the four given points.

    The four points must be in general position (no three collinear);
    this is the standard projective frame construction.  In exact mode
    the matrix is integral, a positive multiple of the one a rational
    solve would give.
    """
    cols = sc.mat_transpose((a.coords, b.coords, c.coords))
    exact = a.exact and b.exact and c.exact and d.exact
    if exact:
        # adj(cols) d = det(cols) cols^-1 d; the sign of det keeps the
        # scale positive
        det = sc.det3(cols)
        if det == 0:
            raise SingularMatrix("matrix determinant is zero at the working precision")
        coeffs = sc.mat_vec(sc.adjugate(cols), d.coords)
        coeffs = sc.vec_exact_reduce(coeffs if det > 0 else sc.vec_scale(coeffs, -1))
    else:
        coeffs = sc.solve3(cols, d.coords)
    if any(x == 0 for x in coeffs) or (
        not exact
        and min(abs(sc.to_mpf(x)) for x in coeffs) <= ANGLE_TOL * max(abs(sc.to_mpf(x)) for x in coeffs)
    ):
        raise PappusLabError("frame points are not in general position")
    return sc.mat_transpose(
        (
            sc.vec_scale(a.coords, coeffs[0]),
            sc.vec_scale(b.coords, coeffs[1]),
            sc.vec_scale(c.coords, coeffs[2]),
        )
    )


def frame_map(src: tuple, dst: tuple) -> tuple:
    """The unique projective transformation matrix sending one ordered
    4-point frame to another (each with no three points collinear)."""
    return frame_change(frame_matrix(*src), frame_matrix(*dst))


def frame_change(f_src: tuple, f_dst: tuple) -> tuple:
    """The matrix sending the frame with ``frame_matrix`` f_src to the
    frame with ``frame_matrix`` f_dst; callers that map to one fixed
    frame build its matrix once."""
    if sc.mat_is_exact(f_src) and sc.mat_is_exact(f_dst):
        # the adjugate is the inverse up to the determinant, invisible
        # projectively; staying integral keeps exact arithmetic cheap
        return sc.mat_exact_reduce(sc.mat_mul(f_dst, sc.adjugate(f_src)))
    return sc.mat_mul(f_dst, sc.mat_inverse(f_src))


def transformation(matrix) -> ProjSymmetry:
    return ProjSymmetry(TRANSFORMATION, matrix)


def duality(matrix) -> ProjSymmetry:
    return ProjSymmetry(DUALITY, matrix)


def apply_symmetry(g: ProjSymmetry, f: Flag) -> Flag:
    """Image of a flag: (x,X) -> (T x, T* X) or (x,X) -> (D* X, D x)."""
    if g.is_duality:
        return Flag(
            Point(g.line_image_coords(f.line.coords)),
            Line(g.point_image_coords(f.point.coords)),
        )
    return Flag(
        Point(g.point_image_coords(f.point.coords)),
        Line(g.line_image_coords(f.line.coords)),
    )
