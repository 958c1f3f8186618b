"""Points, lines, flags, dualities and frames of the projective plane.

Coordinates are 3-tuples of scalars in either scalar mode (see
``scalars``); all values are immutable and all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from mpmath import mpf

from . import scalars as sc
from .errors import (
    CoincidentLines,
    CoincidentPoints,
    PappusLabError,
    SingularMatrix,
)

# Tolerance on the cross-product norm of normalized float vectors (and on
# incidence).  At 53-256 bits, equal vectors reach at most 7.1e-14 (53 bits;
# 2.8e-17 at 64) in the relation suite on float copies of 20 random boxes;
# distinct ones at least 1.7e-2 there and 6.7e-2 in the golden cases and
# iterate_float: 1e-12 sits 1.1 decades above the one, 10 below the other.
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
        exact = sc.vec_is_exact(u) and sc.vec_is_exact(v)
    if exact:
        return sc.is_zero_vec(sc.cross(u, v))
    c = sc.cross(_normalized(u), _normalized(v))
    return sc.vec_norm(c) <= ANGLE_TOL


def incidence_residual(line_coords, point_coords):
    """|<line|point>| on normalized float vectors; exact value in exact mode."""
    if sc.vec_is_exact(line_coords) and sc.vec_is_exact(point_coords):
        return abs(sc.dot(line_coords, point_coords))
    return abs(sc.dot(_normalized(line_coords), _normalized(point_coords)))


@dataclass(frozen=True, eq=False, repr=False)
class _Element:
    """Body shared by ``Point`` and ``Line``: a nonzero coordinate vector
    up to scale."""

    coords: tuple
    # scalar mode, decided once here; exact coordinates are stored as
    # coprime integers, float ones as mpf of max |entry| 1
    exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if sc.is_zero_vec(self.coords):
            raise PappusLabError("a %s needs a nonzero coordinate vector" % self._noun)
        exact = sc.vec_is_exact(self.coords)
        if exact:
            coords = sc.vec_exact_reduce(self.coords)
        else:
            coords = sc.vec_to_mpf(self.coords)
            top = sc.vec_max_abs(coords)
            coords = (coords[0] / top, coords[1] / top, coords[2] / top)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "exact", exact)

    def __eq__(self, other):
        return type(other) is type(self) and proj_equal(
            self.coords, other.coords, self.exact and other.exact
        )

    def __hash__(self):
        raise TypeError(
            "projective %ss are unhashable (equality is up to scale)" % self._noun
        )

    def __repr__(self):
        return "%s[%s:%s:%s]" % ((type(self).__name__,) + self.coords)


# each keeps its own generated __init__, so a profiler can count either
@dataclass(frozen=True, eq=False, repr=False)
class Point(_Element):
    _noun = "point"


@dataclass(frozen=True, eq=False, repr=False)
class Line(_Element):
    _noun = "line"


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
    # exact proj_equal would form this very cross product again
    if (sc.is_zero_vec(c) if a.exact and b.exact else proj_equal(a.coords, b.coords, False)):
        raise CoincidentPoints("join of projectively equal points")
    return Line(c)


def meet(l1: Line, l2: Line) -> Point:
    """The intersection point of two distinct lines."""
    c = sc.cross(l1.coords, l2.coords)
    if (sc.is_zero_vec(c) if l1.exact and l2.exact else proj_equal(l1.coords, l2.coords, False)):
        raise CoincidentLines("meet of projectively equal lines")
    return Point(c)


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
        self.dual_matrix  # inverts the matrix once; SingularMatrix when degenerate

    @property
    def is_duality(self) -> bool:
        return self.kind == DUALITY

    @cached_property
    def dual_matrix(self) -> tuple:
        return sc.mat_transpose(sc.mat_inverse(self.matrix))

    def point_image_coords(self, coords):
        return sc.mat_vec(self.matrix, coords)

    def line_image_coords(self, coords):
        return sc.mat_vec(self.dual_matrix, coords)

    def compose(self, other: "ProjSymmetry") -> "ProjSymmetry":
        """self after other (apply ``other`` first)."""
        # a duality ``other`` hands self lines, on which self acts by t(M)^-1
        left = self.dual_matrix if other.is_duality else self.matrix
        kind = DUALITY if self.is_duality != other.is_duality else TRANSFORMATION
        return ProjSymmetry(kind, sc.mat_mul(left, other.matrix))

    def inverse(self) -> "ProjSymmetry":
        if self.is_duality:
            return ProjSymmetry(DUALITY, sc.mat_transpose(self.matrix))
        return ProjSymmetry(TRANSFORMATION, sc.mat_transpose(self.dual_matrix))

    def is_polarity(self) -> bool:
        if not self.is_duality:
            return False
        return proj_equal_mat(self.matrix, sc.mat_transpose(self.matrix))


def proj_equal_mat(a, b) -> bool:
    """Projective equality of matrices (proportionality)."""
    flat_a = tuple(x for row in a for x in row)
    flat_b = tuple(x for row in b for x in row)
    exact = sc.mat_is_exact(a) and sc.mat_is_exact(b)
    if not exact:
        flat_a = tuple(sc.to_mpf(x) for x in flat_a)
        flat_b = tuple(sc.to_mpf(x) for x in flat_b)
        na = max(abs(x) for x in flat_a)
        nb = max(abs(x) for x in flat_b)
        flat_a = tuple(x / na for x in flat_a)
        flat_b = tuple(x / nb for x in flat_b)
    tol = 0 if exact else ANGLE_TOL
    for i in range(9):
        for k in range(9):
            if abs(flat_a[i] * flat_b[k] - flat_a[k] * flat_b[i]) > tol:
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
        coeffs = sc.mat_vec(sc.mat_inverse(cols), d.coords)
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
