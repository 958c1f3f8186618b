"""Points, lines, flags, dualities and frames of the projective plane.

A point or line stores its coordinates as three coprime ints, whatever
its input: exact input is reduced, and any other is converted to mpf and
rounded once by the scaled kernel's rule (``scalars.to_scaled``).  Every
geometric test is exact on those ints, so ``Point(v) == Point(2**k * v)``
holds, but ``Point(v) == Point(c * v)`` for another scale c need not.
Matrices (``ProjSymmetry``) keep their scalar mode; all values are
immutable and all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import scalars as sc
from .errors import (
    CoincidentLines,
    CoincidentPoints,
    PappusLabError,
    SingularMatrix,
)


def proj_equal(u, v) -> bool:
    """Projective equality of exact coordinate vectors (proportionality):
    their cross product is zero."""
    return sc.is_zero_vec(sc.cross(u, v))


@dataclass(frozen=True, eq=False, repr=False)
class _Element:
    """Body shared by ``Point`` and ``Line``: a nonzero coordinate vector
    up to scale, stored as coprime ints (see the module docstring)."""

    coords: tuple

    def __post_init__(self):
        coords = self.coords
        if sc.is_zero_vec(coords):
            raise PappusLabError("a %s needs a nonzero coordinate vector" % self._noun)
        if not sc.vec_is_exact(coords):
            coords = sc.to_scaled(sc.vec_to_mpf(coords))
        object.__setattr__(self, "coords", sc.vec_exact_reduce(coords))

    def __eq__(self, other):
        return type(other) is type(self) and proj_equal(self.coords, other.coords)

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
    return sc.dot(line.coords, point.coords) == 0


def join(a: Point, b: Point) -> Line:
    """The line through two distinct points (cross product of coordinates)."""
    c = sc.cross(a.coords, b.coords)
    if sc.is_zero_vec(c):
        raise CoincidentPoints("join of projectively equal points")
    return Line(c)


def meet(l1: Line, l2: Line) -> Point:
    """The intersection point of two distinct lines."""
    c = sc.cross(l1.coords, l2.coords)
    if sc.is_zero_vec(c):
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
    """Projective equality of exact matrices (proportionality): their
    flattened coprime-int representatives agree up to sign."""
    if not (sc.mat_is_exact(a) and sc.mat_is_exact(b)):
        raise TypeError("projective equality of matrices is exact only")
    flat_a = sc.vec_exact_reduce([x for row in a for x in row])
    flat_b = sc.vec_exact_reduce([x for row in b for x in row])
    return flat_a == flat_b or flat_a == tuple(-x for x in flat_b)


def frame(a: Point, b: Point, c: Point, d: Point) -> tuple:
    """(F, k, sign): the ``frame_matrix`` F of the four points, the
    coprime ints k with columns k0 a, k1 b, k2 c of F, and the sign of
    det F = k0 k1 k2 det(a, b, c)."""
    cols = sc.mat_transpose((a.coords, b.coords, c.coords))
    # adj(cols) d = det(cols) cols^-1 d; the sign of det keeps the scale
    # positive
    det = sc.det3(cols)
    if det == 0:
        raise SingularMatrix("matrix determinant is zero at the working precision")
    coeffs = sc.mat_vec(sc.adjugate(cols), d.coords)
    coeffs = sc.vec_exact_reduce(coeffs if det > 0 else sc.vec_scale(coeffs, -1))
    if any(x == 0 for x in coeffs):
        raise PappusLabError("frame points are not in general position")
    matrix = sc.mat_transpose(
        (
            sc.vec_scale(a.coords, coeffs[0]),
            sc.vec_scale(b.coords, coeffs[1]),
            sc.vec_scale(c.coords, coeffs[2]),
        )
    )
    return matrix, coeffs, 1 if (coeffs[0] * coeffs[1] * coeffs[2] > 0) == (det > 0) else -1


def frame_matrix(a: Point, b: Point, c: Point, d: Point) -> tuple:
    """Matrix sending e1, e2, e3, e1+e2+e3 to the four given points.

    The four points must be in general position (no three collinear);
    this is the standard projective frame construction.  The matrix is
    integral, a positive multiple of the one a rational solve would give.
    """
    return frame(a, b, c, d)[0]


def frame_change(f_src: tuple, f_dst: tuple) -> tuple:
    """The matrix sending the frame with ``frame_matrix`` f_src to the
    frame with ``frame_matrix`` f_dst; callers that map to one fixed
    frame build its matrix once.  The adjugate is the inverse up to the
    determinant, invisible projectively, so the result stays integral."""
    return sc.mat_exact_reduce(sc.mat_mul(f_dst, sc.adjugate(f_src)))


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
