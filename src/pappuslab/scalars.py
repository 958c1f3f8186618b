"""Scalar modes and 3x3 linear algebra used by every other module.

Two scalar modes are supported and threaded through the whole library:

* exact mode: values are ``int`` / ``fractions.Fraction``, all arithmetic
  is exact and identity checks are bit-for-bit;
* float mode: values are ``mpmath.mpf`` at a configurable working
  precision (default 128 bits), used for spectra and limit curves.

Vectors are 3-tuples of scalars and matrices are 3-tuples of rows; both
are immutable, so everything here is safe to use from parallel scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import mpmath
from mpmath import mpf

from .errors import ComplexSpectrum, SingularMatrix

DEFAULT_PRECISION_BITS = 128

Vec3 = tuple
Mat3 = tuple

IDENTITY: Mat3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def set_precision(bits: int = DEFAULT_PRECISION_BITS) -> None:
    """Set the global working precision of float mode (>= 53 bits)."""
    if bits < 53:
        raise ValueError("float mode requires at least 53 bits")
    mpmath.mp.prec = bits


set_precision()


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def to_mpf(x) -> mpf:
    if isinstance(x, Fraction):
        return mpf(x.numerator) / mpf(x.denominator)
    return mpf(x)


def float_epsilon() -> mpf:
    """Tolerance unit scaled to the current working precision."""
    return mpf(2) ** (8 - mpmath.mp.prec)


# ---------------------------------------------------------------------------
# vectors


def dot(u: Vec3, v: Vec3):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def vec_scale(u: Vec3, c) -> Vec3:
    return (u[0] * c, u[1] * c, u[2] * c)


def vec_sub(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def vec_add(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def vec_max_abs(u: Vec3):
    return max(abs(u[0]), abs(u[1]), abs(u[2]))


def vec_norm(u: Vec3) -> mpf:
    return mpmath.sqrt(to_mpf(dot(u, u)))


def is_zero_vec(u: Vec3) -> bool:
    return u[0] == 0 and u[1] == 0 and u[2] == 0


def vec_to_mpf(u: Vec3) -> Vec3:
    return (to_mpf(u[0]), to_mpf(u[1]), to_mpf(u[2]))


def mat_exact_reduce(m: Mat3) -> Mat3:
    """Canonical coprime-integer representative of an exact nonzero
    matrix (up to positive scale)."""
    flat = vec_exact_reduce([x for row in m for x in row])
    return tuple(tuple(flat[3 * i + j] for j in range(3)) for i in range(3))


def vec_exact_reduce(u) -> tuple:
    """Canonical coprime-integer representative of an exact nonzero
    vector of any length (up to positive scale); keeps rational
    computations on small integers instead of compounding denominators."""
    if all(type(x) is int for x in u):
        ints = u
    else:
        scale = math.lcm(*(Fraction(x).denominator for x in u))
        ints = [int(x * scale) for x in u]
    g = math.gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


# ---------------------------------------------------------------------------
# matrices


def mat_vec(m: Mat3, v: Vec3) -> Vec3:
    return (dot(m[0], v), dot(m[1], v), dot(m[2], v))


def mat_transpose(m: Mat3) -> Mat3:
    return (
        (m[0][0], m[1][0], m[2][0]),
        (m[0][1], m[1][1], m[2][1]),
        (m[0][2], m[1][2], m[2][2]),
    )


def mat_mul(a: Mat3, b: Mat3) -> Mat3:
    bt = mat_transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_scale(m: Mat3, c) -> Mat3:
    return tuple(tuple(x * c for x in row) for row in m)


def mat_sub(a: Mat3, b: Mat3) -> Mat3:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_add(a: Mat3, b: Mat3) -> Mat3:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def second_symmetric(m: Mat3):
    """Sum of the principal 2x2 minors, the coefficient e2 of the
    characteristic polynomial x^3 - tr x^2 + e2 x - det."""
    return (
        m[0][0] * m[1][1]
        + m[1][1] * m[2][2]
        + m[2][2] * m[0][0]
        - m[0][1] * m[1][0]
        - m[1][2] * m[2][1]
        - m[0][2] * m[2][0]
    )


def det3(m: Mat3):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def adjugate(m: Mat3) -> Mat3:
    return (
        (
            m[1][1] * m[2][2] - m[1][2] * m[2][1],
            m[0][2] * m[2][1] - m[0][1] * m[2][2],
            m[0][1] * m[1][2] - m[0][2] * m[1][1],
        ),
        (
            m[1][2] * m[2][0] - m[1][0] * m[2][2],
            m[0][0] * m[2][2] - m[0][2] * m[2][0],
            m[0][2] * m[1][0] - m[0][0] * m[1][2],
        ),
        (
            m[1][0] * m[2][1] - m[1][1] * m[2][0],
            m[0][1] * m[2][0] - m[0][0] * m[2][1],
            m[0][0] * m[1][1] - m[0][1] * m[1][0],
        ),
    )


def mat_max_abs(m: Mat3):
    return max(abs(x) for row in m for x in row)


def mat_is_exact(m: Mat3) -> bool:
    return all(is_exact(x) for row in m for x in row)


def mat_to_mpf(m: Mat3) -> Mat3:
    return tuple(tuple(to_mpf(x) for x in row) for row in m)


def is_singular(m: Mat3, d) -> bool:
    """Whether d = det(m) counts as zero.

    Exactly zero in exact mode (an exact d comes only from an exact m);
    in float mode, |d| <= float_epsilon() * max(max|m|^3, 1).
    """
    if is_exact(d):
        return d == 0
    return abs(to_mpf(d)) <= float_epsilon() * max(to_mpf(mat_max_abs(m)) ** 3, mpf(1))


def mat_inverse(m: Mat3) -> Mat3:
    """Inverse via the adjugate; exact in rational mode.

    Raises SingularMatrix when ``is_singular`` holds for det(m).
    """
    d = det3(m)
    if is_singular(m, d):
        raise SingularMatrix("matrix determinant is zero at the working precision")
    if is_exact(d):
        dd = Fraction(d)
        return tuple(tuple(Fraction(x) / dd for x in row) for row in adjugate(m))
    return mat_scale(adjugate(m), 1 / to_mpf(d))


def solve3(m: Mat3, rhs: Vec3) -> Vec3:
    return mat_vec(mat_inverse(m), rhs)


def _exact_cbrt(x: Fraction):
    """Exact rational cube root, or None."""
    x = Fraction(x)
    sign = -1 if x < 0 else 1
    num, den = abs(x.numerator), x.denominator

    def icbrt(n: int):
        r = round(n ** (1.0 / 3.0)) if n < 2**50 else int(mpmath.cbrt(n))
        for c in (r - 1, r, r + 1):
            if c >= 0 and c**3 == n:
                return c
        return None

    cn, cd = icbrt(num), icbrt(den)
    if cn is None or cd is None:
        return None
    return sign * Fraction(cn, cd)


def real_cbrt(x) -> mpf:
    x = to_mpf(x)
    return mpmath.cbrt(x) if x >= 0 else -mpmath.cbrt(-x)


def normalize_det_one(m: Mat3) -> Mat3:
    """Scale m by the real cube root of its determinant so det = 1.

    Stays exact whenever the determinant is a perfect rational cube;
    otherwise the result is in float mode.  Raises SingularMatrix when
    ``is_singular`` holds for det(m).
    """
    d = det3(m)
    if is_exact(d) and d != 0:
        c = _exact_cbrt(Fraction(d))
        if c is not None:
            return tuple(tuple(Fraction(x) / c for x in row) for row in m)
        m = mat_to_mpf(m)
        d = det3(m)
    if is_singular(m, d):
        raise SingularMatrix("matrix determinant is zero at the working precision")
    c = real_cbrt(d)
    return tuple(tuple(x / c for x in row) for row in m)


# ---------------------------------------------------------------------------
# eigenvalues of 3x3 matrices (float mode)

# moduli whose ratio exceeds this are considered distinct
MODULI_GAP_MARGIN = mpf("1e-9")


@dataclass(frozen=True)
class EigenResult:
    """Real spectrum of a 3x3 matrix.

    matrix  -- the (float-mode) matrix whose spectrum this is
    roots   -- the three polished eigenvalues, unsorted
    moduli  -- the three |eigenvalue|, ascending
    gaps    -- (moduli[1]/moduli[0], moduli[2]/moduli[1])
    pairs   -- list of (eigenvalue, unit eigenvector) in the order of
               roots, built on first access (spectral gaps need no
               eigenvectors)
    """

    matrix: Mat3 = field(repr=False)
    roots: tuple
    moduli: tuple
    gaps: tuple

    @property
    def loxodromic(self) -> bool:
        return self.gaps[0] > 1 + MODULI_GAP_MARGIN and self.gaps[1] > 1 + MODULI_GAP_MARGIN

    @cached_property
    def pairs(self) -> list:
        return [(lam, _eigenvector(self.matrix, lam)) for lam in self.roots]


def _cubic_real_roots(c2, c1, c0):
    """All real roots of x^3 + c2 x^2 + c1 x + c0, with multiplicity.

    Depressed-cubic closed form; raises ComplexSpectrum when the cubic
    has a genuinely complex pair.
    """
    shift = c2 / 3
    p = c1 - c2 * c2 / 3
    q = c0 - c1 * c2 / 3 + 2 * c2**3 / 27
    disc = -4 * p**3 - 27 * q * q
    scale = max(abs(p) ** 3, q * q, mpf(1))
    if disc < -mpf("1e-24") * scale:
        raise ComplexSpectrum("characteristic cubic has non-real roots")
    if abs(p) <= float_epsilon() * max(abs(q) ** mpf(2) / 3, mpf(1)) and abs(q) <= float_epsilon():
        roots = [mpf(0)] * 3
    elif disc <= 0:
        # borderline: a repeated root
        u = real_cbrt(-q / 2)
        roots = [2 * u, -u, -u]
    else:
        r = 2 * mpmath.sqrt(-p / 3)
        theta = mpmath.acos(min(max(3 * q / (p * r), mpf(-1)), mpf(1)))
        roots = [r * mpmath.cos(theta / 3 - 2 * mpmath.pi * k / 3) for k in range(3)]
    return [x - shift for x in roots]


def _eigenvector(m: Mat3, lam: mpf) -> Vec3:
    a = mat_sub(m, mat_scale(IDENTITY, lam))
    candidates = [cross(a[0], a[1]), cross(a[0], a[2]), cross(a[1], a[2])]
    best = max(candidates, key=lambda v: dot(v, v))
    n = vec_norm(best)
    if n == 0:
        # (m - lam I) has rank <= 1: any kernel vector will do
        rows = [r for r in a if not is_zero_vec(r)]
        if not rows:
            return (mpf(1), mpf(0), mpf(0))
        r = rows[0]
        base = (mpf(0), -r[2], r[1]) if abs(r[0]) <= abs(r[2]) else (-r[1], r[0], mpf(0))
        best, n = base, vec_norm(base)
    return vec_scale(best, 1 / n)


def eigen_real(m: Mat3, newton_steps: int = 2) -> EigenResult:
    """Real eigen-decomposition of a 3x3 matrix in float mode.

    Closed-form roots of the characteristic cubic and two Newton
    polishing steps; the eigenvectors (``EigenResult.pairs``) come from
    cross products of rows of (m - lam I) when first read.
    """
    m = mat_to_mpf(m)
    trace = m[0][0] + m[1][1] + m[2][2]
    e2 = second_symmetric(m)
    d = det3(m)
    # characteristic polynomial: x^3 - tr x^2 + e2 x - det
    roots = _cubic_real_roots(-trace, e2, -d)

    def poly(x):
        return x**3 - trace * x * x + e2 * x - d

    def dpoly(x):
        return 3 * x * x - 2 * trace * x + e2

    polished = []
    for x in roots:
        for _ in range(newton_steps):
            dp = dpoly(x)
            if abs(dp) > float_epsilon():
                x = x - poly(x) / dp
        polished.append(x)

    moduli = tuple(sorted(abs(lam) for lam in polished))
    floor = max(moduli[2] * float_epsilon(), float_epsilon())
    gaps = (
        moduli[1] / max(moduli[0], floor),
        moduli[2] / max(moduli[1], floor),
    )
    return EigenResult(matrix=m, roots=tuple(polished), moduli=moduli, gaps=gaps)


# ---------------------------------------------------------------------------
# generic dense helpers (small n, used by the variety and extension checks)


def det_n(rows) -> mpf:
    """Determinant of a square mpf matrix by Gaussian elimination."""
    a = [[to_mpf(x) for x in row] for row in rows]
    n = len(a)
    det = mpf(1)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return mpf(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f == 0:
                continue
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


def nullspace_exact(rows):
    """Basis of the exact rational nullspace of a (possibly non-square) matrix."""
    a = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(tuple(v))
    return basis
