"""Scalar modes and 3x3 linear algebra used by every other module.

Two scalar modes are supported and threaded through the whole library:

* exact mode: values are ``int`` / ``fractions.Fraction``, all arithmetic
  is exact and identity checks are bit-for-bit;
* float mode: values are ``mpmath.mpf`` at a configurable working
  precision (default 128 bits), used for spectra and limit curves.

Vectors are 3-tuples of scalars and matrices are 3-tuples of rows; both
are immutable.

Exact kernel.  A vector's or matrix's mode is a ``type(x) is int`` test
per entry, and ``is_exact`` decides any other entry (a bool, an int
subclass, a ``Fraction``, an mpf); ``vec_exact_reduce`` divides three
ints by one ``math.gcd``.  ``mat_mul`` and ``mat_vec`` unroll their
products outside the float kernel in ``dot``'s order, so that an int
times an mpf rounds as the operators do.

Float kernel.  An mpf operator unwraps the ``_mpf_`` tuples of its two
operands, makes one ``mpmath.libmp`` call at the context's precision and
rounding, and wraps the result in a new mpf.  When every entry is an
mpf, ``mat_mul``, ``mat_vec``, ``det3``, ``second_symmetric`` and
``adjugate`` make those same libmp calls themselves, on the raw tuples,
in the order and association of the operator expressions that other
inputs still evaluate, and wrap only the entries they return.
``is_singular`` and ``mat_inverse`` keep an exact matrix exact and
convert any other with ``mat_to_mpf``; ``normalize_det_one`` converts
any matrix that is not all mpf, and ``eigen_real`` every matrix.  All
four then make the libmp calls of their operator formulas.  Each call
rounds once, as the operator does, so the results are bit-identical to
the operator path, without an mpf object per intermediate value.  The
dense helpers ``det_n`` and ``nullspace`` share one n x n elimination,
which runs on raw values in the same way; it has no operator path, as
it works in mpf alone, whatever the entries of its rows.

Scaled-integer kernel, the one exception to bit identity.  A long chain
of products read only projectively (``anosov_lab.limit_point``) runs on
matrices of nine ints that share one power-of-two scale, which is not
stored.  ``to_scaled`` converts mpf values to that form; ``scaled_mul``
forms a product exactly and rounds it once, to ``mp.prec`` +
``SCALED_GUARD_BITS`` bits of its largest entry; ``scaled_to_mat``
converts back to mpf, one rounding per entry.  The chain's stopping
test converts nothing: it decides on the exact ints of the corner
images (``anosov_lab._below``).  The products are bounded, not
bit-identical to mpf's operators: a chain of 60 products stays within
2^-prec, normwise and projectively, of the exact chain of the same
converted factors (measured at most 0.00025 units of 2^-prec at 53 to
256 bits, where the mpf chain drifts 8 to 10 units), and scaling every
factor by a power of two changes no bit.  The same rounding, by
``to_scaled``, turns float coordinates into the coprime ints of every
``projective`` point and line.

Mixed input.  Float mode holds only mpf.  A ``Fraction`` enters it once,
through ``to_mpf`` or ``mat_to_mpf``, rounded to nearest, where the
parameter point decides the mode; an int converts exactly.  No
``Fraction`` meets an mpf inside an operator, which would convert it
rounding down, so that a float result depends only on its input and the
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from fractions import Fraction

import mpmath
from mpmath import mpf
from mpmath.libmp import (
    fone,
    from_int,
    from_rational,
    from_str,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_eq,
    mpf_ge,
    mpf_gt,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pi,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_shift,
    mpf_sub,
)

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


def vec_is_exact(u) -> bool:
    """``is_exact`` of every entry, a plain int decided by a type test."""
    for x in u:
        if type(x) is not int and not is_exact(x):
            return False
    return True


def to_mpf(x) -> mpf:
    """x in float mode; a ``Fraction`` is rounded once, to nearest."""
    if isinstance(x, Fraction):
        return _wrap(from_rational(x.numerator, x.denominator, *mpmath.mp._prec_rounding))
    return mpf(x)


def float_epsilon(bits: int | None = None) -> mpf:
    """Tolerance unit 2^(8 - bits), an exact power of two, at the working
    precision unless ``bits`` is given.  It is also the floor of every
    stopping tolerance (``limit`` and ``curve --tol``): at or below it,
    the quantities those tolerances gate are rounding noise."""
    return _wrap(_epsilon(mpmath.mp.prec if bits is None else bits))


# ---------------------------------------------------------------------------
# float kernel: raw ``_mpf_`` tuples in and out (see the module docstring)
#
# Each helper takes the precision and rounding that mpf's operators use,
# read per call as ``mpmath.mp._prec_rounding``.  That name is private to
# mpmath, but it is the very list the operators read (through
# ``mpf._ctxdata``), and ``set_precision`` and ``mpmath.workprec`` change
# it in place, so the kernel rounds as they do at any precision.

_new = object.__new__
_MINUS_ONE, _TWO, _THREE, _TWENTY_SEVEN = from_int(-1), from_int(2), from_int(3), from_int(27)


def _epsilon(prec):
    return mpf_shift(fone, 8 - prec)


def _wrap(v) -> mpf:
    x = _new(mpf)
    x._mpf_ = v
    return x


def _is_float(m: Mat3) -> bool:
    """Whether every entry of m is an mpf (not a subclass, not a constant).
    The hot callers test ``type(m[0][0]) is mpf`` first, so exact input
    pays one type test and no call."""
    return all(type(x) is mpf for row in m for x in row)


def _raw(m: Mat3) -> list:
    return [[x._mpf_ for x in row] for row in m]


def _max(a, b):
    """max(a, b) of two raw values, as Python's max picks."""
    return b if mpf_gt(b, a) else a


def _dot(u, v, prec, rnd):
    # u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    return mpf_add(
        mpf_add(mpf_mul(u[0], v[0], prec, rnd), mpf_mul(u[1], v[1], prec, rnd), prec, rnd),
        mpf_mul(u[2], v[2], prec, rnd),
        prec,
        rnd,
    )


def _minor(a, b, c, d, prec, rnd):
    # a * b - c * d
    return mpf_sub(mpf_mul(a, b, prec, rnd), mpf_mul(c, d, prec, rnd), prec, rnd)


def _det3(r, prec, rnd):
    (a, b, c), (d, e, f), (g, h, i) = r
    # a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return mpf_add(
        mpf_sub(
            mpf_mul(a, _minor(e, i, f, h, prec, rnd), prec, rnd),
            mpf_mul(b, _minor(d, i, f, g, prec, rnd), prec, rnd),
            prec,
            rnd,
        ),
        mpf_mul(c, _minor(d, h, e, g, prec, rnd), prec, rnd),
        prec,
        rnd,
    )


def _second_symmetric(r, prec, rnd):
    (a, b, c), (d, e, f), (g, h, i) = r
    # a * e + e * i + i * a - b * d - f * h - c * g
    s = mpf_add(mpf_mul(a, e, prec, rnd), mpf_mul(e, i, prec, rnd), prec, rnd)
    s = mpf_add(s, mpf_mul(i, a, prec, rnd), prec, rnd)
    s = mpf_sub(s, mpf_mul(b, d, prec, rnd), prec, rnd)
    s = mpf_sub(s, mpf_mul(f, h, prec, rnd), prec, rnd)
    return mpf_sub(s, mpf_mul(c, g, prec, rnd), prec, rnd)


def _adjugate(r, prec, rnd):
    (a, b, c), (d, e, f), (g, h, i) = r
    return (
        (
            _minor(e, i, f, h, prec, rnd),
            _minor(c, h, b, i, prec, rnd),
            _minor(b, f, c, e, prec, rnd),
        ),
        (
            _minor(f, g, d, i, prec, rnd),
            _minor(a, i, c, g, prec, rnd),
            _minor(c, d, a, f, prec, rnd),
        ),
        (
            _minor(d, h, e, g, prec, rnd),
            _minor(b, g, a, h, prec, rnd),
            _minor(a, e, b, d, prec, rnd),
        ),
    )


def _is_singular(r, d, prec, rnd) -> bool:
    # abs(d) <= float_epsilon() * max(max(abs(x) for x in m) ** 3, mpf(1))
    big = None
    for row in r:
        for x in row:
            x = mpf_abs(x, prec, rnd)
            big = x if big is None else _max(big, x)
    bound = mpf_mul(_epsilon(prec), _max(mpf_pow_int(big, 3, prec, rnd), fone), prec, rnd)
    return mpf_le(mpf_abs(d, prec, rnd), bound)


def _real_cbrt(x, prec, rnd):
    # mpmath.cbrt(x) if x >= 0 else -mpmath.cbrt(-x)
    if mpf_ge(x, fzero):
        return mpmath.cbrt(_wrap(x))._mpf_
    return mpf_neg(mpmath.cbrt(_wrap(mpf_neg(x, prec, rnd)))._mpf_, prec, rnd)


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
    return (flat[:3], flat[3:6], flat[6:])


def vec_exact_reduce(u) -> tuple:
    """Canonical coprime-integer representative of an exact nonzero
    vector of any length (up to positive scale); keeps rational
    computations on small integers instead of compounding denominators."""
    if len(u) == 3:
        x, y, z = u
        if type(x) is int and type(y) is int and type(z) is int:
            g = math.gcd(x, y, z)
            return (x // g, y // g, z // g) if g > 1 else (x, y, z)
    if not all(type(x) is int for x in u):
        scale = math.lcm(*(x.denominator for x in u))
        u = [x.numerator * (scale // x.denominator) for x in u]
    g = math.gcd(*u)
    return tuple([x // g for x in u]) if g > 1 else tuple(u)


# ---------------------------------------------------------------------------
# matrices


def mat_vec(m: Mat3, v: Vec3) -> Vec3:
    if type(m[0][0]) is mpf and _is_float(m) and all(type(x) is mpf for x in v):
        prec, rnd = mpmath.mp._prec_rounding
        rv = (v[0]._mpf_, v[1]._mpf_, v[2]._mpf_)
        return tuple([_wrap(_dot([x._mpf_ for x in row], rv, prec, rnd)) for row in m])
    (a, b, c), (d, e, f), (g, h, i) = m
    x, y, z = v
    return (a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z)


def mat_transpose(m: Mat3) -> Mat3:
    return (
        (m[0][0], m[1][0], m[2][0]),
        (m[0][1], m[1][1], m[2][1]),
        (m[0][2], m[1][2], m[2][2]),
    )


def mat_mul(a: Mat3, b: Mat3) -> Mat3:
    if type(a[0][0]) is mpf and _is_float(a) and _is_float(b):
        prec, rnd = mpmath.mp._prec_rounding
        cols = [[x._mpf_ for x in col] for col in zip(*b)]
        out = []
        for row in a:
            r = [x._mpf_ for x in row]
            out.append(tuple([_wrap(_dot(r, c, prec, rnd)) for c in cols]))
        return tuple(out)
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
    (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
    return (
        (a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8),
        (a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8),
        (a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8),
    )


def mat_scale(m: Mat3, c) -> Mat3:
    return tuple(tuple(x * c for x in row) for row in m)


def mat_sub(a: Mat3, b: Mat3) -> Mat3:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def second_symmetric(m: Mat3):
    """Sum of the principal 2x2 minors, the coefficient e2 of the
    characteristic polynomial x^3 - tr x^2 + e2 x - det."""
    if type(m[0][0]) is mpf and _is_float(m):
        return _wrap(_second_symmetric(_raw(m), *mpmath.mp._prec_rounding))
    return (
        m[0][0] * m[1][1]
        + m[1][1] * m[2][2]
        + m[2][2] * m[0][0]
        - m[0][1] * m[1][0]
        - m[1][2] * m[2][1]
        - m[0][2] * m[2][0]
    )


def det3(m: Mat3):
    if type(m[0][0]) is mpf and _is_float(m):
        return _wrap(_det3(_raw(m), *mpmath.mp._prec_rounding))
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def adjugate(m: Mat3) -> Mat3:
    if type(m[0][0]) is mpf and _is_float(m):
        adj = _adjugate(_raw(m), *mpmath.mp._prec_rounding)
        return tuple(tuple([_wrap(x) for x in row]) for row in adj)
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
    return vec_is_exact(m[0]) and vec_is_exact(m[1]) and vec_is_exact(m[2])


def mat_to_mpf(m: Mat3) -> Mat3:
    return tuple(tuple(to_mpf(x) for x in row) for row in m)


def mat_as_mpf(m: Mat3) -> Mat3:
    """m itself when every entry is an mpf, else ``mat_to_mpf(m)``."""
    return m if _is_float(m) else mat_to_mpf(m)


def is_singular(m: Mat3, d) -> bool:
    """Whether d = det(m) counts as zero.

    Exactly zero in exact mode (an exact d comes only from an exact m);
    otherwise d is an mpf and the test is |d| <= float_epsilon() *
    max(max|m|^3, 1), with m converted by ``mat_to_mpf`` if it is not all
    mpf.
    """
    if is_exact(d):
        return d == 0
    return _is_singular(_raw(mat_as_mpf(m)), d._mpf_, *mpmath.mp._prec_rounding)


def mat_inverse(m: Mat3) -> Mat3:
    """Inverse via the adjugate; exact in rational mode, and in float
    mode for any other matrix, converted by ``mat_to_mpf`` if it is not
    all mpf.

    Raises SingularMatrix when ``is_singular`` holds for det(m).
    """
    if not _is_float(m):
        if mat_is_exact(m):
            d = det3(m)
            if d == 0:
                raise SingularMatrix("matrix determinant is zero at the working precision")
            dd = Fraction(d)
            return tuple(tuple(Fraction(x) / dd for x in row) for row in adjugate(m))
        m = mat_to_mpf(m)
    prec, rnd = mpmath.mp._prec_rounding
    r = _raw(m)
    d = _det3(r, prec, rnd)
    if _is_singular(r, d, prec, rnd):
        raise SingularMatrix("matrix determinant is zero at the working precision")
    # mat_scale(adjugate(m), 1 / d)
    inv = mpf_rdiv_int(1, d, prec, rnd)
    adj = _adjugate(r, prec, rnd)
    return tuple(tuple([_wrap(mpf_mul(x, inv, prec, rnd)) for x in row]) for row in adj)


def normalize_det_one(m: Mat3) -> Mat3:
    """Scale m by the real cube root of its determinant so det = 1.

    The result is in float mode: a matrix with an entry that is not an
    mpf is converted with ``mat_to_mpf`` first.  Raises SingularMatrix
    when ``is_singular`` holds for det(m).
    """
    prec, rnd = mpmath.mp._prec_rounding
    r = _raw(mat_as_mpf(m))
    d = _det3(r, prec, rnd)
    if _is_singular(r, d, prec, rnd):
        raise SingularMatrix("matrix determinant is zero at the working precision")
    c = _real_cbrt(d, prec, rnd)
    return tuple(tuple([_wrap(mpf_div(x, c, prec, rnd)) for x in row]) for row in r)


# ---------------------------------------------------------------------------
# scaled-integer kernel for projective product chains (see the module
# docstring): a matrix is nine ints, row by row, times one power of two
# that is never stored, since everything read from a chain is projective

# bits kept beyond the working precision: one product's rounding is at
# most 2^-17 units of 2^-prec, normwise, so a chain's roundings add up
# far below one unit
SCALED_GUARD_BITS = 16


def to_scaled(values) -> tuple:
    """Ints with one shared scale for a sequence of mpf (a matrix row by
    row, or a vector): the scale is the power of two that leaves the
    largest |value| ``mp.prec`` + ``SCALED_GUARD_BITS`` bits, and each
    value is rounded to it as ``scaled_mul`` rounds, to nearest with ties
    up."""
    raw = [x._mpf_ for x in values]
    top = max((exp + bc for _, man, exp, bc in raw if man), default=0)
    bottom = top - mpmath.mp.prec - SCALED_GUARD_BITS
    out = []
    for sign, man, exp, _ in raw:
        v = -int(man) if sign else int(man)
        shift = exp - bottom
        out.append(v << shift if shift >= 0 else (v + (1 << (-shift - 1))) >> -shift)
    return tuple(out)


def scaled_mul(a: tuple, b: tuple) -> tuple:
    """Product of two scaled matrices, formed exactly and rounded once to
    ``mp.prec`` + ``SCALED_GUARD_BITS`` bits of its largest entry: every
    entry is shifted alike and rounded to nearest, ties up.  A product
    with fewer bits stays exact."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    c = (
        a0 * b0 + a1 * b3 + a2 * b6,
        a0 * b1 + a1 * b4 + a2 * b7,
        a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6,
        a3 * b1 + a4 * b4 + a5 * b7,
        a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6,
        a6 * b1 + a7 * b4 + a8 * b7,
        a6 * b2 + a7 * b5 + a8 * b8,
    )
    shift = max(max(c), -min(c)).bit_length() - mpmath.mp.prec - SCALED_GUARD_BITS
    if shift <= 0:
        return c
    half = 1 << (shift - 1)
    return tuple([(x + half) >> shift for x in c])


def scaled_to_mat(a: tuple) -> Mat3:
    """The mpf matrix of a scaled matrix, each entry rounded once."""
    prec, rnd = mpmath.mp._prec_rounding
    return tuple(tuple([_wrap(from_int(x, prec, rnd)) for x in a[i: i + 3]]) for i in (0, 3, 6))


# ---------------------------------------------------------------------------
# eigenvalues of 3x3 matrices (float mode)

# Moduli whose ratio exceeds 1 + this are considered distinct.  Inside the
# admissible region gaps sit far above it: the least scan min_gap over
# the first 150 certify ops of each of the benchmark's anosov_float
# streams 1-10 (maxlen 10, 128 bits) is 1.590.  Below it is rounding noise
# of long words' spectra: the float gaps of the words of one class of
# loxodromy_scan differ by a relative 1.3e-9 at 53 bits and 3.7e-10 at 64
# bits (7.2e-30 at 128, 1.5e-70 at 256) on 30 drawn points at maxlen 10,
# which is why the scan solves each class once, at a shortest word.  At
# an exact deformation the scan's verdict comes from the exact cubic and
# never reads this margin.  A float deformation on the region boundary,
# where parabolic words have gap 1, is a known limit below 128 bits:
# at lambda = 0, moduli (3/10, -1/5) and maxlen 12, 53 bits flag 24 of
# the 28 non-loxodromic words.
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


@cache
def _complex_margin(prec, rnd):
    # -mpf("1e-24"), parsed once per precision
    return mpf_neg(from_str("1e-24", prec, rnd), prec, rnd)


def _cubic_real_roots(c2, c1, c0, eps, prec, rnd):
    """All real roots of x^3 + c2 x^2 + c1 x + c0, with multiplicity, on
    raw values; eps is float_epsilon().

    Depressed-cubic closed form; raises ComplexSpectrum when the cubic
    has a genuinely complex pair.
    """
    shift = mpf_div(c2, _THREE, prec, rnd)
    # p = c1 - c2 * c2 / 3
    p = mpf_sub(c1, mpf_div(mpf_mul(c2, c2, prec, rnd), _THREE, prec, rnd), prec, rnd)
    # q = c0 - c1 * c2 / 3 + 2 * c2**3 / 27
    q = mpf_add(
        mpf_sub(c0, mpf_div(mpf_mul(c1, c2, prec, rnd), _THREE, prec, rnd), prec, rnd),
        mpf_div(mpf_mul_int(mpf_pow_int(c2, 3, prec, rnd), 2, prec, rnd), _TWENTY_SEVEN, prec, rnd),
        prec,
        rnd,
    )
    # disc = -4 * p**3 - 27 * q * q
    disc = mpf_sub(
        mpf_mul_int(mpf_pow_int(p, 3, prec, rnd), -4, prec, rnd),
        mpf_mul(mpf_mul_int(q, 27, prec, rnd), q, prec, rnd),
        prec,
        rnd,
    )
    abs_p, abs_q = mpf_abs(p, prec, rnd), mpf_abs(q, prec, rnd)
    # scale = max(abs(p) ** 3, q * q, mpf(1))
    scale = _max(_max(mpf_pow_int(abs_p, 3, prec, rnd), mpf_mul(q, q, prec, rnd)), fone)
    if mpf_lt(disc, mpf_mul(_complex_margin(prec, rnd), scale, prec, rnd)):
        raise ComplexSpectrum("characteristic cubic has non-real roots")
    # abs(p) <= eps * max(abs(q) ** 2 / 3, mpf(1)) and abs(q) <= eps
    flat = _max(mpf_div(mpf_pow_int(abs_q, 2, prec, rnd), _THREE, prec, rnd), fone)
    if mpf_le(abs_p, mpf_mul(eps, flat, prec, rnd)) and mpf_le(abs_q, eps):
        roots = [fzero] * 3
    elif mpf_le(disc, fzero):
        # borderline: a repeated root
        u = _real_cbrt(mpf_div(mpf_neg(q, prec, rnd), _TWO, prec, rnd), prec, rnd)
        neg_u = mpf_neg(u, prec, rnd)
        roots = [mpf_mul_int(u, 2, prec, rnd), neg_u, neg_u]
    else:
        # r = 2 * sqrt(-p / 3)
        r = mpmath.sqrt(_wrap(mpf_div(mpf_neg(p, prec, rnd), _THREE, prec, rnd)))._mpf_
        r = mpf_mul_int(r, 2, prec, rnd)
        # theta = acos(min(max(3 * q / (p * r), -1), 1))
        c = mpf_div(mpf_mul_int(q, 3, prec, rnd), mpf_mul(p, r, prec, rnd), prec, rnd)
        c = _max(c, _MINUS_ONE)
        c = fone if mpf_lt(fone, c) else c
        third = mpf_div(mpmath.acos(_wrap(c))._mpf_, _THREE, prec, rnd)
        two_pi = mpf_mul_int(mpf_pi(prec, rnd), 2, prec, rnd)
        # r * cos(theta / 3 - 2 * pi * k / 3)
        roots = []
        for k in range(3):
            angle = mpf_div(mpf_mul_int(two_pi, k, prec, rnd), _THREE, prec, rnd)
            angle = mpf_sub(third, angle, prec, rnd)
            roots.append(mpf_mul(r, mpmath.cos(_wrap(angle))._mpf_, prec, rnd))
    return [mpf_sub(x, shift, prec, rnd) for x in roots]


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


def eigen_real(m: Mat3) -> EigenResult:
    """Real eigen-decomposition of a 3x3 matrix in float mode.

    Closed-form roots of the characteristic cubic and two Newton
    polishing steps; the eigenvectors (``EigenResult.pairs``) come from
    cross products of rows of (m - lam I) when first read.
    """
    m = mat_to_mpf(m)
    prec, rnd = mpmath.mp._prec_rounding
    r = _raw(m)
    eps = _epsilon(prec)
    trace = mpf_add(mpf_add(r[0][0], r[1][1], prec, rnd), r[2][2], prec, rnd)
    e2 = _second_symmetric(r, prec, rnd)
    d = _det3(r, prec, rnd)
    # characteristic polynomial: x^3 - tr x^2 + e2 x - det
    roots = _cubic_real_roots(mpf_neg(trace, prec, rnd), e2, mpf_neg(d, prec, rnd), eps, prec, rnd)

    two_trace = mpf_mul_int(trace, 2, prec, rnd)
    polished = []
    for x in roots:
        for _ in range(2):
            # the derivative 3 * x * x - 2 * trace * x + e2
            dp = mpf_mul(mpf_mul_int(x, 3, prec, rnd), x, prec, rnd)
            dp = mpf_add(mpf_sub(dp, mpf_mul(two_trace, x, prec, rnd), prec, rnd), e2, prec, rnd)
            if mpf_gt(mpf_abs(dp, prec, rnd), eps):
                # x - (x**3 - trace * x * x + e2 * x - d) / dp
                px = mpf_mul(mpf_mul(trace, x, prec, rnd), x, prec, rnd)
                px = mpf_sub(mpf_pow_int(x, 3, prec, rnd), px, prec, rnd)
                px = mpf_sub(mpf_add(px, mpf_mul(e2, x, prec, rnd), prec, rnd), d, prec, rnd)
                x = mpf_sub(x, mpf_div(px, dp, prec, rnd), prec, rnd)
        polished.append(x)

    moduli = sorted(_wrap(mpf_abs(x, prec, rnd)) for x in polished)
    m0, m1, m2 = (x._mpf_ for x in moduli)
    floor = _max(mpf_mul(m2, eps, prec, rnd), eps)
    gaps = (
        _wrap(mpf_div(m1, _max(m0, floor), prec, rnd)),
        _wrap(mpf_div(m2, _max(m1, floor), prec, rnd)),
    )
    roots = tuple(_wrap(x) for x in polished)
    return EigenResult(matrix=m, roots=roots, moduli=tuple(moduli), gaps=gaps)


# ---------------------------------------------------------------------------
# generic dense helpers (small n, used by the variety and extension checks)

# A float column whose pivot is at most this times max(max|entry|, 1) is
# free.  On the extension curve delta is solved only to CURVE_TOL = 1e-12
# in h, so the conjugation system keeps a last relative pivot of that
# order: at most 5.9e-13 on 40 curve points (tenths moduli, epsilon in
# [-0.1, -0.01], 53 to 256 bits).  Systems without a kernel keep every
# relative pivot above 1.4e-3: the 187 such systems of acceptance test 7,
# and the curve's system at delta = 0.5 (3.8e-2).  1e-9 lies more than
# three decades above the one and six below the other.
NULLSPACE_REL_TOL = mpf("1e-9")


def _raw_rows(rows) -> list:
    return [[(x if isinstance(x, mpf) else to_mpf(x))._mpf_ for x in row] for row in rows]


def _row_echelon(a, floor, prec, rnd) -> tuple:
    """Gaussian elimination of the raw rows a, in place, to row echelon
    form; returns (the pivot columns, the number of row swaps).

    The pivot of each column is the first entry of maximal |value| among
    the rows not yet used, as ``max`` picks it.  A column whose pivot is
    at most ``floor`` is free and uses no row.  Each step makes the libmp
    calls of the operator expressions in the comments (see the module
    docstring); the entries under a pivot are left in place, as nothing
    reads them again.
    """
    nrows, ncols = len(a), len(a[0])
    pivots, swaps = [], 0
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        # max(range(r, nrows), key=lambda i: abs(a[i][col]))
        piv, top = r, mpf_abs(a[r][col], prec, rnd)
        for i in range(r + 1, nrows):
            x = mpf_abs(a[i][col], prec, rnd)
            if mpf_gt(x, top):
                piv, top = i, x
        if mpf_le(top, floor):
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            swaps += 1
        top_row = a[r]
        inv = mpf_rdiv_int(1, top_row[col], prec, rnd)
        for row in a[r + 1:]:
            f = mpf_mul(row[col], inv, prec, rnd)
            if mpf_eq(f, fzero):
                continue
            for c in range(col + 1, ncols):
                # row[c] -= f * top_row[c]
                row[c] = mpf_sub(row[c], mpf_mul(f, top_row[c], prec, rnd), prec, rnd)
        pivots.append(col)
    return pivots, swaps


def det_n(rows) -> mpf:
    """Determinant of a square matrix by Gaussian elimination in mpf: the
    product of the pivots of ``_row_echelon`` with floor zero, on a copy
    of the rows."""
    prec, rnd = mpmath.mp._prec_rounding
    a = _raw_rows(rows)
    pivots, swaps = _row_echelon(a, fzero, prec, rnd)
    if len(pivots) < len(a):
        return mpf(0)
    det = fone
    for i, row in enumerate(a):
        det = mpf_mul(det, row[i], prec, rnd)
    # a swap negates the product so far; rounding to nearest commutes with it
    return _wrap(mpf_neg(det) if swaps % 2 else det)


def nullspace(rows) -> list:
    """Basis of the nullspace of a (possibly non-square) matrix, one
    vector per free column, with 1 at that column and 0 at the other free
    columns.

    The rows are reduced in mpf, whatever their entries, by
    ``_row_echelon`` with the floor NULLSPACE_REL_TOL * max(max|entry|,
    1), and each vector is solved for by back-substitution.
    """
    prec, rnd = mpmath.mp._prec_rounding
    a = _raw_rows(rows)
    big = reduce(_max, (mpf_abs(x, prec, rnd) for row in a for x in row), fone)
    ncols = len(a[0])
    pivots, _ = _row_echelon(a, mpf_mul(NULLSPACE_REL_TOL._mpf_, big, prec, rnd), prec, rnd)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [fzero] * ncols
        v[free] = fone
        for row, col in reversed(list(zip(a, pivots))):
            # v[col] = -sum(row[c] * v[c] for c in range(col + 1, ncols)) / row[col]
            s = fzero
            for c in range(col + 1, ncols):
                s = mpf_add(s, mpf_mul(row[c], v[c], prec, rnd), prec, rnd)
            v[col] = mpf_neg(mpf_div(s, row[col], prec, rnd))
        basis.append(tuple([_wrap(x) for x in v]))
    return basis
