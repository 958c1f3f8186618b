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
convert any other with ``mat_to_mpf``, and ``normalize_det_one`` converts
any matrix that is not all mpf; all three then make the libmp calls of
their operator formulas.  Each call rounds once, as the operator does,
so the results are bit-identical to the operator path, without an mpf
object per intermediate value.  ``det_n`` and ``nullspace`` share one
raw n x n elimination, in mpf whatever their rows hold.  A function keeps
a raw path where a benchmark workload calls it on mpf input 4 to 82
times per op at 128 bits, or shares its raw core with one that does
(``is_singular``, ``nullspace``).  Per call at 128 bits the raw path is
1.1-1.25 times as fast as the operators for the products, ``det3``,
``adjugate`` and ``second_symmetric``, 1.3 for ``normalize_det_one``, 1.45
for ``mat_inverse`` and 2.5 for ``det_n``; ``variety``'s inverses and
normalizations are why it stays: ``variety --grid 3`` takes 46-49 ms, and
51-54 ms with every 3x3 function on the operators.  ``eigen_real`` runs about once per
``anosov_float`` op, as the gap filter decides the other verdicts: it is
written with the operators.

Scaled-integer kernel, the one exception to bit identity.  A long chain
of products read only projectively (``anosov_lab.limit_point``) runs on
matrices of nine ints that share one power-of-two scale, which is not
stored.  ``to_scaled`` converts mpf values to that form; ``scaled_mul``
forms a product exactly and rounds it once, to ``mp.prec`` +
``SCALED_GUARD_BITS`` bits of its largest entry; ``scaled_to_mat``
converts back to mpf, one rounding per entry.  The chain's stopping
test converts nothing: it decides on the exact ints of the corner
images (``anosov_lab._stop_pairs``).  The products are bounded, not
bit-identical to mpf's operators: a chain of 60 products stays within
2^-prec, normwise and projectively, of the exact chain of the same
converted factors (measured at most 0.00025 units of 2^-prec at 53 to
256 bits, where the mpf chain drifts 8 to 10 units), and scaling every
factor by a power of two changes no bit.  The same rounding, by
``to_scaled``, turns float coordinates into the coprime ints of every
``projective`` point and line.

Gap filter (Shewchuk 1997).  ``gap_bounds`` brackets both moduli gaps of
a matrix by float64 roots of its exact integer cubic, each root proved by
the cubic's exact signs; under a conditioning requirement, derived at
``GAP_FILTER_BOUND``, mpf's gaps lie in those brackets widened by it.
Callers take only verdicts and minimum candidates from them, and solve
in mpf where they do not decide, so no output bit changes.

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
from functools import cached_property, reduce
from fractions import Fraction

import mpmath
from mpmath import mpf
from mpmath.libmp import (
    fone,
    from_int,
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_eq,
    mpf_gt,
    mpf_le,
    mpf_mul,
    mpf_neg,
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


def char_cubic(m: Mat3) -> tuple:
    """(t, s, d) of the characteristic cubic x^3 - t x^2 + s x - d of m: its
    trace, ``second_symmetric`` and determinant."""
    return m[0][0] + m[1][1] + m[2][2], second_symmetric(m), det3(m)


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
    # c = mpmath.cbrt(d) if d >= 0 else -mpmath.cbrt(-d); d[0] is its sign
    c = mpmath.cbrt(_wrap(mpf_abs(d)))._mpf_
    c = mpf_neg(c) if d[0] else c
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


def to_exact_scaled(values) -> tuple:
    """(ints, e) for a sequence of mpf: each value is its int times 2^e,
    exactly, with e the least exponent among them."""
    raw = [x._mpf_ for x in values]
    low = min((exp for _, man, exp, _ in raw if man), default=0)
    return [(-man if sign else man) << (exp - low) if man else 0 for sign, man, exp, _ in raw], low


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
# which is why the scan solves each class once, at a shortest word.  The
# gap filter decides only past this margin times 1 + GAP_FILTER_BOUND, so
# as mpf does.  At an exact deformation the scan's verdict comes from the
# exact cubic and never reads this margin.  A float deformation on the
# region boundary, where parabolic words have gap 1, is a known limit
# below 128 bits: at lambda = 0, moduli (3/10, -1/5) and maxlen 12, 53
# bits flag 24 of the 28 non-loxodromic words.
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
    """All real roots of x^3 + c2 x^2 + c1 x + c0, with multiplicity, by the
    depressed-cubic closed form; ComplexSpectrum for a complex pair."""
    shift = c2 / 3
    p = c1 - c2 * c2 / 3
    q = c0 - c1 * c2 / 3 + 2 * c2**3 / 27
    disc = -4 * p**3 - 27 * q * q
    scale = max(abs(p) ** 3, q * q, mpf(1))
    # The complex-pair margin.  A repeated real root has disc = 0, which
    # rounding leaves of either sign: at lambda = 0 (float), moduli (3/10,
    # -1/5), the 224 scan words of maxlen 12 reach disc/scale -4.0e-13 at 53
    # bits, -1.4e-16 at 64 and -6.9e-36 at 128.  So 10 words at 53 bits and
    # 11 at 64, each of exact disc 0 (at u = v = 1), raise ComplexSpectrum:
    # a known limit below 128 bits (ROADMAP item 8).
    if disc < -mpf("1e-24") * scale:
        raise ComplexSpectrum("characteristic cubic has non-real roots")
    eps = float_epsilon()
    if abs(p) <= eps * max(abs(q) ** 2 / 3, mpf(1)) and abs(q) <= eps:
        roots = [mpf(0)] * 3
    elif disc <= 0:
        # borderline: a repeated root
        u = -q / 2
        u = mpmath.cbrt(u) if u >= 0 else -mpmath.cbrt(-u)
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


def eigen_real(m: Mat3) -> EigenResult:
    """Real eigen-decomposition of a 3x3 matrix in float mode.

    Closed-form roots of the characteristic cubic and two Newton
    polishing steps; the eigenvectors (``EigenResult.pairs``) come from
    cross products of rows of (m - lam I) when first read.
    """
    m = mat_to_mpf(m)
    trace, e2, d = char_cubic(m)
    roots = _cubic_real_roots(-trace, e2, -d)

    eps = float_epsilon()
    polished = []
    for x in roots:
        for _ in range(2):
            dp = 3 * x * x - 2 * trace * x + e2
            if abs(dp) > eps:
                x = x - (x**3 - trace * x * x + e2 * x - d) / dp
        polished.append(x)

    moduli = tuple(sorted(abs(x) for x in polished))
    floor = max(moduli[2] * eps, eps)
    gaps = (moduli[1] / max(moduli[0], floor), moduli[2] / max(moduli[1], floor))
    return EigenResult(matrix=m, roots=tuple(polished), moduli=moduli, gaps=gaps)


# The gap filter.  For an int matrix g times a positive scale (a power of two
# for an mpf image, one over the common denominator for an exact one; only
# is_singular reads it, below) of max |entry| M and det d, normalize_det_one
# forms n = g / c of max |entry| N, with N^3 = M^3 / |d|.  Let u = 2^-prec,
# m0 < m1 < m2 the moduli of n's roots l_i (product 1, m2 <= 3N) and
# D = (1 - m0/m1)(1 - m1/m2): |l_i - l_j| >= m_i D.
# - eigen_real's coefficients of p, and its values of p in the Newton steps,
#   sum terms of at most 2^7.2 N^3 on |x| <= 4N, with at most 10 roundings
#   each (an entry's own, the division by c, which scales n and moves no
#   gap, the operations'): p moves by at most 2^11 u N^3 (Higham 2002, 3.1).
#   An exact image's rationals, rounded to nearest by mat_to_mpf, take that
#   first rounding, of relative size at most u, so they are covered too.
# - By Rouche's theorem such a cubic keeps one root, real, within relative
#   theta = 2^12 u N^3 / D of each l_i if theta <= D/4, and the last Newton
#   step lands within 2 theta.  The discriminant errs by at most 2^14 u m2^6,
#   below its value m1^2 m2^4 D^3 if D^3 > 2^19 u N^3 (as (m2/m1)^2 <= 27 N^3):
#   the three-root branch is taken, and Newton's |p'| >= D / 3N > 2^(8-prec).
# So |d| >= 2^(c-prec) M^3 / slack, with slack = D^3 and c = 52 (51, and one
# for its float test), puts each mpf gap within 2^-38 + u of the exact one;
# the rest of GAP_FILTER_BOUND = 2^-36 covers the float rounding of the
# bounds.  As |d| >> 2^(8-prec) M^3, is_singular fails where max|g| >= 1.
GAP_FILTER_BOUND = 2.0**-36
_BRACKET = 2.0**-30


def _cubic_sign(t, s, d, x, k):
    """Sign of X^3 - t X^2 + s X - d at X = 2^k x, exactly, for a double x."""
    n, den = x.as_integer_ratio()
    a = n << k
    v = ((a - t * den) * a + s * den * den) * a - d * den**3
    return (v > 0) - (v < 0)


def gap_bounds(t: int, s: int, d: int, big: int):
    """Bounds ((lo, hi), (lo, hi)) on both moduli gaps of x^3 - t x^2 + s x - d,
    the cubic of an int matrix g of max |entry| big, or None.  Each gap of
    ``eigen_real(normalize_det_one(g))``, or of g rounded once per entry,
    lies in its bracket widened by ``GAP_FILTER_BOUND`` (derived above)."""
    k, prec = big.bit_length(), mpmath.mp.prec
    tf, sf, df = t / (1 << k), s / (1 << 2 * k), d / (1 << 3 * k)
    # float roots of the cubic in x / 2^k: closed form and two Newton steps
    b = tf / 3
    p, q = sf - tf * b, b * (sf - 2 * b * b) - df
    # beyond 1000 bits 2^-prec underflows a double
    if p >= 0 or prec > 1000:
        return None
    r = 2 * math.sqrt(-p / 3)
    third = math.acos(max(-1.0, min(1.0, 3 * q / (p * r)))) / 3
    mods = []
    for i in range(3):
        x = r * math.cos(third - 2 * math.pi * i / 3) + b
        for _ in range(2):
            x -= (((x - tf) * x + sf) * x - df) / (((3 * x - 2 * tf) * x + sf) or math.inf)
        # a sign change of the exact cubic puts a root in [lo, hi]
        lo, hi = x - abs(x) * _BRACKET, x + abs(x) * _BRACKET
        if _cubic_sign(t, s, d, lo, k) * _cubic_sign(t, s, d, hi, k) >= 0:
            return None
        mods.append(tuple(sorted((abs(lo), abs(hi)))))
    # disjoint modulus brackets: three simple roots of distinct moduli
    (a0, b0), (a1, b1), (a2, b2) = sorted(mods)
    if not (b0 < a1 and b1 < a2 and a0 > b2 * 2.0 ** (9 - prec)):
        return None
    gaps = (a1 / b0, b1 / a0), (a2 / b1, b2 / a1)
    slack = ((1 - 1 / gaps[0][0]) * (1 - 1 / gaps[1][0])) ** 3
    if abs(df) * slack < 2.0 ** (52 - prec) * (big / (1 << k)) ** 3:
        return None
    return gaps


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
