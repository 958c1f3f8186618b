"""Matrix realizations of the marked-box symmetry groups.

All matrices are expressed in the normal-form basis adapted to a box
with moduli (zeta_t, zeta_b); a box in general position conjugates them
by its adapted-basis matrix.  The key families are:

- ``matrix_A``: order-3 transformation cycling the box through its
  Pappus descendants;
- ``matrix_D``: the symmetric polarity matrix swapping a box with its
  dual (positive definite exactly for convex moduli);
- ``matrix_B``: the deformed conjugate Sigma^-1 D^-1 tA^-1 D Sigma, with
  Sigma = ``Lambda.sigma`` the two-parameter deformation.

A ``Representation`` is the representation rho^lambda of the
even-involution subgroup at one parameter point (moduli, lambda): it
builds A and B^lambda once (and the letter and step-word images when
first asked), and ``evaluate(rep, w)`` maps words to plain matrices
through it.  ``evaluate_schwartz`` maps words of the whole group to
point/duality symmetries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import mpmath
from mpmath import mpf

from . import boxes as bx
from . import modular as md
from . import projective as pj
from . import scalars as sc
from .boxes import LAMBDA_ZERO, BoxModuli, Lambda, OvermarkedBox
from .errors import (
    AmbiguousS,
    InternalInconsistency,
    NoBracket,
    NoSolution,
    NotARotation,
    NotInSubgroupO,
    PrecisionMismatch,
    SingularMatrix,
    SpecialBox,
    ToleranceBelowPrecision,
)
from .modular import GroupWord


# ---------------------------------------------------------------------------
# matrix families


def matrix_A(m: BoxModuli) -> tuple:
    """Order-3 transformation matrix in the box-adapted basis."""
    zt, zb = m.zeta_t, m.zeta_b
    return (
        (zt * zb - 1, zt * (1 - zt * zb), zb - zt),
        (zb - zt, 1 - zt * zb, zt * zb - 1),
        (0, 1 - zt * zt, 0),
    )


def matrix_D(m: BoxModuli) -> tuple:
    """Symmetric polarity matrix; positive definite iff the moduli are
    convex."""
    zt, zb = m.zeta_t, m.zeta_b
    return (
        (1, -zt, -zb),
        (-zt, 1, zt * zb),
        (-zb, zt * zb, 1),
    )


def _cleared(m: tuple) -> tuple:
    """(n, n m) for an exact m, with n the lcm of its denominators."""
    n = math.lcm(*(x.denominator for row in m for x in row))
    return n, tuple(tuple(x.numerator * (n // x.denominator) for x in row) for row in m)


def matrix_B0(m: BoxModuli) -> tuple:
    """Undeformed image of the conjugated generator: D^-1 tA^-1 D.

    At rational moduli, with A = A'/n and D = D'/n' integral, it is
    n adj(D') t(adj A') D' / (det D' det A'): integer products, and one
    division per entry."""
    a, d = matrix_A(m), matrix_D(m)
    if not (sc.mat_is_exact(a) and sc.mat_is_exact(d)):
        a, d = sc.mat_as_mpf(a), sc.mat_as_mpf(d)
        return sc.mat_mul(
            sc.mat_mul(sc.mat_inverse(d), sc.mat_inverse(sc.mat_transpose(a))), d
        )
    (n, a), (_, d) = _cleared(a), _cleared(d)
    det_d, det_a = sc.det3(d), sc.det3(a)
    if det_d == 0 or det_a == 0:
        raise SingularMatrix("matrix determinant is zero at the working precision")
    num = sc.mat_mul(sc.mat_mul(sc.adjugate(d), sc.mat_transpose(sc.adjugate(a))), d)
    den = det_d * det_a
    return tuple(tuple(Fraction(n * x, den) for x in row) for row in num)


def sigma_conjugate(b0: tuple, lam: Lambda) -> tuple:
    """Sigma^-1 b0 Sigma, with Sigma = ``lam.sigma``, whose scale cancels."""
    sig = lam.sigma
    if not (sc.mat_is_exact(sig) and sc.mat_is_exact(b0)):
        sig, b0 = sc.mat_as_mpf(sig), sc.mat_as_mpf(b0)
    return sc.mat_mul(sc.mat_mul(sc.mat_inverse(sig), b0), sig)


def matrix_B(m: BoxModuli, lam: Lambda) -> tuple:
    """Deformed generator image: Sigma^-1 D^-1 tA^-1 D Sigma."""
    return sigma_conjugate(matrix_B0(m), lam)


# ---------------------------------------------------------------------------
# word evaluation


class _PointValue(cached_property):
    """A value of a ``Representation``, built on first read and kept.  As
    a data descriptor it sees every read, and raises PrecisionMismatch for
    one at a precision other than the point's."""

    def __get__(self, rep, owner=None):
        if rep is not None and rep.prec != mpmath.mp.prec:
            raise PrecisionMismatch("built at %d bits, read at %d" % (rep.prec, mpmath.mp.prec))
        return super().__get__(rep, owner)

    def __set__(self, rep, value):
        raise AttributeError(self.attrname)


@dataclass(frozen=True)
class Representation:
    """The representation rho^lambda at one parameter point.

    The rotation generator maps to A = ``matrix_A(moduli)`` and its
    involution conjugate to B^lambda = ``matrix_B(moduli, lam)``, in the
    scalar mode of the inputs: exact for rational moduli and an exact
    deformation, and otherwise mpf, with A's rationals rounded to nearest
    by ``sc.mat_to_mpf``.  B^lambda is built with the point and the rest
    on first use, so ``obstruction`` and ``extension_intertwiner`` never
    pay for the letter and step images, and share one A B^lambda.  All
    hold the bits of the point's precision ``prec``, a float lam's own:
    reading one at another raises.
    """

    moduli: BoxModuli
    lam: Lambda
    prec: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # B^lambda is built now: at a precision not a float lam's, it raises
        object.__setattr__(self, "prec", self.lam.prec or mpmath.mp.prec)
        self.b

    @_PointValue
    def b(self) -> tuple:
        return matrix_B(self.moduli, self.lam)

    @_PointValue
    def a(self) -> tuple:
        a = matrix_A(self.moduli)
        return a if sc.mat_is_exact(self.b) else sc.mat_to_mpf(a)

    @_PointValue
    def letter_images(self) -> tuple:
        """Images of the rotation letters, indexed [parity of I letters][letter]:
        A and A^2 at even parity, B^lambda and (B^lambda)^2 at odd, all
        four in the scalar mode of ``b``."""
        a, b = self.a, self.b
        return {"R": a, "RR": sc.mat_mul(a, a)}, {"R": b, "RR": sc.mat_mul(b, b)}

    @_PointValue
    def obstruction(self) -> tuple:
        """(det(Id - A B^lambda), A B^lambda), as ``obstruction`` returns them."""
        ab = sc.mat_mul(self.a, self.b)
        return sc.det3(sc.mat_sub(sc.IDENTITY, ab)), ab

    @_PointValue
    def step_images(self) -> dict:
        """Images of the four two-crossing step words ``modular.W_STEPS``."""
        return {w: evaluate(self, w) for w in md.W_STEPS}

    @_PointValue
    def limit_setup(self):
        """``anosov_lab.limit_point``'s setup, False outside the region: the
        scaled step images and the base box's mpf b and B (its corners are
        the constant ``bx.STANDARD_CORNERS``)."""
        box = bx.from_moduli(self.moduli)
        return bx.in_region(self.lam) and (
            {s: sc.to_scaled(x for row in sc.mat_to_mpf(g) for x in row) for s, g in self.step_images.items()},
            sc.vec_to_mpf(box.b.coords), sc.vec_to_mpf(box.line_B.coords),
        )


def evaluate(rep: Representation, w: GroupWord) -> tuple:
    """Matrix image of an even-involution word under ``rep``.

    The involution letters only toggle which of A and B^lambda the
    rotation letters use, so the result is a plain matrix (no duality
    needed).  It starts at the first rotation letter's image, which the
    identity times it is exactly, in both scalar modes.
    """
    if not md.in_subgroup_o(w):
        raise NotInSubgroupO("matrix evaluation needs an even-involution word")
    images = rep.letter_images
    out = sc.IDENTITY
    parity = 0
    for let in w.letters:
        if let == "I":
            parity ^= 1
        else:
            out = images[parity][let] if out is sc.IDENTITY else sc.mat_mul(out, images[parity][let])
    return out


def evaluate_schwartz(m: BoxModuli, w: GroupWord) -> pj.ProjSymmetry:
    """Image of any word as a symmetry (transformation or polarity).

    The rotation letter maps to the transformation of ``matrix_A`` and
    the involution letter to the polarity of ``matrix_D``; the kind of
    the result matches the parity of involution letters in the word.
    """
    a = pj.transformation(matrix_A(m))
    d = pj.duality(matrix_D(m))
    out = pj.transformation(sc.IDENTITY)
    for let in w.letters:
        if let == "I":
            g = d
        elif let == "R":
            g = a
        else:
            g = a.compose(a)
        out = out.compose(g)
    return out


def xi_action(w: GroupWord, box: OvermarkedBox, lam: Lambda = LAMBDA_ZERO) -> OvermarkedBox:
    """Marked-box action of a word: the involution letter acts by the
    (deformed) box involution and the rotation letter by the order-3
    composite of involution and first descendant (independent of the
    deformation).  Rightmost letters act first."""

    def rho1(b: OvermarkedBox) -> OvermarkedBox:
        return bx.transform_i(bx.tau1(b))

    for let in reversed(w.letters):
        if let == "I":
            box = bx.i_lambda(box, lam)
        elif let == "R":
            box = rho1(box)
        else:
            box = rho1(rho1(box))
    return box


# ---------------------------------------------------------------------------
# failure of loxodromy for the undeformed representation


def non_anosov_witness(m: BoxModuli) -> tuple:
    """Pair (P, Q) with P the image of the squared translation and Q an
    explicit conjugator taking P to a non-loxodromic normal form."""
    a = matrix_A(m)
    p = sc.mat_mul(matrix_B0(m), a)
    zb = m.zeta_b
    q = ((-zb, 0, 1), (0, 2, 0), (1, 0, -zb))
    return p, q


NON_LOXODROMIC_NORMAL_FORM = ((-1, 1, 0), (0, -1, 0), (0, 0, 1))


# ---------------------------------------------------------------------------
# the extension curve


def _special_coefficient(m: BoxModuli):
    zt, zb = m.zeta_t, m.zeta_b
    return zt * zt + zb * zb - 2 * zt * zt * zb * zb


def _h_from(zt, zb, ce, se, cd, sd):
    """h from the moduli and cosh/sinh of epsilon and of delta."""
    return (zt * zt + zb * zb - 2 * zt * zt * zb * zb) * ce * sd * (
        2 * ce * cd - se
    ) - zt * zb * (zt * zt - zb * zb) * se * (ce * cd - se - 1)


def curve_h(m: BoxModuli, lam: Lambda):
    """The obstruction curve value h(epsilon, delta)."""
    zt, zb, ce, se = m.zeta_t, m.zeta_b, lam.cosh_eps, lam.sinh_eps
    cd, sd = (lam.exp_delta + lam.exp_minus_delta) / 2, (lam.exp_delta - lam.exp_minus_delta) / 2
    if not (lam.exact and sc.is_exact(zt) and sc.is_exact(zb)):
        zt, zb, ce, se, cd, sd = (sc.to_mpf(x) for x in (zt, zb, ce, se, cd, sd))
    return _h_from(zt, zb, ce, se, cd, sd)


# Fixed, not tied to float_epsilon(), so the bisection stops at the same
# step at every precision (40-41 decisions, none of which evaluates h in
# mpf, and |h| <= 2.8e-13 at both golden curve points, 53-256 bits; 2
# float_epsilon() takes 43-45 decisions at 53 bits, 247-248 at 256, where
# those past delta's 53rd bit evaluate h in mpf); 35 times
# float_epsilon(53) = 2^-45, so it runs at every precision.
CURVE_TOL = mpf("1e-12")

# The float64 filter of solve_delta_h.  cosh delta and sinh delta are
# (e^d +- e^-d)/2 from an exp within one ulp: cosh delta carries 3
# roundings, and sinh delta an absolute error of 3 roundings of cosh delta,
# as the difference cancels.  Along each monomial of _h_from act at most 22
# roundings in float64 (6 of the inputs zt, zb, ce, se, 10 operations, 3 in
# cd and 3 in sd) and 16 in mpf, so the two values of h differ by at most
# gamma_22(2^-53) M + gamma_22(2^-prec) M <= 23 (2^-53 + 2^-prec) M (Higham,
# Accuracy and Stability of Numerical Algorithms, 2002, 3.1), where M is the
# sum of the monomials' magnitudes with cosh delta in place of |sinh delta|.
# _FILTER_C is twice 23 and more, for the float rounding of M and of the
# comparisons; 2^-51 tol more covers tol's own rounding.  Inputs of
# magnitude within 2^+-_FILTER_EXP (or zero), and a tol within 2^+-1000,
# keep every float value clear of overflow and underflow.
_FILTER_C = 64
_FILTER_EXP = 100


def solve_delta_h(m: BoxModuli, epsilon, tol=CURVE_TOL) -> mpf:
    """delta with |h(epsilon, delta)| <= tol, found by bisection.

    The starting bracket is [-1, 1]; if h does not change sign there,
    the bracket is doubled twice before giving up.  A tol at or below
    ``sc.float_epsilon()`` is rejected: h is rounding noise there.

    Each decision (the sign of h, |h| <= tol) is the one that h in mpf
    gives.  It is read from h in float64 where that is certain: delta is a
    double and the float value lies farther than the bound
    ``_FILTER_C`` (2^-53 + 2^-prec) M from 0 and from tol.  Otherwise h is
    evaluated in mpf.  So the bisection and its delta are those of h in
    mpf, bit for bit.
    """
    if tol <= sc.float_epsilon():
        raise ToleranceBelowPrecision("curve tol must exceed 2^(8 - precision)")
    if _special_coefficient(m) == 0:
        raise SpecialBox("the curve is degenerate at vanishing moduli")
    # curve_h at float (epsilon, delta), with all but delta evaluated once
    zt, zb = sc.to_mpf(m.zeta_t), sc.to_mpf(m.zeta_b)
    at_eps = Lambda(epsilon=epsilon, delta=0)
    ce, se = at_eps.cosh_eps, at_eps.sinh_eps
    filtered = 2.0 ** -1000 < tol < 2.0 ** 1000 and all(
        not x or 2.0 ** -_FILTER_EXP < abs(x) < 2.0 ** _FILTER_EXP for x in (zt, zb, ce, se)
    )
    if filtered:
        ztf, zbf, cef, sef, tolf = (float(x) for x in (zt, zb, ce, se, tol))
        # M = (m2 cd + m1) cd + m0 with cd = cosh delta
        k1 = ztf * ztf + zbf * zbf + 2 * ztf * ztf * zbf * zbf
        k2 = abs(ztf * zbf) * (ztf * ztf + zbf * zbf)
        m2, m1, m0 = 2 * k1 * cef * cef, (k1 + k2) * cef * abs(sef), k2 * (sef * sef + abs(sef))
        scale = _FILTER_C * (2.0 ** -53 + 2.0 ** -mpmath.mp.prec)
        tol_slack = tolf * 2.0 ** -51

    def decide(delta) -> tuple:
        """(sign of h, |h| <= tol) at delta."""
        _, _, exp, bc = delta._mpf_
        if filtered and bc <= 53 and exp >= -1074:
            d = float(delta)
            ed, emd = math.exp(d), math.exp(-d)
            cd = (ed + emd) / 2
            hf = _h_from(ztf, zbf, cef, sef, cd, (ed - emd) / 2)
            bound = scale * ((m2 * cd + m1) * cd + m0)
            a = abs(hf)
            if a > bound and abs(a - tolf) > bound + tol_slack:
                return (1 if hf > 0 else -1), a <= tolf
        ed, emd = mpmath.exp(delta), mpmath.exp(-delta)
        h = _h_from(zt, zb, ce, se, (ed + emd) / 2, (ed - emd) / 2)
        return (h > 0) - (h < 0), abs(h) <= tol

    lo, hi = mpf(-1), mpf(1)
    slo, shi = decide(lo)[0], decide(hi)[0]
    expansions = 0
    while slo * shi > 0:
        if expansions >= 2:
            raise NoBracket("no sign change of h on the search interval")
        lo, hi = 2 * lo, 2 * hi
        slo, shi = decide(lo)[0], decide(hi)[0]
        expansions += 1
    if slo == 0:
        return lo
    if shi == 0:
        return hi
    for _ in range(mpmath.mp.prec + 60):
        mid = (lo + hi) / 2
        smid, within = decide(mid)
        if within:
            return mid
        if slo * smid < 0:
            hi = mid
        else:
            lo, slo = mid, smid
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# the extension intertwiner


_SYM_INDEX = {
    (0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2,
    (1, 1): 3, (1, 2): 4, (2, 1): 4, (2, 2): 5,
}


def _sym_from_vector(vec) -> tuple:
    s = vec
    return (
        (s[0], s[1], s[2]),
        (s[1], s[3], s[4]),
        (s[2], s[4], s[5]),
    )


def _conjugation_system(c: tuple, b: tuple):
    """Rows of the 9x6 linear system c S - S b = 0 over the six
    independent entries of a symmetric matrix S."""
    rows = []
    for i in range(3):
        for j in range(3):
            row = [0] * 6
            for k in range(3):
                row[_SYM_INDEX[(k, j)]] += c[i][k]
                row[_SYM_INDEX[(i, k)]] -= b[k][j]
            rows.append(row)
    return rows


def _residual(c, b, s) -> mpf:
    c, b, s = sc.mat_as_mpf(c), sc.mat_as_mpf(b), sc.mat_as_mpf(s)
    return sc.mat_max_abs(sc.mat_sub(sc.mat_mul(c, s), sc.mat_mul(s, b))) / sc.mat_max_abs(s)


# |det(Id - A B)| / max(max|A B|^3, 1), measured at 53, 64 and 128 bits:
# at most 3.6e-13 at the solved points of the extension curve (tenths
# moduli in [-0.8, 0.8], epsilon in {-0.05, -0.1, -0.2}), where the
# CURVE_TOL bisection leaves h that far from zero, and at most 3.3e-17
# on acceptance test 7's draws that admit an intertwiner; at least 3.5e-5
# on the draws that admit none.  1e-10 sits 2.4 decades above the first
# and 5.5 below the last.
OBSTRUCTION_REL_TOL = mpf("1e-10")


def obstruction(rep: Representation):
    """det(Id - A B) whose vanishing permits a symmetric intertwiner,
    together with the product A B, formed once per point."""
    return rep.obstruction


def _obstruction_vanishes(obs, ab) -> bool:
    """Exactly in exact mode; in float mode within OBSTRUCTION_REL_TOL
    times max(max|A B|^3, 1)."""
    if sc.is_exact(obs):
        return obs == 0
    scale = max(sc.mat_max_abs(ab) ** 3, mpf(1))
    return abs(obs) <= OBSTRUCTION_REL_TOL * scale


def extension_intertwiner(rep: Representation) -> tuple:
    """Symmetric S with tA^-1 S = S B, when one exists.

    Returns (S, residual, invertible).  For vanishing moduli the
    deformation matrix itself works; otherwise the obstruction
    determinant must vanish (within a scale-aware tolerance in float
    mode, exactly in rational mode) and S spans the nullspace of the
    9x6 conjugation system.
    """
    m, b = rep.moduli, rep.b
    c = sc.mat_inverse(sc.mat_transpose(rep.a))
    if m.zeta_t == 0 and m.zeta_b == 0:
        s = rep.lam.sigma
        return s, _residual(c, b, s), True

    obs, ab = obstruction(rep)
    if not _obstruction_vanishes(obs, ab):
        raise NoSolution("obstruction determinant is nonzero: %s" % obs)

    basis = sc.nullspace(_conjugation_system(c, b))
    if not basis:
        raise InternalInconsistency(
            "obstruction vanishes but the conjugation system has no kernel"
        )
    if len(basis) > 1:
        raise AmbiguousS([_sym_from_vector(vec) for vec in basis])
    s = _sym_from_vector(basis[0])
    return s, _residual(c, b, s), not sc.is_singular(s, sc.det3(s))


# ---------------------------------------------------------------------------
# rotation criterion


# Relative to max|root| + 1, on acceptance test 7's scaled rotations
# (angles in [0.2, 2.9]) at 53, 64 and 128 bits: the real root's
# imaginary part is 0 and ||z| - |mu|| at most 4.5e-15, while the complex
# pair's imaginary part is at least 0.091.  1e-9 sits more than five
# decades above the rounding and almost eight below the pair.
ROTATION_TOL = mpf("1e-9")

# max|(Id - a b) - a S^-1 K| / max(max|Id - a b|, 1) is at most 3.7e-16 at
# 53 bits (1.2e-38 at 128) on acceptance test 7's draws with an invertible
# S.  1e-8 sits more than seven decades above that rounding.
FACTORIZATION_REL_TOL = mpf("1e-8")


def rotation_angle(a: tuple) -> mpf:
    """Angle theta in (0, pi) of a matrix conjugate to a scaled rotation.

    The spectrum must be one real value mu and a complex pair of the
    same modulus; raises otherwise.
    """
    a = sc.mat_to_mpf(a)
    trace = a[0][0] + a[1][1] + a[2][2]
    roots = mpmath.polyroots([mpf(1), -trace, sc.second_symmetric(a), -sc.det3(a)])
    scale = max(abs(r) for r in roots) + mpf(1)
    real = [r for r in roots if abs(mpmath.im(r)) <= ROTATION_TOL * scale]
    cplx = [r for r in roots if abs(mpmath.im(r)) > ROTATION_TOL * scale]
    if len(cplx) != 2 or len(real) != 1:
        raise NotARotation("spectrum lacks a genuinely complex pair")
    mu = mpmath.re(real[0])
    z = cplx[0] if mpmath.im(cplx[0]) > 0 else cplx[1]
    if abs(abs(z) - abs(mu)) > ROTATION_TOL * scale:
        raise NotARotation("complex pair modulus differs from the real eigenvalue")
    theta = abs(mpmath.arg(z / mu))
    if not (0 < theta < mpmath.pi):
        raise NotARotation("rotation angle outside (0, pi)")
    return theta


def appendix_criterion(a: tuple, g: tuple) -> tuple:
    """Equivalence of the determinant and intertwiner criteria.

    For a scaled rotation ``a`` of angle in (0, pi) and invertible
    ``g``, with b = g^-1 ta^-1 g, checks that det(Id - a b) = 0 exactly
    when a nonzero symmetric S with ta^-1 S = S b exists, and verifies
    the antisymmetric factorization Id - a b = a S^-1 (S a^-1 - t(S a^-1))
    whenever an invertible S is found.  Returns the two booleans.
    """
    rotation_angle(a)
    af = sc.mat_to_mpf(a)
    gf = sc.mat_to_mpf(g)
    c = sc.mat_inverse(sc.mat_transpose(af))
    b = sc.mat_mul(sc.mat_mul(sc.mat_inverse(gf), c), gf)

    ab = sc.mat_mul(af, b)
    by_det = _obstruction_vanishes(sc.det3(sc.mat_sub(sc.IDENTITY, ab)), ab)

    basis = sc.nullspace(_conjugation_system(c, b))
    by_intertwiner = bool(basis)
    if by_det != by_intertwiner:
        raise InternalInconsistency(
            "determinant and intertwiner criteria disagree"
        )

    for vec in basis:
        s = _sym_from_vector(vec)
        if sc.is_singular(s, sc.det3(s)):
            continue
        # converse route: Id - a b factors through an antisymmetric matrix
        sa_inv = sc.mat_mul(s, sc.mat_inverse(af))
        k = sc.mat_sub(sa_inv, sc.mat_transpose(sa_inv))
        lhs = sc.mat_sub(sc.IDENTITY, ab)
        rhs = sc.mat_mul(sc.mat_mul(af, sc.mat_inverse(s)), k)
        gap = sc.mat_max_abs(sc.mat_sub(sc.mat_to_mpf(lhs), sc.mat_to_mpf(rhs)))
        bound = FACTORIZATION_REL_TOL * max(sc.to_mpf(sc.mat_max_abs(lhs)), mpf(1))
        if sc.to_mpf(gap) > bound:
            raise InternalInconsistency(
                "antisymmetric factorization of Id - a b failed"
            )
    return by_det, by_intertwiner
