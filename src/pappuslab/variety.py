"""Representation-variety computations for the box generator pairs.

The pairs (A, B) of determinant-one matrices with A³ = B³ = Id form a
real algebraic variety cut out by six polynomials Ψ; the generator
images of the deformed box representations live on it.  This module
evaluates Ψ and verifies two closed-form Jacobian determinants against
finite differences: the smoothness certificate at the generator pairs
and the local diffeomorphism certificate of the
moduli-deformation-conjugation parameterization.  The order-3 trace
criterion (A ≠ Id with det A = 1 has A³ = Id exactly when its trace and
second symmetric function vanish) is a fact of the theory, checked in
the tests, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mpf
from mpmath.libmp import mpf_div, mpf_mul_int, mpf_sub

from . import representation as rp
from . import scalars as sc
from .boxes import BoxModuli, Lambda, in_region
from .errors import OutsideRegion, SpecialBox

# Largest relative errors of the two certificates over the `variety` grid:
#
#   bits  grid  phi       psi
#   128   4     6.8e-12   1.2e-32
#   64    5     9.0e-12   4.1e-13
#   53    3     2.3e-10   6.0e-10
#
# Each Ψ component is linear in each single matrix entry, so its central
# difference is exact and only rounding over the step shows, about
# 2^-prec / FD_STEP.  The parameterization is not: from 64 bits up its
# error is the FD_STEP^2 = 1e-12 truncation, at 53 bits the rounding
# 2^-53 / FD_STEP = 1.1e-10.  FD_REL_TOL sits more than three decades
# above either.
FD_STEP = mpf("1e-6")
FD_REL_TOL = mpf("1e-6")

_OFF_DIAGONAL = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


@dataclass(frozen=True)
class VarietyPoint:
    """A pair of determinant-one matrices, a candidate variety point."""

    a: tuple
    b: tuple


def _psi_half(m: tuple) -> tuple:
    return (sc.det3(m) - 1, m[0][0] + m[1][1] + m[2][2], sc.second_symmetric(m))


def psi_eval(a: tuple, b: tuple) -> tuple:
    """Six defining polynomials of the order-3 pair variety: for each
    matrix, det - 1, trace and the second symmetric function."""
    return _psi_half(a) + _psi_half(b)


def generator_pair(m: BoxModuli, lam: Lambda) -> VarietyPoint:
    """Determinant-one images of the two order-3 generators."""
    return VarietyPoint(
        a=sc.normalize_det_one(rp.matrix_A(m)), b=sc.normalize_det_one(rp.matrix_B(m, lam))
    )


# ---------------------------------------------------------------------------
# Jacobian certificates


def _off_diagonal(m: tuple) -> tuple:
    return tuple(m[i][j] for i, j in _OFF_DIAGONAL)


def closed_form_psi_jacobian(m: BoxModuli, lam: Lambda) -> mpf:
    """|det| of the 18-variable augmented-map Jacobian at the generator
    pair, in closed form."""
    zt = sc.to_mpf(m.zeta_t)
    zb = sc.to_mpf(m.zeta_b)
    e = lam.eps_value()
    ed = lam.exp_delta()
    emd = lam.exp_minus_delta()
    p = zt * zb
    numerator = (
        9
        * (1 + p)
        * (1 - p) ** 2
        * (
            2 * mpmath.cosh(2 * e) * (1 + p)
            - mpmath.sinh(2 * e) * (emd * (2 + p - zt * zt) + ed * (2 + p - zb * zb))
        )
    )
    return abs(numerator / (2 * (1 - zt * zt) ** 2 * (1 - zb * zb) ** 2))


def _fd_determinant(func, base, n):
    """|det| of the central finite-difference Jacobian of func: R^n -> R^n
    at the point base (columns indexed by input coordinates), with step
    FD_STEP at the working precision; func's values are mpf.  The
    quotients (u - d) / (2 * step) run on the raw values, with the libmp
    calls of those operators."""
    prec, rnd = mpmath.mp._prec_rounding
    step = sc.to_mpf(FD_STEP)
    two_step = mpf_mul_int(step._mpf_, 2, prec, rnd)
    wrap = mpmath.mp.make_mpf
    cols = []
    for k in range(n):
        up = list(base)
        dn = list(base)
        up[k] = up[k] + step
        dn[k] = dn[k] - step
        fu = func(up)
        fd = func(dn)
        cols.append([
            wrap(mpf_div(mpf_sub(u._mpf_, d._mpf_, prec, rnd), two_step, prec, rnd))
            for u, d in zip(fu, fd)
        ])
    rows = [[cols[k][i] for k in range(n)] for i in range(n)]
    return abs(sc.det_n(rows))


def jacobian_check_psi(m: BoxModuli, lam: Lambda) -> dict:
    """Closed form versus finite differences for the smoothness
    certificate: the map (Ψ, off-diagonals of A, off-diagonals of B) on
    the 18 matrix entries, at the generator pair."""
    if not in_region(lam):
        raise OutsideRegion("deformation outside the admissible region")
    point = generator_pair(m, lam)
    base = [x for row in point.a for x in row] + [x for row in point.b for x in row]
    psi_a, psi_b = _psi_half(point.a), _psi_half(point.b)

    def func(entries):
        a = tuple(tuple(entries[3 * i + j] for j in range(3)) for i in range(3))
        b = tuple(tuple(entries[9 + 3 * i + j] for j in range(3)) for i in range(3))
        # a step moves one entry: A or B is the base matrix, whose half of Ψ is known
        half_a = psi_a if a == point.a else _psi_half(a)
        half_b = psi_b if b == point.b else _psi_half(b)
        return half_a + half_b + _off_diagonal(a) + _off_diagonal(b)

    fd = _fd_determinant(func, base, 18)
    closed = closed_form_psi_jacobian(m, lam)
    rel = abs(fd - closed) / max(abs(closed), mpf(1))
    return {
        "closed_form": closed,
        "finite_difference": fd,
        "relative_error": rel,
        "match": rel <= FD_REL_TOL,
    }


def closed_form_phi_jacobian(m: BoxModuli) -> mpf:
    """|det| of the 13-variable parameterization Jacobian at zero
    deformation and identity conjugator, in closed form; vanishes (and
    raises) at the special box."""
    zt = sc.to_mpf(m.zeta_t)
    zb = sc.to_mpf(m.zeta_b)
    if zt == 0 and zb == 0:
        raise SpecialBox("the parameterization degenerates at the special box")
    t2 = zt * zt
    b2 = zb * zb
    numerator = (
        288 * (1 - t2 * b2) ** 2 * (2 - t2 - b2) * (t2 * (1 - b2) + b2 * (1 - t2))
    )
    return abs(numerator / ((1 - t2) ** 5 * (1 - b2) ** 5))


def _conjugate(g: tuple, a: tuple, b: tuple) -> tuple:
    """g a g^-1 and g b g^-1."""
    g_inv = sc.mat_inverse(g)
    return sc.mat_mul(g, sc.mat_mul(a, g_inv)), sc.mat_mul(g, sc.mat_mul(b, g_inv))


def jacobian_check_phi(m: BoxModuli) -> dict:
    """Closed form versus finite differences for the parameterization
    certificate: the 13-variable map (moduli, deformation, conjugator)
    -> (off-diagonals of the two conjugated generators, det of the
    conjugator), at zero deformation and identity conjugator."""
    closed = closed_form_phi_jacobian(m)
    zt0 = sc.to_mpf(m.zeta_t)
    zb0 = sc.to_mpf(m.zeta_b)
    base = [zt0, zb0, mpf(0), mpf(0)] + [
        mpf(1 if i == j else 0) for i in range(3) for j in range(3)
    ]

    # The generator pair depends on x[:4] = (moduli, deformation) only:
    # 9 distinct keys among the 26 evaluations, at 5 distinct moduli, so A
    # and B0 are built once per moduli.  Only the 4 keys that move the
    # deformation conjugate B0 by Sigma: at zero deformation Sigma is the
    # mpf identity, and conjugating by it would change no bit.
    undeformed = {}
    pairs = {}

    def pair(key):
        if key not in pairs:
            moduli = key[:2]
            if moduli not in undeformed:
                bm = BoxModuli(*moduli)
                undeformed[moduli] = (sc.normalize_det_one(rp.matrix_A(bm)), rp.matrix_B0(bm))
            a, b0 = undeformed[moduli]
            lam = Lambda(epsilon=key[2], delta=key[3])
            b = b0 if lam.is_zero else rp.sigma_conjugate(b0, lam)
            pairs[key] = (a, sc.normalize_det_one(b))
        return pairs[key]

    def func(x):
        a, b = pair(tuple(x[:4]))
        g = tuple(tuple(x[4 + 3 * i + j] for j in range(3)) for i in range(3))
        # conjugating by g = Id (8 evaluations) would change no bit either
        if g != sc.IDENTITY:
            a, b = _conjugate(g, a, b)
        return _off_diagonal(a) + _off_diagonal(b) + (sc.det3(g),)

    fd = _fd_determinant(func, base, 13)
    rel = abs(fd - closed) / max(abs(closed), mpf(1))
    return {
        "closed_form": closed,
        "finite_difference": fd,
        "relative_error": rel,
        "match": rel <= FD_REL_TOL,
    }
