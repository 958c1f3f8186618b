"""Representation-variety computations for the box generator pairs.

The pairs (A, B) of determinant-one matrices with A³ = B³ = Id form a
real algebraic variety cut out by six polynomials Ψ; the generator
images of the deformed box representations live on it.  This module
evaluates Ψ and verifies two closed-form Jacobian determinants against
finite differences: the smoothness certificate at the generator pairs
and the local diffeomorphism certificate of the
moduli-deformation-conjugation parameterization.  Each difference forms
only the outputs its coordinate can move, bit-identical to forming them
all.  The order-3 trace criterion (A ≠ Id with det A = 1 has A³ = Id
exactly when its trace and second symmetric function vanish) is a fact
of the theory, checked in the tests, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mpf
from mpmath.libmp import mpf_add, mpf_div, mpf_mul, mpf_mul_int, mpf_neg, mpf_rdiv_int, mpf_sub

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


def closed_form_psi_jacobian(m: BoxModuli, lam: Lambda) -> mpf:
    """|det| of the 18-variable augmented-map Jacobian at the generator
    pair, in closed form."""
    zt = sc.to_mpf(m.zeta_t)
    zb = sc.to_mpf(m.zeta_b)
    e = lam.eps_value()
    ed, emd = sc.to_mpf(lam.exp_delta), sc.to_mpf(lam.exp_minus_delta)
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


def _off_diagonal(y, h, p=None, q=None) -> dict:
    """{output index: entry} of the off-diagonals of the raw rows y of
    generator h, outputs 6 h to 6 h + 5: if p != q only those in row p or
    column q."""
    return {6 * h + n: y[i][j] for n, (i, j) in enumerate(_OFF_DIAGONAL) if p == q or i == p or j == q}


def _fd_determinant(diff, base):
    """|det| of the central finite-difference Jacobian at the point base,
    with step FD_STEP at the working precision.  Column k moves coordinate
    k alone: diff(k, x) gives {output index: raw value} for just the
    outputs that setting coordinate k to x can move.  Any other output is
    the same value at both ends of the step: its quotient is exactly 0 and
    is not formed.  The quotients (u - d) / (2 * step) make the libmp
    calls of those operators, so every entry is the dense one, bit for bit."""
    prec, rnd = mpmath.mp._prec_rounding
    step = sc.to_mpf(FD_STEP)
    two_step = mpf_mul_int(step._mpf_, 2, prec, rnd)
    wrap = mpmath.mp.make_mpf
    zero = mpf(0)
    rows = [[zero] * len(base) for _ in base]
    for k, x in enumerate(base):
        up, dn = diff(k, x + step), diff(k, x - step)
        for i, u in up.items():
            rows[i][k] = wrap(mpf_div(mpf_sub(u, dn[i], prec, rnd), two_step, prec, rnd))
    return abs(sc.det_n(rows))


def _report(fd: mpf, closed: mpf) -> dict:
    rel = abs(fd - closed) / max(abs(closed), mpf(1))
    return {"closed_form": closed, "finite_difference": fd, "relative_error": rel, "match": rel <= FD_REL_TOL}


def jacobian_check_psi(m: BoxModuli, lam: Lambda) -> dict:
    """Closed form versus finite differences for the smoothness
    certificate: the map (Ψ, off-diagonals of A, off-diagonals of B) on
    the 18 matrix entries, at the generator pair.  A step of entry (i, j)
    of one matrix moves 3 outputs: that matrix's det and second symmetric
    function, and its trace if i = j, else that off-diagonal entry."""
    if not in_region(lam):
        raise OutsideRegion("deformation outside the admissible region")
    point = generator_pair(m, lam)
    pair = (point.a, point.b)

    def diff(k, x):
        h, (i, j) = k // 9, divmod(k % 9, 3)
        rows = [list(row) for row in pair[h]]
        rows[i][j] = x
        det, tr, e2 = _psi_half(rows)
        n, y = (3 * h + 1, tr) if i == j else (6 + 6 * h + _OFF_DIAGONAL.index((i, j)), x)
        return {3 * h: det._mpf_, 3 * h + 2: e2._mpf_, n: y._mpf_}

    base = [x for g in pair for row in g for x in row]
    return _report(_fd_determinant(diff, base), closed_form_psi_jacobian(m, lam))


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


def _elementary_conjugate(p, q, v, *xs) -> list:
    """g x g^-1 as raw rows, for each x given as raw rows, where g is the
    identity with entry (p, q) set to the raw v.

    It makes the libmp calls of ``mat_mul(g, mat_mul(x, mat_inverse(g)))``
    on that product's nonzero terms (a correctly rounded sum of two terms
    does not depend on their order), and skips x * 0, x * 1 and x + 0,
    which are exact when the entries of x are rounded to the working
    precision: the result is that product's, bit for bit.  If
    p != q, det g and the adjugate are exact, so g^-1 = Id - v E_pq: x g^-1
    moves column q of x only, and g (x g^-1) then row p only.  If p == q,
    g^-1 is diagonal, with 1 / v at p and the rounded v * (1 / v)
    elsewhere, as ``mat_inverse`` scales the adjugate by 1 / det g."""
    prec, rnd = mpmath.mp._prec_rounding
    out = []
    if p != q:
        w = mpf_neg(v)
        for x in xs:
            y = [list(row) for row in x]
            for i in range(3):
                y[i][q] = mpf_add(mpf_mul(x[i][p], w, prec, rnd), x[i][q], prec, rnd)
            y[p] = [mpf_add(y[p][j], mpf_mul(v, y[q][j], prec, rnd), prec, rnd) for j in range(3)]
            out.append(y)
        return out
    inv = mpf_rdiv_int(1, v, prec, rnd)
    diag = [mpf_mul(v, inv, prec, rnd)] * 3
    diag[p] = inv
    for x in xs:
        y = [[mpf_mul(e, d, prec, rnd) for e, d in zip(row, diag)] for row in x]
        y[p] = [mpf_mul(v, e, prec, rnd) for e in y[p]]
        out.append(y)
    return out


def jacobian_check_phi(m: BoxModuli) -> dict:
    """Closed form versus finite differences for the parameterization
    certificate: the 13-variable map (moduli, deformation, conjugator)
    -> (off-diagonals of the two conjugated generators, det of the
    conjugator), at zero deformation and identity conjugator.

    A moduli step moves the 12 off-diagonals, and a deformation step B's 6.
    A step of conjugator entry (p, q) moves, if p != q, the 3 off-diagonals
    of each generator in row p or column q, and det g stays 1; if p == q,
    all 13 outputs.  A and B0 are built once per moduli, 5 times in all,
    and B0 is conjugated by Sigma only at the 4 steps of the deformation."""
    closed = closed_form_phi_jacobian(m)
    zt0 = sc.to_mpf(m.zeta_t)
    zb0 = sc.to_mpf(m.zeta_b)
    base = [zt0, zb0, mpf(0), mpf(0)] + [
        mpf(1 if i == j else 0) for i in range(3) for j in range(3)
    ]

    def det_one(x):
        # the raw rows of x scaled to det 1
        return [[e._mpf_ for e in row] for row in sc.normalize_det_one(x)]

    bm = BoxModuli(zt0, zb0)
    b0 = rp.matrix_B0(bm)
    pair = (det_one(rp.matrix_A(bm)), det_one(b0))

    def diff(k, x):
        if k < 4:
            zt, zb, eps, delta = [x if n == k else base[n] for n in range(4)]
            if k >= 2:
                return _off_diagonal(det_one(rp.sigma_conjugate(b0, Lambda(epsilon=eps, delta=delta))), 1)
            moved = BoxModuli(zt, zb)
            a, b = rp.matrix_A(moved), rp.matrix_B0(moved)
            return _off_diagonal(det_one(a), 0) | _off_diagonal(det_one(b), 1)
        p, q = divmod(k - 4, 3)
        a, b = _elementary_conjugate(p, q, x._mpf_, *pair)
        out = _off_diagonal(a, 0, p, q) | _off_diagonal(b, 1, p, q)
        # det g: _det3 forms it exactly, 1 if p != q and x if p == q
        return (out | {12: x._mpf_}) if p == q else out

    return _report(_fd_determinant(diff, base), closed)
