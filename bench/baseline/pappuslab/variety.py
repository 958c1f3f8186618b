"""Representation-variety computations for the box generator pairs.

The pairs (A, B) of determinant-one matrices with A³ = B³ = Id form a
real algebraic variety cut out by six polynomials Ψ; the generator
images of the deformed box representations live on it.  This module
evaluates Ψ, checks the order-3 trace criterion, and verifies two
closed-form Jacobian determinants against finite differences: the
smoothness certificate at the generator pairs and the local
diffeomorphism certificate of the moduli-deformation-conjugation
parameterization.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mpf

from . import representation as rp
from . import scalars as sc
from .boxes import BoxModuli, Lambda, in_region
from .errors import (
    IdentityInput,
    InternalInconsistency,
    OutsideRegion,
    SpecialBox,
)

TRACE_TOL = mpf("1e-12")
FD_STEP = mpf("1e-6")
FD_REL_TOL = mpf("1e-6")

_OFF_DIAGONAL = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def unimodular(m: tuple) -> tuple:
    """Rescale to determinant one by the real cube root of det."""
    d = sc.to_mpf(sc.det3(m))
    if d == 0:
        raise InternalInconsistency("cannot normalize a singular matrix")
    scale = mpmath.sign(d) * mpmath.cbrt(abs(d))
    return tuple(tuple(sc.to_mpf(x) / scale for x in row) for row in m)


@dataclass(frozen=True)
class VarietyPoint:
    """A pair of determinant-one matrices, a candidate variety point."""

    a: tuple
    b: tuple

    def __post_init__(self):
        for m in (self.a, self.b):
            d = sc.to_mpf(sc.det3(m))
            if abs(d - 1) > mpf("1e-9"):
                raise InternalInconsistency("variety points need determinant one")


def _second_symmetric(m: tuple):
    """Sum of the principal 2x2 minors (the trace of the inverse for a
    determinant-one matrix)."""
    return (
        m[0][0] * m[1][1]
        + m[1][1] * m[2][2]
        + m[2][2] * m[0][0]
        - m[0][1] * m[1][0]
        - m[1][2] * m[2][1]
        - m[0][2] * m[2][0]
    )


def psi_eval(a: tuple, b: tuple) -> tuple:
    """Six defining polynomials of the order-3 pair variety: for each
    matrix, det - 1, trace and the second symmetric function."""
    return (
        sc.det3(a) - 1,
        a[0][0] + a[1][1] + a[2][2],
        _second_symmetric(a),
        sc.det3(b) - 1,
        b[0][0] + b[1][1] + b[2][2],
        _second_symmetric(b),
    )


def order3_trace_check(a: tuple, tol=TRACE_TOL) -> bool:
    """Both traces vanish iff the cube is the identity (for a non-identity
    determinant-one matrix); evaluates both criteria and asserts they
    agree."""
    af = sc.mat_to_mpf(a)
    off = max(
        abs(af[i][j] - (1 if i == j else 0)) for i in range(3) for j in range(3)
    )
    if off <= tol:
        raise IdentityInput("the criterion excludes the identity matrix")
    by_trace = (
        abs(af[0][0] + af[1][1] + af[2][2]) <= tol
        and abs(sc.to_mpf(_second_symmetric(af))) <= tol
    )
    cube = sc.mat_mul(af, sc.mat_mul(af, af))
    by_cube = max(
        abs(cube[i][j] - (1 if i == j else 0)) for i in range(3) for j in range(3)
    ) <= mpmath.sqrt(tol)
    if by_trace != by_cube:
        raise InternalInconsistency("trace criterion disagrees with the cube")
    return by_trace


def generator_pair(m: BoxModuli, lam: Lambda) -> VarietyPoint:
    """Determinant-one images of the two order-3 generators."""
    return VarietyPoint(
        a=unimodular(sc.mat_to_mpf(rp.matrix_A(m))),
        b=unimodular(sc.mat_to_mpf(rp.matrix_B(m, lam))),
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


def _fd_determinant(func, base, n, step):
    """|det| of the central finite-difference Jacobian of func: R^n -> R^n
    at the point base (columns indexed by input coordinates)."""
    cols = []
    for k in range(n):
        up = list(base)
        dn = list(base)
        up[k] = up[k] + step
        dn[k] = dn[k] - step
        fu = func(up)
        fd = func(dn)
        cols.append([(u - d) / (2 * step) for u, d in zip(fu, fd)])
    rows = [[cols[k][i] for k in range(n)] for i in range(n)]
    return abs(sc.det_n(rows))


def jacobian_check_psi(m: BoxModuli, lam: Lambda, step=FD_STEP) -> dict:
    """Closed form versus finite differences for the smoothness
    certificate: the map (Ψ, off-diagonals of A, off-diagonals of B) on
    the 18 matrix entries, at the generator pair."""
    if not in_region(lam):
        raise OutsideRegion("deformation outside the admissible region")
    point = generator_pair(m, lam)
    base = [x for row in point.a for x in row] + [x for row in point.b for x in row]

    def func(entries):
        a = tuple(tuple(entries[3 * i + j] for j in range(3)) for i in range(3))
        b = tuple(tuple(entries[9 + 3 * i + j] for j in range(3)) for i in range(3))
        return psi_eval(a, b) + _off_diagonal(a) + _off_diagonal(b)

    fd = _fd_determinant(func, base, 18, sc.to_mpf(step))
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


def jacobian_check_phi(m: BoxModuli, step=FD_STEP) -> dict:
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

    def func(x):
        moduli = BoxModuli(x[0], x[1])
        lam = Lambda(epsilon=x[2], delta=x[3])
        g = tuple(tuple(x[4 + 3 * i + j] for j in range(3)) for i in range(3))
        g_inv = sc.mat_inverse(g)
        a = sc.mat_mul(g, sc.mat_mul(unimodular(sc.mat_to_mpf(rp.matrix_A(moduli))), g_inv))
        b = sc.mat_mul(
            g, sc.mat_mul(unimodular(sc.mat_to_mpf(rp.matrix_B(moduli, lam))), g_inv)
        )
        return _off_diagonal(a) + _off_diagonal(b) + (sc.det3(g),)

    fd = _fd_determinant(func, base, 13, sc.to_mpf(step))
    rel = abs(fd - closed) / max(abs(closed), mpf(1))
    return {
        "closed_form": closed,
        "finite_difference": fd,
        "relative_error": rel,
        "match": rel <= FD_REL_TOL,
    }
