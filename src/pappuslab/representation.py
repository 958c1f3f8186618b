"""Matrix realizations of the marked-box symmetry groups.

All matrices are expressed in the normal-form basis adapted to a box
with moduli (zeta_t, zeta_b); a box in general position conjugates them
by its adapted-basis matrix.  The key families are:

- ``matrix_A``: order-3 transformation cycling the box through its
  Pappus descendants;
- ``matrix_D``: the symmetric polarity matrix swapping a box with its
  dual (positive definite exactly for convex moduli);
- ``matrix_B``: the deformed conjugate Sigma^-1 D^-1 tA^-1 D Sigma, with
  Sigma = ``boxes.sigma_matrix`` the two-parameter deformation.

A ``Representation`` is the representation rho^lambda of the
even-involution subgroup at one parameter point (moduli, lambda): it
builds A and B^lambda once (and the letter and step-word images when
first asked), and ``evaluate(rep, w)`` maps words to plain matrices
through it.  ``evaluate_schwartz`` maps words of the whole group to
point/duality symmetries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import mpmath
from mpmath import mpf
from mpmath.libmp import (
    fone,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_eq,
    mpf_ge,
    mpf_gt,
    mpf_hypot,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_rdiv_int,
    mpf_sqrt,
    mpf_sub,
)

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


def _lift_literals(m: tuple) -> tuple:
    """m with its int entries 0 and +-1 as mpf, when every other entry is
    an mpf; otherwise m itself.

    The families above carry such literals beside their mpf entries at
    mpf moduli or a float deformation, and one int entry keeps a matrix
    off the float kernel of ``scalars``.  The literals are exact at any
    precision, and products and sums of them are exact, so every bit
    stays as the operator path gives it.  Other ints are left alone: one
    with more bits than the precision would round.
    """
    flat = [x for row in m for x in row]
    if not any(type(x) is mpf for x in flat) or not all(
        type(x) is mpf or (type(x) is int and -1 <= x <= 1) for x in flat
    ):
        return m
    return tuple(tuple(mpf(x) if type(x) is int else x for x in row) for row in m)


def matrix_B0(m: BoxModuli) -> tuple:
    """Undeformed image of the conjugated generator: D^-1 tA^-1 D."""
    a = _lift_literals(matrix_A(m))
    d = _lift_literals(matrix_D(m))
    return sc.mat_mul(
        sc.mat_mul(sc.mat_inverse(d), sc.mat_inverse(sc.mat_transpose(a))), d
    )


def matrix_B(m: BoxModuli, lam: Lambda) -> tuple:
    """Deformed generator image: Sigma^-1 D^-1 tA^-1 D Sigma."""
    sig = _lift_literals(bx.sigma_matrix(lam))
    return sc.mat_mul(sc.mat_mul(sc.mat_inverse(sig), matrix_B0(m)), sig)


# ---------------------------------------------------------------------------
# word evaluation


@dataclass(frozen=True)
class Representation:
    """The representation rho^lambda at one parameter point.

    The rotation generator maps to A = ``matrix_A(moduli)`` and its
    involution conjugate to B^lambda = ``matrix_B(moduli, lam)``, both
    built once, in the scalar mode of the inputs (exact for rational
    moduli and an exact deformation).  The letter and step-word images
    are built on first use, so a caller that needs only A and B^lambda
    (``obstruction``, ``extension_intertwiner``) never pays for them.
    """

    moduli: BoxModuli
    lam: Lambda
    a: tuple = field(init=False, repr=False, compare=False)
    b: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", matrix_A(self.moduli))
        object.__setattr__(self, "b", matrix_B(self.moduli, self.lam))

    @cached_property
    def letter_images(self) -> tuple:
        """Images of the rotation letters, indexed [parity of I letters][letter]:
        A and A^2 at even parity, B^lambda and (B^lambda)^2 at odd.

        In float mode all four are mpf, so that a product never converts
        A's entries again.
        """
        a, b = self.a, self.b
        a_images = {"R": a, "RR": sc.mat_mul(a, a)}
        if not sc.mat_is_exact(b):
            # mpmathify rounds a Fraction the way a mixed Fraction x mpf
            # product does (sc.to_mpf rounds to nearest instead), so word
            # images stay bit-identical to the mixed-mode products
            a_images = {
                let: tuple(tuple(mpmath.mpmathify(x) for x in row) for row in m)
                for let, m in a_images.items()
            }
        return a_images, {"R": b, "RR": sc.mat_mul(b, b)}

    @cached_property
    def step_images(self) -> dict:
        """Images of the four two-crossing step words ``modular.W_STEPS``,
        evaluated on first use."""
        return {w: evaluate(self, w) for w in md.W_STEPS}


def evaluate(rep: Representation, w: GroupWord) -> tuple:
    """Matrix image of an even-involution word under ``rep``.

    The involution letters only toggle which of A and B^lambda the
    rotation letters use, so the result is a plain matrix (no duality
    needed).
    """
    if not md.in_subgroup_o(w):
        raise NotInSubgroupO("matrix evaluation needs an even-involution word")
    out = sc.IDENTITY
    parity = 0
    for let in w.letters:
        if let == "I":
            parity ^= 1
        else:
            out = sc.mat_mul(out, rep.letter_images[parity][let])
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
    zt, zb = m.zeta_t, m.zeta_b
    exact = lam.exact and sc.is_exact(zt) and sc.is_exact(zb)
    ce, se = lam.cosh_eps(), lam.sinh_eps()
    ed, emd = lam.exp_delta(), lam.exp_minus_delta()
    cd, sd = (ed + emd) / 2, (ed - emd) / 2
    if not exact:
        zt, zb = sc.to_mpf(zt), sc.to_mpf(zb)
        ce, se = sc.to_mpf(ce), sc.to_mpf(se)
        cd, sd = sc.to_mpf(cd), sc.to_mpf(sd)
    return _h_from(zt, zb, ce, se, cd, sd)


CURVE_TOL = mpf("1e-12")


def solve_delta_h(m: BoxModuli, epsilon, tol=CURVE_TOL) -> mpf:
    """delta with |h(epsilon, delta)| <= tol, found by bisection.

    The starting bracket is [-1, 1]; if h does not change sign there,
    the bracket is doubled twice before giving up.  A tol at or below
    ``sc.float_epsilon()`` is rejected: h is rounding noise there.
    """
    if tol <= sc.float_epsilon():
        raise ToleranceBelowPrecision("curve tol must exceed 2^(8 - precision)")
    if _special_coefficient(m) == 0:
        raise SpecialBox("the curve is degenerate at vanishing moduli")
    # curve_h at float (epsilon, delta), with all but delta evaluated once
    zt, zb = sc.to_mpf(m.zeta_t), sc.to_mpf(m.zeta_b)
    eps = sc.to_mpf(epsilon)
    ce, se = mpmath.cosh(eps), mpmath.sinh(eps)

    def h(delta):
        ed, emd = mpmath.exp(delta), mpmath.exp(-delta)
        return _h_from(zt, zb, ce, se, (ed + emd) / 2, (ed - emd) / 2)

    lo, hi = mpf(-1), mpf(1)
    flo, fhi = h(lo), h(hi)
    expansions = 0
    while flo * fhi > 0:
        if expansions >= 2:
            raise NoBracket("no sign change of h on the search interval")
        lo, hi = 2 * lo, 2 * hi
        flo, fhi = h(lo), h(hi)
        expansions += 1
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    for _ in range(mpmath.mp.prec + 60):
        mid = (lo + hi) / 2
        fmid = h(mid)
        if abs(fmid) <= tol:
            return mid
        if flo * fmid < 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
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
    if not (sc.mat_is_exact(c) and sc.mat_is_exact(b)):
        c, b = sc.mat_to_mpf(c), sc.mat_to_mpf(b)
    rows = []
    for i in range(3):
        for j in range(3):
            row = [0] * 6
            for k in range(3):
                row[_SYM_INDEX[(k, j)]] += c[i][k]
                row[_SYM_INDEX[(i, k)]] -= b[k][j]
            rows.append(row)
    return rows


def _singular_values_v(rows):
    """S and V of the SVD A = U S V of a system with at least as many
    rows as columns, as ``mpmath.svd_r`` gives them: the n singular
    values in decreasing order and the n x n orthogonal V, as a list and
    a list of rows of mpf.

    The routine transcribes the calc_u=False branch of ``svd_r_raw`` in
    mpmath 1.3.0 (BSD licence), which translates EISPACK's ``svd.f``
    after Golub and Reinsch, Numer. Math. 14 (1970) 403-420: Householder
    bidiagonalization, accumulation of the right-hand transformations,
    QR sweeps on the bidiagonal form and a final sort.  U is not formed,
    as it is never read.  The work runs on raw ``_mpf_`` values, with the
    libmp calls that mpf's operators and mpmath's fabs, sqrt and hypot
    make there, in the same order, at the precision and rounding they
    read (``mpmath.mp._prec_rounding``), so S and V carry mpmath's bits.
    Sums and variables that mpmath starts at the int 0 start at fzero
    here, which gives the same values.  Its rotation sweeps start c and s
    at the int literals 0 and 1, so their first products go through
    mpf_mul_int, here as in mpf's operators.
    """
    prec, rnd = mpmath.mp._prec_rounding
    a = [[sc.to_mpf(x)._mpf_ for x in row] for row in rows]
    m, n = len(a), len(a[0])
    sv = [fzero] * n
    work = [fzero] * n
    v = [[fzero] * n for _ in range(n)]

    # Householder reduction to bidiagonal form
    g = scale = anorm = fzero
    for i in range(n):
        work[i] = mpf_mul(scale, g, prec, rnd)
        g = s = scale = fzero
        if i < m:
            for k in range(i, m):
                scale = mpf_add(scale, mpf_abs(a[k][i], prec, rnd), prec, rnd)
            if scale != fzero:
                for k in range(i, m):
                    x = a[k][i] = mpf_div(a[k][i], scale, prec, rnd)
                    s = mpf_add(s, mpf_mul(x, x, prec, rnd), prec, rnd)
                f = a[i][i]
                g = mpf_neg(mpf_sqrt(s, prec, rnd), prec, rnd)
                if mpf_lt(f, fzero):
                    g = mpf_neg(g, prec, rnd)
                h = mpf_sub(mpf_mul(f, g, prec, rnd), s, prec, rnd)
                a[i][i] = mpf_sub(f, g, prec, rnd)
                for j in range(i + 1, n):
                    s = fzero
                    for k in range(i, m):
                        s = mpf_add(s, mpf_mul(a[k][i], a[k][j], prec, rnd), prec, rnd)
                    f = mpf_div(s, h, prec, rnd)
                    for k in range(i, m):
                        a[k][j] = mpf_add(a[k][j], mpf_mul(f, a[k][i], prec, rnd), prec, rnd)
                for k in range(i, m):
                    a[k][i] = mpf_mul(a[k][i], scale, prec, rnd)
        sv[i] = mpf_mul(scale, g, prec, rnd)
        g = s = scale = fzero
        if i < m and i != n - 1:
            row = a[i]
            for k in range(i + 1, n):
                scale = mpf_add(scale, mpf_abs(row[k], prec, rnd), prec, rnd)
            if scale != fzero:
                for k in range(i + 1, n):
                    x = row[k] = mpf_div(row[k], scale, prec, rnd)
                    s = mpf_add(s, mpf_mul(x, x, prec, rnd), prec, rnd)
                f = row[i + 1]
                g = mpf_neg(mpf_sqrt(s, prec, rnd), prec, rnd)
                if mpf_lt(f, fzero):
                    g = mpf_neg(g, prec, rnd)
                h = mpf_sub(mpf_mul(f, g, prec, rnd), s, prec, rnd)
                row[i + 1] = mpf_sub(f, g, prec, rnd)
                for k in range(i + 1, n):
                    work[k] = mpf_div(row[k], h, prec, rnd)
                for rj in a[i + 1:]:
                    s = fzero
                    for k in range(i + 1, n):
                        s = mpf_add(s, mpf_mul(rj[k], row[k], prec, rnd), prec, rnd)
                    for k in range(i + 1, n):
                        rj[k] = mpf_add(rj[k], mpf_mul(s, work[k], prec, rnd), prec, rnd)
                for k in range(i + 1, n):
                    row[k] = mpf_mul(row[k], scale, prec, rnd)
        # anorm = max(anorm, fabs(S[i]) + fabs(work[i]))
        t = mpf_add(mpf_abs(sv[i], prec, rnd), mpf_abs(work[i], prec, rnd), prec, rnd)
        if mpf_gt(t, anorm):
            anorm = t

    # accumulation of the right-hand transformations
    for i in range(n - 2, -1, -1):
        v[i + 1][i + 1] = fone
        row, vi = a[i], v[i]
        if not mpf_eq(work[i + 1], fzero):
            for j in range(i + 1, n):
                # (A[i, j] / A[i, i + 1]) / work[i + 1]
                vi[j] = mpf_div(mpf_div(row[j], row[i + 1], prec, rnd), work[i + 1], prec, rnd)
            for vj in v[i + 1:]:
                s = fzero
                for k in range(i + 1, n):
                    s = mpf_add(s, mpf_mul(row[k], vj[k], prec, rnd), prec, rnd)
                for k in range(i + 1, n):
                    vj[k] = mpf_add(vj[k], mpf_mul(s, vi[k], prec, rnd), prec, rnd)
        for j in range(i + 1, n):
            v[j][i] = vi[j] = fzero
    v[0][0] = fone

    # diagonalization of the bidiagonal form
    maxits = 3 * mpmath.mp.dps
    for k in range(n - 1, -1, -1):
        its = 0
        while True:
            its += 1
            flag = True
            for l in range(k, -1, -1):
                nm = l - 1
                if mpf_eq(mpf_add(mpf_abs(work[l], prec, rnd), anorm, prec, rnd), anorm):
                    flag = False
                    break
                # mpmath's S[-1] reads its sparse matrix: zero
                t = sv[nm] if nm >= 0 else fzero
                if mpf_eq(mpf_add(mpf_abs(t, prec, rnd), anorm, prec, rnd), anorm):
                    break
            if flag:
                for i in range(l, k + 1):
                    if i == l:
                        # c = 0 and s = 1, still int literals
                        f = mpf_mul_int(work[i], 1, prec, rnd)
                        work[i] = mpf_mul_int(work[i], 0, prec, rnd)
                    else:
                        f = mpf_mul(s, work[i], prec, rnd)
                        work[i] = mpf_mul(work[i], c, prec, rnd)
                    if mpf_eq(mpf_add(mpf_abs(f, prec, rnd), anorm, prec, rnd), anorm):
                        break
                    g = sv[i]
                    h = sv[i] = mpf_hypot(f, g, prec, rnd)
                    h = mpf_rdiv_int(1, h, prec, rnd)
                    c = mpf_mul(g, h, prec, rnd)
                    s = mpf_mul(mpf_neg(f, prec, rnd), h, prec, rnd)

            z = sv[k]
            if l == k:
                # convergence: the singular value is made nonnegative
                if mpf_lt(z, fzero):
                    sv[k] = mpf_neg(z, prec, rnd)
                    v[k] = [mpf_neg(x, prec, rnd) for x in v[k]]
                break
            if its >= maxits:
                raise RuntimeError("svd: no convergence to an eigenvalue after %d iterations" % its)

            # shift from the bottom 2 x 2 minor
            x = sv[l]
            nm = k - 1
            y = sv[nm]
            g = work[nm]
            h = work[k]
            # f = ((y - z) * (y + z) + (g - h) * (g + h)) / (2 * h * y)
            f = mpf_add(
                mpf_mul(mpf_sub(y, z, prec, rnd), mpf_add(y, z, prec, rnd), prec, rnd),
                mpf_mul(mpf_sub(g, h, prec, rnd), mpf_add(g, h, prec, rnd), prec, rnd),
                prec,
                rnd,
            )
            f = mpf_div(f, mpf_mul(mpf_mul_int(h, 2, prec, rnd), y, prec, rnd), prec, rnd)
            g = mpf_hypot(f, fone, prec, rnd)
            # f = ((x - z) * (x + z) + h * ((y / (f +- g)) - h)) / x
            fg = mpf_add(f, g, prec, rnd) if mpf_ge(f, fzero) else mpf_sub(f, g, prec, rnd)
            f = mpf_add(
                mpf_mul(mpf_sub(x, z, prec, rnd), mpf_add(x, z, prec, rnd), prec, rnd),
                mpf_mul(h, mpf_sub(mpf_div(y, fg, prec, rnd), h, prec, rnd), prec, rnd),
                prec,
                rnd,
            )
            f = mpf_div(f, x, prec, rnd)

            # next QR transformation
            for j in range(l, nm + 1):
                g = work[j + 1]
                y = sv[j + 1]
                if j == l:
                    # c = s = 1, still int literals
                    h = mpf_mul_int(g, 1, prec, rnd)
                    g = mpf_mul_int(g, 1, prec, rnd)
                else:
                    h = mpf_mul(s, g, prec, rnd)
                    g = mpf_mul(c, g, prec, rnd)
                z = work[j] = mpf_hypot(f, h, prec, rnd)
                c = mpf_div(f, z, prec, rnd)
                s = mpf_div(h, z, prec, rnd)
                # f = x * c + g * s; g = g * c - x * s
                f, g = (
                    mpf_add(mpf_mul(x, c, prec, rnd), mpf_mul(g, s, prec, rnd), prec, rnd),
                    mpf_sub(mpf_mul(g, c, prec, rnd), mpf_mul(x, s, prec, rnd), prec, rnd),
                )
                h = mpf_mul(y, s, prec, rnd)
                y = mpf_mul(y, c, prec, rnd)
                vj, vk = v[j], v[j + 1]
                for jj in range(n):
                    p, q = vj[jj], vk[jj]
                    vj[jj] = mpf_add(mpf_mul(p, c, prec, rnd), mpf_mul(q, s, prec, rnd), prec, rnd)
                    vk[jj] = mpf_sub(mpf_mul(q, c, prec, rnd), mpf_mul(p, s, prec, rnd), prec, rnd)
                z = sv[j] = mpf_hypot(f, h, prec, rnd)
                if not mpf_eq(z, fzero):
                    # the rotation can be arbitrary if z = 0
                    z = mpf_rdiv_int(1, z, prec, rnd)
                    c = mpf_mul(f, z, prec, rnd)
                    s = mpf_mul(h, z, prec, rnd)
                # f = c * g + s * y; x = c * y - s * g
                f, x = (
                    mpf_add(mpf_mul(c, g, prec, rnd), mpf_mul(s, y, prec, rnd), prec, rnd),
                    mpf_sub(mpf_mul(c, y, prec, rnd), mpf_mul(s, g, prec, rnd), prec, rnd),
                )
            work[l] = fzero
            work[k] = f
            sv[k] = x

    # sort the singular values into decreasing order
    for i in range(n):
        imax, top = i, mpf_abs(sv[i], prec, rnd)
        for j in range(i + 1, n):
            t = mpf_abs(sv[j], prec, rnd)
            if mpf_gt(t, top):
                imax, top = j, t
        if imax != i:
            sv[i], sv[imax] = sv[imax], sv[i]
            v[i], v[imax] = v[imax], v[i]

    wrap = mpmath.mp.make_mpf
    return [wrap(x) for x in sv], [[wrap(x) for x in row] for row in v]


def _nullspace_float(rows, rel_tol=mpf("1e-9")):
    """Right singular vectors whose singular values are at most
    rel_tol * max(largest singular value, 1)."""
    svals, v = _singular_values_v(rows)
    cutoff = rel_tol * max(max(svals), mpf(1))
    return [tuple(row) for sval, row in zip(svals, v) if sval <= cutoff]


def _residual(c, b, s) -> mpf:
    num = sc.mat_max_abs(
        sc.mat_sub(sc.mat_mul(sc.mat_to_mpf(c), sc.mat_to_mpf(s)),
                   sc.mat_mul(sc.mat_to_mpf(s), sc.mat_to_mpf(b)))
    )
    den = sc.mat_max_abs(sc.mat_to_mpf(s))
    return sc.to_mpf(num) / sc.to_mpf(den)


OBSTRUCTION_REL_TOL = mpf("1e-10")


def obstruction(rep: Representation):
    """det(Id - A B) whose vanishing permits a symmetric intertwiner,
    together with the product A B."""
    ab = sc.mat_mul(rep.a, rep.b)
    return sc.det3(sc.mat_sub(sc.IDENTITY, ab)), ab


def _obstruction_vanishes(obs, ab) -> bool:
    """Exactly in exact mode; in float mode within OBSTRUCTION_REL_TOL
    times max(max|A B|^3, 1)."""
    if sc.is_exact(obs):
        return obs == 0
    scale = max(sc.to_mpf(sc.mat_max_abs(ab)) ** 3, mpf(1))
    return abs(sc.to_mpf(obs)) <= OBSTRUCTION_REL_TOL * scale


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
        s = bx.sigma_matrix(rep.lam)
        return s, _residual(c, b, s), True

    exact = sc.mat_is_exact(b)
    obs, ab = obstruction(rep)
    if not _obstruction_vanishes(obs, ab):
        raise NoSolution("obstruction determinant is nonzero: %s" % obs)

    rows = _conjugation_system(c, b)
    basis = sc.nullspace_exact(rows) if exact else _nullspace_float(rows)
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


ROTATION_TOL = mpf("1e-9")


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

    basis = _nullspace_float(_conjugation_system(c, b))
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
        bound = mpf("1e-8") * max(sc.to_mpf(sc.mat_max_abs(lhs)), mpf(1))
        if sc.to_mpf(gap) > bound:
            raise InternalInconsistency(
                "antisymmetric factorization of Id - a b failed"
            )
    return by_det, by_intertwiner
