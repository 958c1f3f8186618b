"""Contraction diagnostics for the deformed box representations.

The crossing combinatorics of a boundary-bound geodesic produce a
nested sequence of boxes: if gamma_n labels the 2n-th crossed edge then
the n-th box is the matrix image of the base box under the word image
of gamma_n, and gamma_{n+1} = gamma_n w for one of the four two-crossing
step words.  Everything here measures how fast those boxes shrink:

- ``constant_C``: minimal Hilbert distortion over the four step words,
  sampled and so estimated from above;
- ``limit_point``: the nested-intersection point (with its dual line)
  for a periodic word, the discrete analogue of the boundary map;
- ``loxodromy_scan``: eigenvalue-gap survey of short words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import mpmath
from mpmath import mpf
from mpmath.libmp import from_rational, mpf_sqrt

from . import boxes as bx
from . import hilbert as hb
from . import modular as md
from . import projective as pj
from . import representation as rp
from . import scalars as sc
from .errors import (
    ComplexSpectrum,
    DegenerateConfiguration,
    NoConvergence,
    NonLoxodromic,
    NotConvex,
    NotInRegionInterior,
    NotInSubgroupO,
    SingularMatrix,
    ToleranceBelowPrecision,
)
from .modular import GroupWord, W_STEPS
from .projective import Line, Point


def constant_C(rep: rp.Representation, resolution: int = 16, directions: int = 8):
    """Sampled minimal distortion gained by crossing two edges.

    Minimum over the four step words of the sampled distortion of the
    step-word box image inside the base box.  A sample minimum can only
    over-estimate the true constant, and it falls as the grid is
    refined.  Raises NotNested when the nesting fails (deformation
    outside the admissible region).
    """
    box = bx.from_moduli(rep.moduli)
    outer = hb.convex_interior(box)
    best = None
    for w in W_STEPS:
        g = rep.step_images[w]
        inner = hb.convex_interior(bx.apply_matrix(box, g))
        c = hb.distortion_estimate(inner, outer, resolution=resolution, directions=directions)
        best = c if best is None else min(best, c)
    return best


# ---------------------------------------------------------------------------
# nested-intersection limit points


@dataclass(frozen=True)
class LimitSample:
    """Limit of the nested boxes along the axis of a periodic word."""

    word: GroupWord
    point: Point
    dual_point: Line
    flag_residual: mpf
    diameter_at_stop: mpf
    depth: int


# Stopping chart diameter, and ``limit --tol``'s default: the sample and
# the limit point share the box at the stop, so they agree to tol, 12 of
# the CSV's 16 digits.  It is 35 times the largest floor float_epsilon(53)
# = 2^-45 (2.8e-14), so the default ``limit`` runs at every precision.
LIMIT_TOL = mpf("1e-12")
LIMIT_DEPTH_CAP = 10**4


def _spectrum(g: tuple) -> sc.EigenResult:
    """Eigen data of the determinant-one normalization of a word image."""
    return sc.eigen_real(sc.normalize_det_one(g))


def loxodromic_eigen(rep: rp.Representation, w: GroupWord) -> sc.EigenResult:
    """Eigen data of the word image; raises for non-loxodromic images."""
    res = _spectrum(rp.evaluate(rep, w))
    if not res.loxodromic:
        raise NonLoxodromic("word image has collapsing eigenvalue moduli")
    return res


def _chart_pairs(g: tuple, corners: list) -> list:
    """Ints (N, D) per pair of corner images (x, y, z) = g c, whose squared
    chart distance is N / D: with u = y - z and w = y + z (own scales
    cancel), N = (x_i w_j - x_j w_i)^2 + (u_i w_j - u_j w_i)^2, D = (w_i w_j)^2."""
    images = []
    for v0, v1, v2 in corners:
        x, y, z = (g[i] * v0 + g[i + 1] * v1 + g[i + 2] * v2 for i in (0, 3, 6))
        if y + z == 0:
            raise DegenerateConfiguration("point at infinity of the chart")
        images.append((x, y - z, y + z))
    return [
        ((xi * wj - xj * wi) ** 2 + (ui * wj - uj * wi) ** 2, (wi * wj) ** 2)
        for i, (xi, ui, wi) in enumerate(images)
        for xj, uj, wj in images[i + 1:]
    ]


def _below(pairs: list, tol: mpf) -> bool:
    """Whether every N / D < tol^2, in ints, as tol = man 2^exp (a tie fails)."""
    left, right = max(-2 * tol.exp, 0), max(2 * tol.exp, 0)
    return all(n << left < tol.man**2 * d << right for n, d in pairs)


def _log_diameter(pairs: list) -> float:
    """float64 log of the diameter (-inf at 0), from the ints: no underflow."""
    return max((math.log(n) - math.log(d) for n, d in pairs if n), default=-math.inf) / 2


def _diameter(pairs: list) -> mpf:
    """The diameter as an mpf, rounded down: below tol where ``_below`` holds."""
    q, prec = max(Fraction(n, d) for n, d in pairs), mpmath.mp.prec
    return mpmath.mp.make_mpf(mpf_sqrt(from_rational(q.numerator, q.denominator, prec, "d"), prec, "d"))


def _first_depth_below(pairs, tol: mpf, first_probe: int, depth_cap: int) -> int:
    """First depth n <= depth_cap whose pairs(n) are ``_below`` tol, for a
    diameter d that never grows with n (NoConvergence if none), testing
    each depth once.  The bracket closes at hi = lo + 1, so the probes,
    where ``_log_diameter`` taken as linear in n meets log tol, change the
    cost only: through d(0) and d(lo), rounded down and held to [lo + 1,
    2 lo + 1], until there is a hi; then through d(lo) and d(hi), held
    inside (the midpoint without a rate)."""
    log_tol = math.log(tol.man) + tol.exp * math.log(2)

    def crossing(a, b):
        # None without a usable rate: d(b) is 0, or equal logs (ulps apart)
        log_da = _log_diameter(pairs(a))
        fall = log_da - _log_diameter(pairs(b))
        return a + (log_da - log_tol) * (b - a) / fall if 0 < fall < math.inf else None

    lo, hi = 0, (0 if _below(pairs(0), tol) else None)
    while hi is None or hi > lo + 1:
        if hi is not None:
            x = crossing(lo, hi)
            probe = (lo + hi) // 2 if x is None else min(max(math.ceil(x), lo + 1), hi - 1)
        elif lo >= depth_cap:
            raise NoConvergence("depth cap reached before the boxes collapsed")
        elif lo:
            # rounded down: each depth probed past the stop costs a product
            x = crossing(0, lo)
            probe = min(2 * lo + 1 if x is None else max(int(x), lo + 1), 2 * lo + 1, depth_cap)
        else:
            probe = min(first_probe, depth_cap)
        if _below(pairs(probe), tol):
            hi = probe
        else:
            lo = probe
    return hi


def limit_point(
    rep: rp.Representation,
    w: GroupWord,
    tol=LIMIT_TOL,
    depth_cap: int = LIMIT_DEPTH_CAP,
) -> LimitSample:
    """Nested-intersection point of the boxes along the axis of w.

    Follows the crossing sequence of the periodic word, accumulating
    the matrix images g_n of the partial products, to the first depth n
    whose image box has chart diameter d(n) below tol.  Returns the
    limiting point (bottom corners converge to it), the limiting dual
    line (bottom lines, which are the tops of the reversed-orientation
    dual boxes) and the incidence residual between the two.

    The boxes are nested, g_{n+1}(B) = g_n(S(B)) inside g_n(B), so d never
    grows with n and ``_first_depth_below`` need not test every depth.
    A tol at or below ``sc.float_epsilon()`` is rejected: there d is
    rounding noise and no longer falls.

    The products run on the scaled-integer kernel of ``scalars`` (its
    error bound is stated there), set up once per point
    (``Representation.limit_setup``); the stop test is exact on their
    ints (``_below``), and ``diameter_at_stop`` is d(stop) rounded down.
    The word must be loxodromic, as the period product P's spectrum
    decides: the chain converges to P's attracting flag.

    The iteration uses the crossing normal form of w, a cyclic
    conjugate; for words not already in that form the result, and the
    loxodromy verdict, are those of the conjugated word, whose spectrum
    differs from w's when the conjugator is odd.
    """
    if not md.in_subgroup_o(w):
        raise NotInSubgroupO("limit points need even-involution words")
    if not rep.moduli.is_convex:
        raise NotConvex("limit points are defined for convex boxes only")
    if not rep.limit_setup:
        raise NotInRegionInterior("deformation outside the admissible region")
    step_images, corners, bottom, bottom_line = rep.limit_setup
    if tol <= sc.float_epsilon():
        raise ToleranceBelowPrecision("limit tol must exceed 2^(8 - precision)")
    tol = mpmath.mpmathify(tol)
    steps = [step_images[s] for s in md.crossing_steps(w)]
    period = len(steps)
    mats = [[x for row in sc.IDENTITY for x in row]]

    def product(n):
        while len(mats) <= n:
            mats.append(sc.scaled_mul(mats[-1], steps[(len(mats) - 1) % period]))
        return mats[n]

    if not _spectrum(sc.scaled_to_mat(product(period))).loxodromic:
        raise NonLoxodromic("word image has collapsing eigenvalue moduli")

    pairs = cache(lambda n: _chart_pairs(product(n), corners))
    depth = _first_depth_below(pairs, tol, period, depth_cap)
    g = sc.scaled_to_mat(mats[depth])

    point = Point(sc.mat_vec(g, bottom))
    # lines transform by the inverse transpose, projectively the
    # transposed adjugate (avoids dividing by the tiny determinant of a
    # long contraction product)
    dual = Line(sc.mat_vec(sc.mat_transpose(sc.adjugate(g)), bottom_line))
    residual = pj.incidence_residual(dual.coords, point.coords)
    return LimitSample(w, point, dual, residual, _diameter(pairs(depth)), depth)


# ---------------------------------------------------------------------------
# loxodromy survey


def _exact_verdict(g: tuple) -> tuple:
    """(loxodromic, least gap or None) of an exact image, from its
    characteristic cubic x^3 - t x^2 + s x - d, with t, s and d the
    trace, ``second_symmetric`` and determinant.

    The cubic has three distinct real roots iff its discriminant is
    positive; two of them share a modulus iff they are r and -r, that is
    iff the cubic is (x - t)(x^2 + s) with s < 0.  Every test is on
    rationals, so the verdict does not depend on the working precision.
    A real spectrum with two equal moduli (a repeated root, or r and -r)
    has least gap exactly 1, which its float roots, ill-conditioned
    there, may miss or lose; any other least gap is left to the float
    spectrum (None).  A singular image (d = 0) has no det-one
    normalization; it counts as non-loxodromic, as in the float path.
    """
    t = g[0][0] + g[1][1] + g[2][2]
    s = sc.second_symmetric(g)
    d = sc.det3(g)
    disc = 18 * t * s * d - 4 * t**3 * d + t * t * s * s - 4 * s**3 - 27 * d * d
    tied = d != 0 and (disc == 0 or (disc > 0 and d == t * s and s < 0))
    return d != 0 and disc > 0 and not tied, (mpf(1) if tied else None)


def _class_verdict(g: tuple) -> tuple:
    """(loxodromic, least gap or None) of a word image for the scan.

    An exact image takes its verdict, and a least gap of 1, from
    ``_exact_verdict``; otherwise the gap is that of the float spectrum
    (none if the image has no real det-one spectrum), and a float
    image's verdict compares it with ``scalars.MODULI_GAP_MARGIN``.
    """
    exact = sc.mat_is_exact(g)
    if exact:
        loxodromic, gap = _exact_verdict(g)
        if gap is not None:
            return loxodromic, gap
    try:
        res = _spectrum(g)
    except (ComplexSpectrum, SingularMatrix):
        return exact and loxodromic, None
    return (loxodromic if exact else res.loxodromic), min(res.gaps)


def loxodromy_scan(rep: rp.Representation, max_len: int = 6) -> dict:
    """Eigenvalue-gap survey of all short even-involution words.

    Torsion words (trivial or finite order, whose cyclic core has no
    involution letter) have no axis and are skipped.  Reports the
    minimal gap between consecutive eigenvalue moduli and every
    non-loxodromic word found.

    Spectra are class functions: conjugating w by an even word
    conjugates its image, and w^-1 has the inverse image, whose gaps are
    those of w in reverse order.  So one spectrum is solved per class of
    {w, w^-1} under even conjugation (``modular.even_class_key``), at the
    class's first word in scan order, a shortest one; every later word
    of the class shares its verdict and gap.  Conjugation by an odd word
    (a rotation of w by a single I) swaps A and B^lambda and is not
    inner, so it does not merge classes.  At an exact parameter point
    the verdict is the exact one of ``_exact_verdict`` and the gap comes
    from the float spectrum, or is exactly 1 where the exact cubic has
    a real spectrum with two equal moduli.

    The scan walks the word tree: ``enumerate_words`` is breadth-first
    and each word is its parent (all but the last letter) times one
    letter, so an image costs at most one product, associated as in
    ``evaluate``.  Only the images of parents and of the first word of
    each class are formed.
    """
    non_loxodromic = []
    scanned = 0
    # class key -> (loxodromic, min gap or None) of its first word
    classes = {}
    # letters of a word -> (its image, parity of its I letters)
    images = {(): (sc.IDENTITY, 0)}
    for w in md.enumerate_words(max_len):
        letters = w.letters
        if not letters:
            continue
        g, parity = images[letters[:-1]]
        if letters[-1] == "I":
            parity ^= 1
        # odd words are outside the subgroup, torsion words have no axis
        scan = parity == 0 and "I" in w.cyclic_reduction()[1].letters
        key = md.even_class_key(w) if scan else None
        new_class = scan and key not in classes
        is_parent = len(letters) < max_len
        if new_class or is_parent:
            if letters[-1] != "I":
                g = sc.mat_mul(g, rep.letter_images[parity][letters[-1]])
            if is_parent:
                images[letters] = (g, parity)
            if new_class:
                classes[key] = _class_verdict(g)
        if scan:
            scanned += 1
            if not classes[key][0]:
                non_loxodromic.append(w)
    return {
        "scanned": scanned,
        "min_gap": min((gap for _, gap in classes.values() if gap is not None), default=None),
        "non_loxodromic": non_loxodromic,
    }
