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
from functools import cmp_to_key

import mpmath
from mpmath import mpf
from mpmath.libmp import from_rational, mpf_sqrt

from . import boxes as bx
from . import hilbert as hb
from . import modular as md
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


def constant_C(rep: rp.Representation, resolution: int = 16, directions: int = 8):
    """Sampled minimal distortion gained by crossing two edges.

    Minimum over the four step words of the sampled distortion of the
    step-word box image inside the base box.  A sample minimum can only
    over-estimate the true constant, and it falls as the grid is
    refined.  Raises NotNested when the nesting fails (deformation
    outside the admissible region).  Only the base box is tested for
    convexity: a projective image keeps the moduli (to the rounding of its
    points at a float point), so an image quad takes ``bx.theta_basis``.
    """
    box = bx.from_moduli(rep.moduli)
    outer = hb.convex_interior(box)
    best = None
    for w in W_STEPS:
        image = bx.apply_matrix(box, rep.step_images[w])
        inner = hb.ConvexQuad((image.p, image.q, image.r, image.s), basis=bx.theta_basis(image))
        c = hb.distortion_estimate(inner, outer, resolution=resolution, directions=directions)
        best = c if best is None else min(best, c)
    return best


# ---------------------------------------------------------------------------
# nested-intersection limit points


@dataclass(frozen=True)
class LimitSample:
    """Limit of the nested boxes along the axis of a periodic word.  The
    point and the dual line are mpf 3-tuples of max |entry| 1."""

    word: GroupWord
    point: tuple
    dual_point: tuple
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


def _least_gap_bounds(v) -> tuple | None:
    """Bounds (lo, hi) on the least gap of ``_spectrum`` of the nine ints v
    (row by row), where ``sc.gap_bounds`` proves that spectrum loxodromic."""
    gaps = sc.gap_bounds(*sc.char_cubic((v[0:3], v[3:6], v[6:9])), max(max(v), -min(v)))
    if gaps and min(gaps)[0] > (1 + float(sc.MODULI_GAP_MARGIN)) * (1 + sc.GAP_FILTER_BOUND):
        return min(gaps)[0], min(gaps[0][1], gaps[1][1])
    return None


def loxodromic_eigen(rep: rp.Representation, w: GroupWord) -> sc.EigenResult:
    """Eigen data of the word image; raises for non-loxodromic images."""
    res = _spectrum(rp.evaluate(rep, w))
    if not res.loxodromic:
        raise NonLoxodromic("word image has collapsing eigenvalue moduli")
    return res


def _square_bound(tol: mpf) -> tuple:
    """tol^2 = man^2 2^(2 exp) as ints (man^2, left, right), for ``_stop_pairs``."""
    return tol.man**2, max(-2 * tol.exp, 0), max(2 * tol.exp, 0)


def _chart_pairs(g: tuple) -> list:
    """Ints (N, D) per pair of base corner images (x, y, z) under g (nine ints),
    whose squared chart distance is N / D: with u = y - z and w = y + z (own
    scales cancel), N = (x_i w_j - x_j w_i)^2 + (u_i w_j - u_j w_i)^2, D = (w_i w_j)^2.
    The corners are ``bx.STANDARD_CORNERS``, p = (-1, 1, 0), q = (1, 1, 0),
    r = (1, 0, 1), s = (-1, 0, 1), so the images are sums and differences of
    g's columns: g p = c1 - c0, g q = c0 + c1, g r = c0 + c2, g s = c2 - c0."""
    g0, g1, g2, g3, g4, g5, g6, g7, g8 = g
    images = []
    for x, y, z in ((g1 - g0, g4 - g3, g7 - g6), (g0 + g1, g3 + g4, g6 + g7),
                    (g0 + g2, g3 + g5, g6 + g8), (g2 - g0, g5 - g3, g8 - g6)):
        if y + z == 0:
            raise DegenerateConfiguration("point at infinity of the chart")
        images.append((x, y - z, y + z))
    return [
        ((xi * wj - xj * wi) ** 2 + (ui * wj - uj * wi) ** 2, (wi * wj) ** 2)
        for i, (xi, ui, wi) in enumerate(images)
        for xj, uj, wj in images[i + 1:]
    ]


def _stop_pairs(g: tuple, bound: tuple):
    """``_chart_pairs(g)`` if every N / D < tol^2 (a tie fails), else None.
    The diagonal (p, r), whose chart length is at most the diameter, is
    tested first, inline: a depth where it fails forms no other pair."""
    square, left, right = bound
    g0, g1, g2, g3, g4, g5, g6, g7, g8 = g
    wp, wr = g4 - g3 + g7 - g6, g3 + g5 + g6 + g8
    if wp == 0 or wr == 0:
        raise DegenerateConfiguration("point at infinity of the chart")
    xp, xr, up, ur = g1 - g0, g0 + g2, g4 - g3 - g7 + g6, g3 + g5 - g6 - g8
    if not ((xp * wr - xr * wp) ** 2 + (up * wr - ur * wp) ** 2) << left < square * (wp * wr) ** 2 << right:
        return None
    pairs = _chart_pairs(g)
    return pairs if all(n << left < square * d << right for n, d in pairs) else None


def _diameter(pairs: list) -> mpf:
    """The diameter as an mpf, rounded down: below tol where ``_stop_pairs`` stops.
    The largest N / D, found by cross-multiplying, is rounded unreduced."""
    n, d = max(pairs, key=cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1]))
    prec = mpmath.mp.prec
    return mpmath.mp.make_mpf(mpf_sqrt(from_rational(n, d, prec, "d"), prec, "d"))


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

    The depths are walked in turn, and no product past the stop (or past
    P, formed first) is formed.  A depth is first tested on the diagonal
    (p, r) alone, whose chart length is at most d(n), and only then on
    all six corner pairs, which alone decide the stop (``_stop_pairs``, on
    column sums of g_n: the corners are constants).  A tol at or below
    ``sc.float_epsilon()`` is rejected: there d is rounding noise and no
    longer falls.

    The products run on the scaled-integer kernel of ``scalars`` (its
    error bound is stated there), set up once per point
    (``Representation.limit_setup``); the stop test is exact on their
    ints, and ``diameter_at_stop`` is d(stop) rounded down.
    The word must be loxodromic, as the period product P's spectrum
    decides (the chain converges to P's attracting flag): from the gap
    filter on P's ints where it decides, else in mpf, to the same verdict.

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
    step_images, bottom, bottom_line = rep.limit_setup
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

    p = product(period)
    if not _least_gap_bounds(p) and not _spectrum(sc.scaled_to_mat(p)).loxodromic:
        raise NonLoxodromic("word image has collapsing eigenvalue moduli")

    bound = _square_bound(tol)
    depth = 0
    while not (pairs := _stop_pairs(product(depth), bound)):
        if depth >= depth_cap:
            raise NoConvergence("depth cap reached before the boxes collapsed")
        depth += 1
    g = sc.scaled_to_mat(product(depth))

    point = _unit_max_norm(sc.mat_vec(g, bottom))
    # lines transform by the inverse transpose, projectively the
    # transposed adjugate (avoids dividing by the tiny determinant of a
    # long contraction product)
    dual = _unit_max_norm(sc.mat_vec(sc.mat_transpose(sc.adjugate(g)), bottom_line))
    return LimitSample(w, point, dual, incidence_residual(dual, point), _diameter(pairs), depth)


def _unit_max_norm(v) -> tuple:
    """The mpf vector v over its max |entry|."""
    top = sc.vec_max_abs(v)
    return (v[0] / top, v[1] / top, v[2] / top)


def incidence_residual(line, point) -> mpf:
    """|<line|point>| of the two mpf vectors scaled to unit norm."""
    return abs(sc.dot(sc.vec_scale(line, 1 / sc.vec_norm(line)), sc.vec_scale(point, 1 / sc.vec_norm(point))))


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
    t, s, d = sc.char_cubic(g)
    disc = 18 * t * s * d - 4 * t**3 * d + t * t * s * s - 4 * s**3 - 27 * d * d
    tied = d != 0 and (disc == 0 or (disc > 0 and d == t * s and s < 0))
    return d != 0 and disc > 0 and not tied, (mpf(1) if tied else None)


def _image_bounds(g: tuple) -> tuple | None:
    """``_least_gap_bounds`` of a word image's entries as the ints n g, exactly:
    n is an exact image's common denominator (``rp._cleared``), or 2^-e for
    an mpf image's least exponent e.  None where max|n g| < n, that is
    max|g| < 1 (``is_singular`` reads its scale)."""
    if sc.mat_is_exact(g):
        n, g = rp._cleared(g)
        v = [x for row in g for x in row]
    else:
        v, low = sc.to_exact_scaled(x for row in g for x in row)
        n = 2**-low
    return _least_gap_bounds(v) if max(max(v), -min(v)) >= n else None


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
    those of w in reverse order.  So each class of {w, w^-1} under even
    conjugation (``modular.even_class_key``) takes one verdict, at its
    first word in scan order, a shortest one.  Conjugation by an odd word
    (a rotation of w by a single I) swaps A and B^lambda and is not
    inner, so it does not merge classes.

    A class's verdict comes from the gap filter (``_image_bounds``) where
    it decides; after the walk, in scan order, only the other classes and
    those whose least gap may be the least of all (by the brackets,
    widened) are solved in mpf, so ``min_gap`` keeps its bits.  The
    brackets hold for an exact image too, whose mpf spectrum is that of
    the image rounded once per entry.  There the other classes take
    ``_exact_verdict``'s verdict and the mpf spectrum's gap, or exactly 1
    where the exact cubic has two equal moduli.

    Words and classes are ``modular.scan_plan(max_len)``'s.  Images are
    formed for the classes' first words and cached by letters: a prefix's
    image times one letter image (as in ``evaluate``; none for a last I or
    a first rotation letter), 10 products at length 10 (72 words), 30 at 12.
    """
    words, first_words = md.scan_plan(max_len)
    # letters of a word -> its image
    images = {(): sc.IDENTITY}

    def image(letters):
        if letters not in images:
            g, last = image(letters[:-1]), letters[-1]
            if last != "I":
                h = rep.letter_images[letters.count("I") % 2][last]
                g = h if g is sc.IDENTITY else sc.mat_mul(g, h)
            images[letters] = g
        return images[letters]

    # class key -> (image, bounds on its least gap or None) of its first word
    firsts = {}
    for key, letters in first_words:
        g = image(letters)
        firsts[key] = g, _image_bounds(g)
    # a closure that calls itself is a reference cycle: drop it, so its
    # images are freed now and not by the cyclic collector
    del image
    # a class bounded below by more than this does not hold min_gap: some
    # decided class's mpf gap is smaller
    least = min((b[1] for _, b in firsts.values() if b), default=math.inf) * (1 + 4 * sc.GAP_FILTER_BOUND)
    # class key -> (loxodromic, min gap or None) of its first word
    classes = {key: (True, None) if b and b[0] > least else _class_verdict(g) for key, (g, b) in firsts.items()}
    return {
        "scanned": len(words),
        "min_gap": min((gap for _, gap in classes.values() if gap is not None), default=None),
        "non_loxodromic": [w for w, key in words if not classes[key][0]],
    }
