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
- ``doubling_check``: crossing-counted norm doubling along sequences;
- ``loxodromy_scan``: eigenvalue-gap survey of short words.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache

import mpmath
from mpmath import mpf
from mpmath.libmp import fzero, mpf_add, mpf_div, mpf_gt, mpf_mul, mpf_pos, mpf_sub

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
    PappusLabError,
    NonLoxodromic,
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
    outer = bx.convex_interior(box)
    best = None
    for w in W_STEPS:
        g = rep.step_images[w]
        inner = bx.convex_interior(bx.apply_matrix(box, g))
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


LIMIT_TOL = mpf("1e-12")
LIMIT_DEPTH_CAP = 10**4


def _chart_diameter(box_points) -> mpf:
    """Largest chart distance between float-mode points.

    One square root, of the largest squared distance: mpmath's sqrt is
    correctly rounded and monotone, so that is the largest distance.

    The chart is ``bx.chart_coords``, x / (y + z) and (y - z) / (y + z).
    As in the float kernel of ``scalars``, the arithmetic runs on the raw
    ``_mpf_`` values with the libmp calls mpf's operators would make, at
    the precision and rounding they read (``mpmath.mp._prec_rounding``),
    so the bits are theirs.
    """
    prec, rnd = mpmath.mp._prec_rounding
    coords = []
    for x, y, z in box_points:
        w = mpf_add(y._mpf_, z._mpf_, prec, rnd)
        if w == fzero:
            raise DegenerateConfiguration("point at infinity of the chart")
        coords.append((
            mpf_div(mpf_pos(x._mpf_, prec, rnd), w, prec, rnd),
            mpf_div(mpf_sub(y._mpf_, z._mpf_, prec, rnd), w, prec, rnd),
        ))
    best = fzero
    for i, (xi, yi) in enumerate(coords):
        for xj, yj in coords[i + 1:]:
            dx, dy = mpf_sub(xi, xj, prec, rnd), mpf_sub(yi, yj, prec, rnd)
            # max(best, dx * dx + dy * dy)
            d2 = mpf_add(mpf_mul(dx, dx, prec, rnd), mpf_mul(dy, dy, prec, rnd), prec, rnd)
            best = d2 if mpf_gt(d2, best) else best
    return mpmath.sqrt(mpmath.mp.make_mpf(best))


def _spectrum(g: tuple) -> sc.EigenResult:
    """Eigen data of the determinant-one normalization of a word image.

    A float-mode image is a product at the working precision already,
    so only an image with an exact entry is converted to mpf first.
    """
    if not all(isinstance(x, mpf) for row in g for x in row):
        g = sc.mat_to_mpf(g)
    return sc.eigen_real(sc.normalize_det_one(g))


def loxodromic_eigen(rep: rp.Representation, w: GroupWord) -> sc.EigenResult:
    """Eigen data of the word image; raises for non-loxodromic images."""
    res = _spectrum(rp.evaluate(rep, w))
    if not res.loxodromic:
        raise NonLoxodromic("word image has collapsing eigenvalue moduli")
    return res


def _first_depth_below(diameter, tol, first_probe: int, depth_cap: int) -> int:
    """First depth n <= depth_cap with diameter(n) < tol, for a diameter
    that never grows with n (NoConvergence if none).  The bracket
    d(lo) >= tol > d(hi) closes at hi = lo + 1, so the probes, where log d
    taken as linear in n meets log tol, change the cost only: through d(0)
    and d(lo), rounded down and held to [lo + 1, 2 lo + 1], until there is
    a hi; then through d(lo) and d(hi), held inside (the midpoint without
    a rate)."""
    log_tol = mpmath.log(tol)  # mpf logs: d can underflow float64

    def crossing(a, b):
        # None without a usable rate: d(b) is 0, or the logs do not fall
        # (an ulp apart, diameters can have equal logs)
        log_da, db = mpmath.log(diameter(a)), diameter(b)
        fall = log_da - mpmath.log(db) if db > 0 else 0
        return a + (log_da - log_tol) * (b - a) / fall if fall > 0 else None

    lo, hi = 0, (0 if diameter(0) < tol else None)
    while hi is None or hi > lo + 1:
        if hi is not None:
            x = crossing(lo, hi)
            probe = (lo + hi) // 2 if x is None else min(max(int(mpmath.ceil(x)), lo + 1), hi - 1)
        elif lo >= depth_cap:
            raise NoConvergence("depth cap reached before the boxes collapsed")
        elif lo:
            # rounded down: each depth probed past the stop costs a product
            x = crossing(0, lo)
            probe = min(2 * lo + 1 if x is None else max(int(x), lo + 1), 2 * lo + 1, depth_cap)
        else:
            probe = min(first_probe, depth_cap)
        if diameter(probe) < tol:
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
    grows with n and ``_first_depth_below`` need not test every depth; the
    products are still formed in turn, so every result is the same as the
    linear scan's.  A tol at or below ``sc.float_epsilon()`` is rejected:
    there d is rounding noise and no longer falls.

    The iteration uses the crossing normal form of w, a cyclic
    conjugate; for words not already in that form the result is the
    attracting flag of the conjugated word.
    """
    if not md.in_subgroup_o(w):
        raise NotInSubgroupO("limit points need even-involution words")
    if not bx.in_region(rep.lam):
        raise NotInRegionInterior("deformation outside the admissible region")
    if tol <= sc.float_epsilon():
        raise ToleranceBelowPrecision("limit tol must exceed 2^(8 - precision)")
    loxodromic_eigen(rep, w)

    # the crossing normal form is a sequence of four-letter step words
    letters = md.crossing_form(w).letters
    step_mats = [
        sc.mat_to_mpf(rep.step_images[GroupWord(letters[k: k + 4])])
        for k in range(0, len(letters), 4)
    ]

    box = bx.from_moduli(rep.moduli)
    corners = [sc.vec_to_mpf(p.coords) for p in (box.p, box.q, box.r, box.s)]
    bottom = sc.vec_to_mpf(box.b.coords)
    bottom_line = sc.vec_to_mpf(box.line_B.coords)

    period = len(step_mats)
    mats = [sc.mat_to_mpf(sc.IDENTITY)]

    @cache
    def diameter(n):
        while len(mats) <= n:
            mats.append(sc.mat_mul(mats[-1], step_mats[(len(mats) - 1) % period]))
        return _chart_diameter([sc.mat_vec(mats[n], c) for c in corners])

    depth = _first_depth_below(diameter, tol, period, depth_cap)
    g = mats[depth]

    point = Point(sc.mat_vec(g, bottom))
    # lines transform by the inverse transpose, projectively the
    # transposed adjugate (avoids dividing by the tiny determinant of a
    # long contraction product)
    dual = Line(sc.mat_vec(sc.mat_transpose(sc.adjugate(g)), bottom_line))
    residual = pj.incidence_residual(dual.coords, point.coords)
    return LimitSample(
        word=w,
        point=point,
        dual_point=dual,
        flag_residual=residual,
        diameter_at_stop=diameter(depth),
        depth=depth,
    )


# ---------------------------------------------------------------------------
# doubling diagnostic


def doubling_check(
    rep: rp.Representation,
    budget: int = 24,
    sequences: int = 20,
    seed: int = 0,
    resolution: int = 8,
    fixed_sequence=None,
    window: int = None,
    direction=(1, 0.3),
) -> dict:
    """Crossing-counted doubling of the Hilbert norm along sequences.

    For each crossing sequence (random step words, or a fixed one), the
    norm of a fixed direction at a deep interior point is measured in
    every box of the sequence; the report records the worst observed
    growth over a window of N steps (2N crossings), where N is the
    smallest integer with C^N > 2 for the sampled distortion constant
    C, and whether that growth certifies doubling.
    """
    if not bx.in_region(rep.lam):
        raise NotInRegionInterior("deformation outside the admissible region")

    if window is None:
        c = constant_C(rep, resolution=resolution)
        if c > 1:
            window = int(mpmath.ceil(mpmath.log(2) / mpmath.log(c)))
        else:
            window = budget // 2
    else:
        c = None

    box = bx.from_moduli(rep.moduli)
    corners = [sc.vec_to_mpf(p.coords) for p in (box.p, box.q, box.r, box.s)]
    step_mats = {w: sc.mat_to_mpf(g) for w, g in rep.step_images.items()}

    rng = random.Random(seed)
    runs = (
        [tuple(fixed_sequence)]
        if fixed_sequence is not None
        else [
            tuple(rng.choice(W_STEPS) for _ in range(budget))
            for _ in range(sequences)
        ]
    )

    worst = None
    for steps in runs:
        mats = [sc.mat_to_mpf(sc.IDENTITY)]
        for w in steps:
            mats.append(sc.mat_mul(mats[-1], step_mats[w]))
        quads = []
        for g in mats:
            try:
                quads.append(hb.ConvexQuad(tuple(Point(sc.mat_vec(g, cm)) for cm in corners)))
            except PappusLabError:
                # the box contracted below working precision; stop here
                break
        # base point and tangent: the chart center of the deepest usable
        # box (interior to every box of the nested run) and a fixed
        # nearby point defining one projective direction; each box's
        # norm sees that same tangent through its own chart (secant
        # pushforward)
        t = mpf("1e-8")
        center = offset = None
        while quads:
            try:
                center = quads[-1].point_at((mpf(0), mpf(0)))
                offset = quads[-1].point_at(
                    (t * sc.to_mpf(direction[0]), t * sc.to_mpf(direction[1]))
                )
                break
            except PappusLabError:
                quads.pop()
        if len(quads) <= window:
            continue
        norms = []
        for quad in quads:
            cc = tuple(sc.to_mpf(c) for c in quad.chart(center))
            co = tuple(sc.to_mpf(c) for c in quad.chart(offset))
            norms.append(hb.hilbert_norm(quad, center, (co[0] - cc[0], co[1] - cc[1])))
        for n in range(len(norms) - window):
            growth = norms[n + window] / norms[n]
            worst = growth if worst is None else min(worst, growth)
    return {
        "constant": c,
        "window": window,
        "worst_growth": worst,
        "certified": worst is not None and worst >= 2,
    }


# ---------------------------------------------------------------------------
# loxodromy survey


def loxodromy_scan(rep: rp.Representation, max_len: int = 6) -> dict:
    """Eigenvalue-gap survey of all short even-involution words.

    Torsion words (trivial or finite order, whose cyclic core has no
    involution letter) have no axis and are skipped.  Reports the
    minimal gap between consecutive eigenvalue moduli and every
    non-loxodromic word found.

    The scan walks the word tree: ``enumerate_words`` is breadth-first
    and each word is its parent (all but the last letter) times one
    letter, so an image costs at most one product, associated as in
    ``evaluate``.  Only the images of scanned words and of parents are
    formed.
    """
    min_gap = None
    non_loxodromic = []
    scanned = 0
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
        is_parent = len(letters) < max_len
        if not (scan or is_parent):
            continue
        if letters[-1] != "I":
            g = sc.mat_mul(g, rep.letter_images[parity][letters[-1]])
        if is_parent:
            images[letters] = (g, parity)
        if not scan:
            continue
        scanned += 1
        try:
            res = _spectrum(g)
        except (ComplexSpectrum, SingularMatrix):
            non_loxodromic.append(w)
            continue
        gap = min(res.gaps)
        min_gap = gap if min_gap is None else min(min_gap, gap)
        if not res.loxodromic:
            non_loxodromic.append(w)
    return {
        "scanned": scanned,
        "min_gap": min_gap,
        "non_loxodromic": non_loxodromic,
    }
