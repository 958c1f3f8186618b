"""Hilbert metric, Finsler norm and distortion on convex quadrilaterals.

Every ConvexQuad carries its own adapted chart in which the four
vertices are the corners of the unit square; distances and norms are
computed there with closed-form boundary intersections, which is valid
because the Hilbert metric is a projective invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import mpmath
from mpmath import mpf

from . import boxes as bx
from . import scalars as sc
from .errors import DegenerateConfiguration, NotNested, OutsideDomain, PappusLabError
from .projective import Point


@dataclass(frozen=True)
class ConvexQuad:
    """An ordered projective quadrilateral with its adapted chart.

    vertices must be in cyclic order; the integral basis matrix maps them
    to the box normal-form corners, so that ``boxes.chart_coords`` sends
    them to (-1,1), (1,1), (1,-1), (-1,-1).  A caller that holds that
    basis already (``convex_interior``, ``constant_C``) passes it unchecked.
    """

    vertices: tuple
    basis: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.vertices) != 4:
            raise PappusLabError("a quadrilateral needs four vertices")
        if self.basis is not None:
            return
        try:
            m = bx.corner_basis(*self.vertices)
        except PappusLabError as exc:
            raise PappusLabError("quad vertices are not in general position") from exc
        object.__setattr__(self, "basis", m)

    def chart(self, x: Point):
        return _chart_of(sc.mat_vec(self.basis, x.coords))

    def point_at(self, chart_xy) -> Point:
        # the integral adjugate: the inverse up to scale, exact next to mpf
        return Point(sc.mat_vec(sc.adjugate(self.basis), bx.chart_point(chart_xy)))


def convex_interior(box: bx.OvermarkedBox) -> ConvexQuad:
    """The box's interior quadrilateral (vertices in cyclic order p,q,r,s).

    Among the candidate quadrilaterals on the corner set this is the one
    containing the adapted-basis center [0:1:1] (the chart origin), which
    is the projectively invariant choice.  Raises NotConvex for a
    nonconvex box.
    """
    return ConvexQuad((box.p, box.q, box.r, box.s), basis=bx.interior_basis(box))


def _chart_of(vec):
    try:
        return bx.chart_coords(vec)
    except DegenerateConfiguration as exc:
        raise OutsideDomain(str(exc)) from exc


def _square_hit_times(x, d):
    """Forward and backward parameter times at which the ray x + t d
    leaves the open unit square.  Returns (t_minus, t_plus), both > 0,
    measured backward and forward."""
    t_plus = None
    t_minus = None
    for xi, di in zip(x, d):
        if di == 0:
            continue
        hi = (1 - xi) / di
        lo = (-1 - xi) / di
        fwd, bwd = (hi, -lo) if di > 0 else (lo, -hi)
        t_plus = fwd if t_plus is None else min(t_plus, fwd)
        t_minus = bwd if t_minus is None else min(t_minus, bwd)
    if t_plus is None:
        raise OutsideDomain("zero direction")
    return t_minus, t_plus


def hilbert_distance(domain: ConvexQuad, x: Point, y: Point):
    """Hilbert distance: half the log of the boundary cross-ratio."""
    # the exact chart, each quotient rounded once
    cx, cy = (tuple(sc.to_mpf(c) for c in domain.chart(v)) for v in (x, y))
    if max(abs(cx[0]), abs(cx[1])) >= 1 or max(abs(cy[0]), abs(cy[1])) >= 1:
        raise OutsideDomain("both points must be interior")
    d = (cy[0] - cx[0], cy[1] - cx[1])
    if d[0] == 0 and d[1] == 0:
        return mpf(0)
    t_minus, t_plus = _square_hit_times(cx, d)
    # boundary points at parameters -t_minus and t_plus; x at 0, y at 1
    ratio = ((t_minus + 1) / t_minus) * (t_plus / (t_plus - 1))
    return mpmath.log(ratio) / 2


# ---------------------------------------------------------------------------
# distortion (sampled in float64)
#
# Python floats are IEEE doubles: the sampling repeats the operations of
# the numpy kernel it replaced, in the same order, so every constant is
# bit-identical to it (tests/test_hilbert.py keeps that kernel as an
# oracle).  Where numpy divided by zero the guards give its inf, and a nan
# anywhere makes the minimum nan, as ``np.min`` does.


@cache
def _sampling(resolution: int, directions: int) -> tuple:
    """Grid points (row by row), direction fan and the unit-square norm
    at each (direction, point) of one sampling shape.  The ticks are
    those of ``np.linspace``: ``i*step + start``, the last one ``stop``."""
    if resolution < 1 or directions < 1:
        raise ValueError("resolution and directions must be positive")
    start, stop = -1 + 1.0 / resolution, 1 - 1.0 / resolution
    step = (stop - start) / max(resolution - 1, 1)
    ticks = [i * step + start for i in range(resolution - 1)] + [stop]
    points = tuple((px, py) for py in ticks for px in ticks)
    angles = [k * math.pi / directions for k in range(directions)]
    fan = tuple((math.cos(a), math.sin(a)) for a in angles)
    hits = [[_square_hit_times(p, d) for p in points] for d in fan]
    return points, fan, tuple(tuple((1 / tm + 1 / tp) / 2 for tm, tp in row) for row in hits)


def _over_zero(x: float) -> float:
    """x / +0.0 in IEEE arithmetic."""
    return math.nan if x != x or x == 0 else math.copysign(math.inf, x)


def distortion_estimate(inner: ConvexQuad, outer: ConvexQuad, resolution: int, directions: int):
    """Sampled distortion constant C(inner, outer), an estimate from above.

    Minimum over an interior grid and a direction fan of the Finsler
    norm ratio ||v||_inner / ||v||_outer, in float64 whatever the
    working precision.  A minimum over samples can only over-estimate
    the infimum that is the true constant; it falls towards it as the
    grid is refined.  Requires the closed inner quad inside the closed
    outer quad (corners may touch the boundary; the sampled grid itself
    must stay strictly interior).
    """
    slack = 1 + mpmath.sqrt(sc.float_epsilon())
    for v in inner.vertices:
        cx, cy = (sc.to_mpf(c) for c in outer.chart(v))
        if abs(cx) > slack or abs(cy) > slack:
            raise NotNested("inner quad closure must sit inside the outer quad")
    points, fan, inner_norms = _sampling(resolution, directions)

    # transition from inner chart to outer chart: affine in homogeneous form
    m = sc.mat_mul(sc.mat_to_mpf(outer.basis), sc.mat_inverse(sc.mat_to_mpf(inner.basis)))
    # scaled by a power of two to max |entry| in [1/2, 1), which commutes
    # with every float64 step below, so the scale of the quads' coordinates
    # cannot overflow or underflow them
    top = mpmath.frexp(sc.mat_max_abs(m))[1]
    m = [[mpmath.ldexp(x, -top) for x in row] for row in m]
    # chart_point is affine: h = M @ (X, (1+Y)/2, (1-Y)/2) = ax X + ay Y + c0
    (a0, b0, e0), (a1, b1, e1), (a2, b2, e2) = (
        (r[0], (r[1] - r[2]) / 2, (r[1] + r[2]) / 2) for r in ([float(x) for x in row] for row in m)
    )
    samples = []  # per point: h0, h1 - h2, w = h1 + h2, w*w, numerators of the exit times
    qs = []
    for px, py in points:
        h1, h2 = a1 * px + b1 * py + e1, a2 * px + b2 * py + e2
        h0, h12, w = a0 * px + b0 * py + e0, h1 - h2, h1 + h2
        if w == 0:
            raise NotNested("image grid touches the chart horizon")
        qx, qy = h0 / w, h12 / w
        qs.append((qx, qy))
        samples.append((h0, h12, w, w * w, 1 - qx, -1 - qx, 1 - qy, -1 - qy))
    qx, qy = zip(*qs)
    # a nan makes np.max nan, never >= 1, and then the minimum nan
    if any(not any(map(math.isnan, q)) and max(map(abs, q)) >= 1 for q in (qx, qy)):
        raise NotNested("sampled interior point escapes the outer quad")
    if any(map(math.isnan, qx + qy)):
        return mpf(math.nan)

    inf = best = math.inf
    for (dx, dy), norms in zip(fan, inner_norms):
        # pushforward of the direction through the chart transition
        dh0, dh1, dh2 = a0 * dx + b0 * dy, a1 * dx + b1 * dy, a2 * dx + b2 * dy
        dh12, dw = dh1 - dh2, dh1 + dh2
        for (h0, h12, w, ww, ux, lx, uy, ly), ni in zip(samples, norms):
            nx, ny = dh0 * w - h0 * dw, dh12 * w - h12 * dw
            jx = nx / ww if ww else _over_zero(nx)
            jy = ny / ww if ww else _over_zero(ny)
            # forward (plus) and backward (minus) exit times along each axis
            if jx > 0:
                tpx, tmx = ux / jx, lx / -jx
            elif jx < 0:
                tpx, tmx = lx / jx, ux / -jx
            elif jx == 0:
                tpx = tmx = inf
            else:
                return mpf(math.nan)
            if jy > 0:
                tpy, tmy = uy / jy, ly / -jy
            elif jy < 0:
                tpy, tmy = ly / jy, uy / -jy
            elif jy == 0:
                tpy = tmy = inf
            else:
                return mpf(math.nan)
            tp, tm = (tpx if tpx < tpy else tpy), (tmx if tmx < tmy else tmy)
            no = ((1 / tm if tm else inf) + (1 / tp if tp else inf)) / 2
            if no and ni / no < best:  # a zero norm gives an inf ratio
                best = ni / no
    return mpf(best)
