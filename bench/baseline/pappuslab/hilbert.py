"""Hilbert metric, Finsler norm and distortion on convex quadrilaterals.

Every ConvexQuad carries its own adapted chart in which the four
vertices are the corners of the unit square; distances and norms are
computed there with closed-form boundary intersections, which is valid
because the Hilbert metric is a projective invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np
from mpmath import mpf

from . import projective as pj
from . import scalars as sc
from .errors import NotNested, OutsideDomain, PappusLabError
from .projective import Point

SQUARE_CORNERS = (
    Point((-1, 1, 0)),
    Point((1, 1, 0)),
    Point((1, 0, 1)),
    Point((-1, 0, 1)),
)


def square_chart(coords):
    """Chart (x/(y+z), (y-z)/(y+z)); the quad becomes the unit square."""
    x, y, z = coords
    w = y + z
    if w == 0:
        raise OutsideDomain("point at infinity of the adapted chart")
    return (sc.to_mpf(x) / sc.to_mpf(w), sc.to_mpf(y - z) / sc.to_mpf(w))


def embed_chart(xy):
    """Homogeneous coordinates of a chart point (inverse of square_chart)."""
    x, yy = xy
    return (x, (1 + yy) / 2, (1 - yy) / 2)


@dataclass(frozen=True)
class ConvexQuad:
    """An ordered projective quadrilateral with its adapted chart.

    vertices must be in cyclic order; the cached basis matrix maps them
    to (-1,1), (1,1), (1,-1), (-1,-1) in the chart.
    """

    vertices: tuple
    basis: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.vertices) != 4:
            raise PappusLabError("a quadrilateral needs four vertices")
        try:
            m = pj.frame_map(self.vertices, SQUARE_CORNERS)
        except PappusLabError as exc:
            raise PappusLabError("quad vertices are not in general position") from exc
        object.__setattr__(self, "basis", m)

    def chart(self, x: Point):
        return square_chart(sc.mat_vec(self.basis, x.coords))

    def contains(self, x: Point, strict: bool = True) -> bool:
        cx, cy = (sc.to_mpf(c) for c in self.chart(x))
        if strict:
            return abs(cx) < 1 and abs(cy) < 1
        return abs(cx) <= 1 and abs(cy) <= 1

    def point_at(self, chart_xy) -> Point:
        v = sc.mat_vec(sc.mat_inverse(self.basis), embed_chart(chart_xy))
        return Point(v)


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
    cx = tuple(sc.to_mpf(c) for c in domain.chart(x))
    cy = tuple(sc.to_mpf(c) for c in domain.chart(y))
    if max(abs(cx[0]), abs(cx[1])) >= 1 or max(abs(cy[0]), abs(cy[1])) >= 1:
        raise OutsideDomain("both points must be interior")
    d = (cy[0] - cx[0], cy[1] - cx[1])
    if d[0] == 0 and d[1] == 0:
        return mpf(0)
    t_minus, t_plus = _square_hit_times(cx, d)
    # boundary points at parameters -t_minus and t_plus; x at 0, y at 1
    ratio = ((t_minus + 1) / t_minus) * (t_plus / (t_plus - 1))
    return mpmath.log(ratio) / 2


def hilbert_norm(domain: ConvexQuad, x: Point, v):
    """Finsler norm of a chart direction v at an interior point x.

    Equals (|v|/2) (1/|x-p^-| + 1/|x-p^+|) for the two boundary hits of
    the chart line through x with direction v; infinitesimal version of
    hilbert_distance.
    """
    cx = tuple(sc.to_mpf(c) for c in domain.chart(x))
    if max(abs(cx[0]), abs(cx[1])) >= 1:
        raise OutsideDomain("norm is defined at interior points")
    d = (sc.to_mpf(v[0]), sc.to_mpf(v[1]))
    if d[0] == 0 and d[1] == 0:
        raise OutsideDomain("zero direction")
    t_minus, t_plus = _square_hit_times(cx, d)
    return (1 / t_minus + 1 / t_plus) / 2


# ---------------------------------------------------------------------------
# distortion (vectorized sampling)


def _np_forward_time(px, py, dx, dy):
    """Vectorized exit time of the ray (px,py) + t (dx,dy) from the open
    unit square (per-coordinate wall hit, then minimum)."""
    safe_dx = np.where(dx == 0, 1.0, dx)
    safe_dy = np.where(dy == 0, 1.0, dy)
    tx = np.where(dx > 0, (1 - px) / safe_dx, (-1 - px) / safe_dx)
    ty = np.where(dy > 0, (1 - py) / safe_dy, (-1 - py) / safe_dy)
    tx = np.where(dx == 0, np.inf, tx)
    ty = np.where(dy == 0, np.inf, ty)
    return np.minimum(tx, ty)


def _np_square_norm(px, py, dx, dy):
    """Vectorized Finsler norm of the unit square at (px,py), direction
    (dx,dy); arrays broadcast together."""
    t_plus = _np_forward_time(px, py, dx, dy)
    t_minus = _np_forward_time(px, py, -dx, -dy)
    return (1 / t_minus + 1 / t_plus) / 2


def distortion_estimate(inner: ConvexQuad, outer: ConvexQuad, resolution: int = 32, directions: int = 16):
    """Sampled lower estimate of the distortion constant C(inner, outer).

    Minimum over an interior grid and a direction fan of the Finsler
    norm ratio ||v||_inner / ||v||_outer; a sampled lower bound of
    nothing and an approximation from below of the true constant up to
    grid error.  Requires the closed inner quad inside the closed outer
    quad (corners may touch the boundary; the sampled grid itself must
    stay strictly interior).
    """
    slack = 1 + mpmath.sqrt(sc.float_epsilon())
    for v in inner.vertices:
        cx, cy = (sc.to_mpf(c) for c in outer.chart(v))
        if abs(cx) > slack or abs(cy) > slack:
            raise NotNested("inner quad closure must sit inside the outer quad")

    # transition from inner chart to outer chart: affine in homogeneous form
    m = sc.mat_mul(sc.mat_to_mpf(outer.basis), sc.mat_inverse(sc.mat_to_mpf(inner.basis)))
    mf = np.array([[float(x) for x in row] for row in m])
    # embed_chart is affine: h(X,Y) = col_x * X + col_y * Y/2 ... explicitly
    # h = M @ (X, (1+Y)/2, (1-Y)/2)
    ax = mf[:, 0]
    ay = (mf[:, 1] - mf[:, 2]) / 2
    c0 = (mf[:, 1] + mf[:, 2]) / 2

    ticks = np.linspace(-1 + 1.0 / resolution, 1 - 1.0 / resolution, resolution)
    px, py = np.meshgrid(ticks, ticks)
    px = px.ravel()[None, :]
    py = py.ravel()[None, :]

    angles = np.arange(directions) * math.pi / directions
    dx = np.cos(angles)[:, None]
    dy = np.sin(angles)[:, None]

    norm_inner = _np_square_norm(px, py, dx, dy)

    h = ax[:, None] * px[0] + ay[:, None] * py[0] + c0[:, None]  # 3 x N
    w = h[1] + h[2]
    if np.any(w == 0):
        raise NotNested("image grid touches the chart horizon")
    qx = h[0] / w
    qy = (h[1] - h[2]) / w
    if np.max(np.abs(qx)) >= 1 or np.max(np.abs(qy)) >= 1:
        raise NotNested("sampled interior point escapes the outer quad")

    # pushforward of the direction through the chart transition
    dh = (ax[:, None, None] * dx[None, :, :] + ay[:, None, None] * dy[None, :, :])  # 3 x D x 1
    dw = dh[1] + dh[2]
    jx = (dh[0] * w[None, :] - h[0][None, :] * dw) / (w * w)[None, :]
    jy = ((dh[1] - dh[2]) * w[None, :] - (h[1] - h[2])[None, :] * dw) / (w * w)[None, :]

    norm_outer = _np_square_norm(qx[None, :], qy[None, :], jx, jy)
    ratio = norm_inner / norm_outer
    return mpf(float(np.min(ratio)))
