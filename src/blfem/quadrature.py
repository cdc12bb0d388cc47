"""Quadrature rules: Gauss-Legendre on intervals and triangles, plus
composite layer-resolving rules for boundary-strip integrands that vary on
the sqrt(eps) scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable point/weight set.

    points: (n,) coordinates on an interval, or (n, 2) coordinates on the
        reference triangle {x, y >= 0, x + y <= 1}.
    weights: positive weights summing to the domain measure.
    exactness_degree: highest polynomial degree integrated exactly.
    """

    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    def integrate(self, f):
        vals = f(self.points) if self.points.ndim == 1 else f(self.points[:, 0], self.points[:, 1])
        return float(np.dot(self.weights, vals))


@dataclass(frozen=True)
class QuadratureLayout:
    """Quadrature over the elements of a mesh as flat arrays, the points of
    one element contiguous and elements in mesh order.

    points: (n,) on an interval mesh, (n, 2) on a triangle mesh.
    weights: (n,) physical weights.
    bary: (n, 2) or (n, 3) barycentric coordinates in the owning element.
    element: (n,) mesh index of the owning element.
    starts: offset of each covered element's first point, so that
        `np.add.reduceat(values, starts)` gives per-element sums.
    """

    points: np.ndarray
    weights: np.ndarray
    bary: np.ndarray
    element: np.ndarray
    starts: np.ndarray


@lru_cache(maxsize=None)
def gauss_interval(n_points: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1], exact for degree 2n-1.  Rules are
    shared between callers, so their arrays are read-only."""
    if not 1 <= n_points <= 64:
        raise ValueError("n_points must be in [1, 64]")
    x, w = np.polynomial.legendre.leggauss(n_points)
    points, weights = 0.5 * (x + 1.0), 0.5 * w
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(points, weights, 2 * n_points - 1)


# Symmetric positive-weight triangle rules (reference measure 1/2).
# Barycentric generators; weights are fractions of the triangle area.
_TRI_TABLE = {
    1: [((1 / 3, 1 / 3, 1 / 3), 1.0)],
    2: [((2 / 3, 1 / 6, 1 / 6), 1 / 3)],
    4: [
        ((0.108103018168070, 0.445948490915965, 0.445948490915965), 0.223381589678011),
        ((0.816847572980459, 0.091576213509771, 0.091576213509771), 0.109951743655322),
    ],
    5: [
        ((1 / 3, 1 / 3, 1 / 3), 0.225),
        ((0.059715871789770, 0.470142064105115, 0.470142064105115), 0.132394152788506),
        ((0.797426985353087, 0.101286507323456, 0.101286507323456), 0.125939180544827),
    ],
}


def _tabulated_triangle(degree):
    pts, wts = [], []
    for bary, w in _TRI_TABLE[degree]:
        orbit = {bary, (bary[1], bary[2], bary[0]), (bary[2], bary[0], bary[1])}
        for b in sorted(orbit):
            pts.append((b[0], b[1]))
            wts.append(0.5 * w)
    return np.array(pts), np.array(wts)


def _collapsed_triangle(degree):
    # Duffy-type collapse of a tensor Gauss rule: x = s, y = (1-s) v with
    # Jacobian (1-s).  A total-degree-d polynomial needs degree d+1 in s
    # (Jacobian included) and degree d in v.
    ns = (degree + 3) // 2
    nv = (degree + 2) // 2
    rs = gauss_interval(ns)
    rv = gauss_interval(nv)
    s, v = np.meshgrid(rs.points, rv.points, indexing="ij")
    ws, wv = np.meshgrid(rs.weights, rv.weights, indexing="ij")
    pts = np.column_stack([s.ravel(), ((1.0 - s) * v).ravel()])
    wts = (ws * wv * (1.0 - s)).ravel()
    return pts, wts


def gauss_triangle(degree: int) -> QuadratureRule:
    """Positive-weight rule on the reference triangle, exact to `degree`."""
    if not 1 <= degree <= 10:
        raise ValueError("degree must be in [1, 10]")
    if degree in (3,):
        degree_use = 4
    else:
        degree_use = degree
    if degree_use in _TRI_TABLE:
        pts, wts = _tabulated_triangle(degree_use)
    else:
        pts, wts = _collapsed_triangle(degree_use)
    return QuadratureRule(pts, wts, degree)


def geometric_panels(length: float, n_sub: int, first_width: float) -> np.ndarray:
    """Breakpoints 0 = b_0 < ... < b_n = length with geometrically growing
    panel widths, the first one equal to first_width."""
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    w0 = min(first_width, length / n_sub)
    if n_sub == 1 or w0 * n_sub >= length * (1.0 - 1e-12):
        return np.linspace(0.0, length, n_sub + 1)
    # solve w0 (q^n - 1)/(q - 1) = length for q > 1
    lo, hi = 1.0 + 1e-12, 2.0
    while w0 * (hi**n_sub - 1.0) / (hi - 1.0) < length:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # bracket down to adjacent floats: nothing moves any more
            break
        if w0 * (mid**n_sub - 1.0) / (mid - 1.0) < length:
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    widths = w0 * q ** np.arange(n_sub)
    pts = np.concatenate([[0.0], np.cumsum(widths)])
    pts[-1] = length
    return pts


def composite_interval(breaks: np.ndarray, n_gauss: int) -> QuadratureRule:
    """Gauss rule of n_gauss points on each panel of `breaks`."""
    base = gauss_interval(n_gauss)
    breaks = np.asarray(breaks, dtype=float)
    widths = np.diff(breaks)[:, None]
    pts = breaks[:-1, None] + widths * base.points
    return QuadratureRule(pts.ravel(), (widths * base.weights).ravel(), 2 * n_gauss - 1)


def adaptive_gauss(f, a: float, b: float, abs_tol: float, max_depth: int = 50) -> float:
    """Adaptive Gauss-Legendre integration of a vectorized scalar function.

    Interval bisection keyed on the disagreement between a 10-point estimate
    of the whole interval and the sum over its halves.
    """
    base = gauss_interval(10)

    def panel(lo, hi):
        return float(np.dot((hi - lo) * base.weights, f(lo + (hi - lo) * base.points)))

    def recurse(lo, hi, whole, tol, depth):
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        if abs(left + right - whole) <= tol or depth >= max_depth:
            return left + right
        return recurse(lo, mid, left, 0.5 * tol, depth + 1) + recurse(mid, hi, right, 0.5 * tol, depth + 1)

    if a == b:
        return 0.0
    return recurse(a, b, panel(a, b), abs_tol, 0)
