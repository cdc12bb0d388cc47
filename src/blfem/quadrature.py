"""Quadrature rules: Gauss-Legendre on intervals, the degree-4 triangle
rule, and composite layer-resolving rules for boundary-strip integrands that
vary on the sqrt(eps) scale.  The corrector's adaptive time integrals are
left to `scipy.integrate`.
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


def gauss_triangle() -> QuadratureRule:
    """The symmetric 6-point positive-weight rule on the reference triangle
    (measure 1/2), exact to degree 4: two barycentric orbits (a, b, b)."""
    a1, b1, w1 = 0.108103018168070, 0.445948490915965, 0.223381589678011
    a2, b2, w2 = 0.816847572980459, 0.091576213509771, 0.109951743655322
    points = np.array([(a1, b1), (b1, a1), (b1, b1), (b2, b2), (b2, a2), (a2, b2)])
    weights = 0.5 * np.array([w1, w1, w1, w2, w2, w2])
    return QuadratureRule(points, weights, 4)


def _geometric_ratio(length, n_sub, w0):
    """q > 1 with w0 (q^n - 1)/(q - 1) = length, bisected on Python floats
    down to adjacent floats.  Their pow is the C library's: numpy's SIMD
    power differs from it in the last bit for some arguments, which moves
    the last bisection steps."""
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
    return 0.5 * (lo + hi)


def geometric_panels(length: float, n_sub: int, first_width) -> np.ndarray:
    """Breakpoints 0 = b_0 < ... < b_n = length with geometrically growing
    panel widths, the first one equal to first_width.  An array of first
    widths (k,) gives one row of breakpoints per width, (k, n_sub + 1)."""
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    w0 = np.minimum(np.asarray(first_width, dtype=float), length / n_sub)
    graded = (w0 * n_sub < length * (1.0 - 1e-12)) & (n_sub > 1)
    pts = np.empty(w0.shape + (n_sub + 1,))
    if not graded.all():
        pts[~graded] = np.linspace(0.0, length, n_sub + 1)
    if graded.any():
        w0 = w0[graded]
        # the bisection runs faster on floats row by row than as numpy
        # operations on all rows, whose call overhead dominates at this size
        q = np.array([_geometric_ratio(length, n_sub, w) for w in w0.tolist()])
        widths = w0[:, None] * q[:, None] ** np.arange(n_sub)
        rows = np.concatenate([np.zeros((len(q), 1)), np.cumsum(widths, axis=1)], axis=1)
        rows[:, -1] = length
        pts[graded] = rows
    return pts


def composite_points(breaks, n_gauss: int):
    """Points and weights of the Gauss rule of n_gauss points on each panel
    of `breaks` (..., panels + 1), each (..., panels * n_gauss)."""
    base = gauss_interval(n_gauss)
    breaks = np.asarray(breaks, dtype=float)
    widths = np.diff(breaks, axis=-1)[..., None]
    pts = breaks[..., :-1, None] + widths * base.points
    shape = breaks.shape[:-1] + (-1,)
    return pts.reshape(shape), (widths * base.weights).reshape(shape)


def composite_interval(breaks: np.ndarray, n_gauss: int) -> QuadratureRule:
    """Gauss rule of n_gauss points on each panel of `breaks`."""
    return QuadratureRule(*composite_points(breaks, n_gauss), 2 * n_gauss - 1)
