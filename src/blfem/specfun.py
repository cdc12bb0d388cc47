"""Special functions in the conventions used by the boundary-layer formulas.

The error function here carries the variance-1 Gaussian kernel, i.e.

    erf_gauss(z) = sqrt(2/pi) * int_0^z exp(-y^2/2) dy = erf_std(z / sqrt(2)).

Every layer formula in this package is written against this convention; the
conversion to the standard kernel is confined to this module so that
factor-of-sqrt(2) mistakes cannot spread.

The scaled modified Bessel functions exp(-x)*I_n(x) are scipy's i0e/i1e,
restricted to x >= 0; the scaling keeps the ratio
I_0(r/sqrt(eps))/I_0(1/sqrt(eps)) computable for eps down to 1e-8
(arguments up to 1e4) without overflow.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

_SQRT2 = math.sqrt(2.0)


def erf_gauss(z):
    """Error function with the exp(-y^2/2) kernel; odd, limits +-1."""
    return _sp.erf(np.asarray(z, dtype=float) / _SQRT2)[()]


def erfc_gauss(z):
    """1 - erf_gauss(z), computed without cancellation in the tail."""
    return _sp.erfc(np.asarray(z, dtype=float) / _SQRT2)[()]


def _nonnegative(x):
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("argument must be nonnegative")
    return arr


def bessel_i0_scaled(x):
    """exp(-x) * I_0(x) for x >= 0; in (0, 1], decreasing in x."""
    return _sp.i0e(_nonnegative(x))


def bessel_i1_scaled(x):
    """exp(-x) * I_1(x) for x >= 0 (needed for radial derivatives)."""
    return _sp.i1e(_nonnegative(x))
