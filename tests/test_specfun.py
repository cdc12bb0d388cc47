"""Special-function conventions: variance-1 error function and scaled
modified Bessel functions, checked against scipy, a Wronskian identity and
series oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special as sp_special

from blfem.specfun import (
    bessel_i0_scaled,
    bessel_i1_scaled,
    erf_gauss,
    erfc_gauss,
)


class TestErfGauss:
    def test_matches_standard_erf_rescaled(self):
        z = np.linspace(-6.0, 6.0, 241)
        assert np.allclose(erf_gauss(z), sp_special.erf(z / math.sqrt(2.0)), atol=1e-15)

    def test_variance_one_normalization(self):
        # erf_gauss(1) is the +-1 sigma mass of a standard normal
        expected = 2.0 * (sp_special.ndtr(1.0) - 0.5)
        assert erf_gauss(1.0) == pytest.approx(expected, abs=1e-15)

    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_odd_symmetry(self, z):
        assert abs(erf_gauss(z) + erf_gauss(-z)) < 1e-14

    def test_limits(self):
        assert erf_gauss(0.0) == 0.0
        assert erf_gauss(40.0) == pytest.approx(1.0, abs=1e-15)
        assert erfc_gauss(40.0) < 1e-300 or erfc_gauss(40.0) >= 0.0

    def test_erfc_tail_without_cancellation(self):
        # 1 - erf rounds to 0 around z ~ 9; erfc must keep going
        assert erfc_gauss(12.0) > 0.0
        assert erfc_gauss(12.0) < 1e-30

    def test_erfc_complement(self):
        z = np.linspace(-4.0, 4.0, 81)
        assert np.allclose(erf_gauss(z) + erfc_gauss(z), 1.0, atol=1e-14)


class TestBesselScaled:
    def test_matches_scipy_small_arguments(self):
        x = np.linspace(0.0, 30.0, 301)
        assert np.allclose(bessel_i0_scaled(x), sp_special.i0e(x), rtol=1e-13, atol=1e-15)
        assert np.allclose(bessel_i1_scaled(x), sp_special.i1e(x), rtol=1e-13, atol=1e-15)

    def test_matches_scipy_large_arguments(self):
        x = np.array([50.0, 1e2, 1e3, 1e4])
        assert np.allclose(bessel_i0_scaled(x), sp_special.i0e(x), rtol=1e-12)
        assert np.allclose(bessel_i1_scaled(x), sp_special.i1e(x), rtol=1e-12)

    def test_scaled_wronskian_identity(self):
        # I0 K1 + I1 K0 = 1/x; the exp(-x) and exp(x) scalings cancel
        x = np.geomspace(1e-3, 1e4, 401)
        lhs = bessel_i0_scaled(x) * sp_special.k1e(x) + bessel_i1_scaled(x) * sp_special.k0e(x)
        assert np.allclose(lhs * x, 1.0, rtol=0.0, atol=1e-13)

    def test_series_oracle(self):
        # direct truncated power series
        x = 3.0
        total = sum((0.5 * x) ** (2 * k) / math.factorial(k) ** 2 for k in range(40))
        assert bessel_i0_scaled(x) == pytest.approx(math.exp(-x) * total, rel=1e-14)

    def test_i0_bounds_and_monotonicity(self):
        x = np.linspace(0.0, 200.0, 500)
        v = bessel_i0_scaled(x)
        assert v[0] == pytest.approx(1.0)
        assert np.all(v > 0.0)
        assert np.all(v <= 1.0)
        assert np.all(np.diff(v) < 0.0)

    def test_i1_at_zero(self):
        assert bessel_i1_scaled(0.0) == 0.0

    def test_scalar_and_array_shapes(self):
        assert np.isscalar(float(bessel_i0_scaled(2.0)))
        out = bessel_i0_scaled(np.ones((3, 2)))
        assert out.shape == (3, 2)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_i0_scaled(-1.0)
