"""Quadrature rules: exactness on monomials, positivity, layer resolution."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special as sp_special

from blfem.quadrature import (
    composite_interval,
    gauss_interval,
    gauss_triangle,
    geometric_panels,
)


class TestGaussInterval:
    @given(st.integers(min_value=1, max_value=20))
    def test_weights_sum_to_length(self, n):
        rule = gauss_interval(n)
        assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-14)
        assert np.all(rule.weights > 0.0)
        assert np.all((rule.points >= 0.0) & (rule.points <= 1.0))

    def test_monomial_exactness(self):
        for n in (1, 2, 4, 8):
            rule = gauss_interval(n)
            for k in range(rule.exactness_degree + 1):
                exact = 1.0 / (k + 1)
                assert rule.integrate(lambda x: x**k) == pytest.approx(exact, abs=1e-14)

    def test_degree_boundary(self):
        # degree 2n is not integrated exactly (Gauss sharpness)
        rule = gauss_interval(2)
        val = rule.integrate(lambda x: x**4)
        assert abs(val - 0.2) > 1e-6

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gauss_interval(0)
        with pytest.raises(ValueError):
            gauss_interval(65)


class TestGaussTriangle:
    def test_weights_sum_to_area(self):
        rule = gauss_triangle()
        assert np.sum(rule.weights) == pytest.approx(0.5, abs=1e-14)
        assert np.all(rule.weights > 0.0)

    def test_monomial_exactness(self):
        # int over reference triangle of x^p y^q = p! q! / (p + q + 2)!
        rule = gauss_triangle()
        assert rule.exactness_degree == 4
        for p in range(5):
            for q in range(5 - p):
                exact = math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)
                got = rule.integrate(lambda x, y: x**p * y**q)
                assert got == pytest.approx(exact, abs=1e-13), (p, q)

    def test_xy_moment(self):
        assert gauss_triangle().integrate(lambda x, y: x * y) == pytest.approx(1.0 / 24.0, abs=1e-14)

    def test_points_inside_reference_triangle(self):
        rule = gauss_triangle()
        x, y = rule.points[:, 0], rule.points[:, 1]
        assert np.all(x >= -1e-14)
        assert np.all(y >= -1e-14)
        assert np.all(x + y <= 1.0 + 1e-14)


class TestGeometricPanels:
    def test_first_width_and_endpoints(self):
        b = geometric_panels(1.0, 8, 0.001)
        assert b[0] == 0.0
        assert b[-1] == pytest.approx(1.0, abs=1e-14)
        assert b[1] == pytest.approx(0.001, rel=1e-10)
        widths = np.diff(b)
        assert np.all(widths > 0.0)
        # geometric growth: ratios nearly constant and > 1
        ratios = widths[1:] / widths[:-1]
        assert np.all(ratios > 1.0)
        assert np.ptp(ratios) < 1e-6

    def test_degenerates_to_uniform(self):
        b = geometric_panels(1.0, 4, 10.0)  # first width capped at length/n
        assert np.allclose(b, np.linspace(0.0, 1.0, 5))

    @given(
        st.floats(min_value=1e-8, max_value=0.3),
        st.integers(min_value=2, max_value=20),
    )
    def test_partition_property(self, first, n):
        b = geometric_panels(1.0, n, first)
        assert len(b) == n + 1
        assert np.all(np.diff(b) > 0.0)
        assert b[-1] == pytest.approx(1.0, abs=1e-12)


def layer_strip_rule(epsilon, sigma, n_sub=8, n_gauss=5):
    """Composite Gauss rule on [0, sigma] graded toward 0, first panel
    sqrt(4 eps) wide: the layer rule of the 1D enrichment integrals."""
    return composite_interval(geometric_panels(sigma, n_sub, np.sqrt(4.0 * epsilon)), n_gauss)


class TestLayerStripRule:
    def test_resolves_gaussian_layer(self):
        # int_0^sigma (1 - exp(-x^2/(4 eps))) dx has the closed form
        #   sigma - sqrt(pi eps) erf(sigma / (2 sqrt(eps)))
        for eps in (1e-4, 1e-6, 1e-8):
            sigma = 0.1
            rule = layer_strip_rule(eps, sigma)
            got = rule.integrate(lambda x: 1.0 - np.exp(-(x**2) / (4.0 * eps)))
            exact = sigma - math.sqrt(math.pi * eps) * sp_special.erf(sigma / (2.0 * math.sqrt(eps)))
            assert got == pytest.approx(exact, rel=1e-7), eps

    def test_doubling_stability(self):
        eps, sigma = 1e-8, 0.05
        f = lambda x: np.exp(-(x**2) / (4.0 * eps)) * np.cos(40.0 * x)
        coarse = layer_strip_rule(eps, sigma).integrate(f)
        fine = layer_strip_rule(eps, sigma, n_sub=16, n_gauss=10).integrate(f)
        assert abs(coarse - fine) < 1e-8 * max(1.0, abs(fine))

    def test_positive_weights_and_support(self):
        rule = layer_strip_rule(1e-6, 0.2)
        assert np.all(rule.weights > 0.0)
        assert np.all((rule.points >= 0.0) & (rule.points <= 0.2))
        assert np.sum(rule.weights) == pytest.approx(0.2, abs=1e-13)


class TestCompositeAndAdaptive:
    def test_composite_preserves_exactness(self):
        rule = composite_interval(np.array([0.0, 0.3, 1.0]), 3)
        for k in range(6):
            assert rule.integrate(lambda x: x**k) == pytest.approx(1.0 / (k + 1), abs=1e-14)
