"""Limit solution, heat-kernel corrector, cutoff, and enrichment profiles."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from blfem.assembly import element_rules_2d, fitted_arrays
from blfem.corrector import (
    ENRICHMENT_KINDS,
    CutoffSpec,
    EnrichmentSpec,
    ProblemData,
    _kernel_time_integral,
    _kernel_time_integral_dxi,
    cutoff_delta,
    cutoff_delta_dxi,
    enrichment_profile,
    enrichment_profile_dxi,
    heat_kernel_I,
    limit_solution,
    theta0,
)
from blfem.mesh import build_disk_mesh
from blfem.quadrature import gauss_interval
from blfem.specfun import erfc_gauss


def _data_1d(epsilon=1e-3, f=None, u0=None, T=1.0):
    f = f or (lambda x, t: t * np.cos(np.pi * np.asarray(x)))
    u0 = u0 or (lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    return ProblemData(dim=1, f=f, u0_initial=u0, epsilon=epsilon, T=T)


def _data_2d(epsilon=1e-3, T=1.0):
    f = lambda x, y, t: t * (1.0 + np.asarray(x) * 0.0)
    u0 = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    return ProblemData(dim=2, f=f, u0_initial=u0, epsilon=epsilon, T=T)


class TestProblemData:
    def test_rejects_nonzero_boundary_initial_condition(self):
        with pytest.raises(ValueError):
            _data_1d(u0=lambda x: np.ones_like(np.asarray(x, dtype=float)))

    def test_warns_on_nonzero_source_at_t0(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            data = _data_1d(f=lambda x, t: np.ones_like(np.asarray(x, dtype=float)))
        assert data.warnings_issued
        assert any("layer estimates" in str(w.message) for w in rec)

    def test_boundary_point_addressing(self):
        d1 = _data_1d()
        assert d1.boundary_point(0.0) == (0.0,)
        assert d1.boundary_point(1.0) == (1.0,)
        with pytest.raises(ValueError):
            d1.boundary_point(0.5)
        d2 = _data_2d()
        x, y = d2.boundary_point(math.pi / 2.0)
        assert (x, y) == pytest.approx((0.0, 1.0), abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemData(dim=3, f=lambda x, t: 0.0, u0_initial=lambda x: 0.0, epsilon=1.0, T=1.0)
        with pytest.raises(ValueError):
            _data_1d(epsilon=-1.0)


class TestLimitSolution:
    def test_quadratic_in_time_for_linear_source(self):
        data = _data_1d()
        # f = t cos(pi x)  =>  u0 + t^2/2 cos(pi x)
        got = limit_solution(data, (0.25,), 0.8)
        assert got == pytest.approx(0.5 * 0.8**2 * math.cos(math.pi * 0.25), abs=1e-12)

    def test_uses_antiderivative_when_given(self):
        data = ProblemData(
            dim=1,
            f=lambda x, t: t * np.cos(np.pi * np.asarray(x)),
            u0_initial=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            epsilon=1e-3,
            T=1.0,
            f_antiderivative=lambda x, t: 0.5 * t**2 * np.cos(np.pi * np.asarray(x)),
        )
        assert limit_solution(data, (0.3,), 0.5) == pytest.approx(
            0.5 * 0.25 * math.cos(0.3 * math.pi), abs=1e-14
        )

    def test_time_zero_returns_initial_condition(self):
        data = _data_1d(u0=lambda x: np.sin(np.pi * np.asarray(x)))
        assert limit_solution(data, (0.5,), 0.0) == pytest.approx(1.0)


class TestHeatKernel:
    def test_boundary_and_far_field(self):
        eps = 1e-4
        assert heat_kernel_I(0.0, 0.5, eps) == pytest.approx(1.0)
        assert heat_kernel_I(0.25, 0.5, eps) < 1e-30
        assert heat_kernel_I(0.0, 0.0, eps) == 1.0
        assert heat_kernel_I(0.1, 0.0, eps) == 0.0

    def test_monotone_in_xi_and_t(self):
        eps = 1e-3
        xi = np.linspace(0.0, 0.2, 50)
        v = heat_kernel_I(xi, 0.5, eps)
        assert np.all(np.diff(v) < 0.0)
        t = np.linspace(0.1, 1.0, 30)
        v = heat_kernel_I(0.05, t, eps)
        assert np.all(np.diff(v) > 0.0)

    def test_satisfies_layer_heat_equation(self):
        # I_t = eps I_xixi via central differences, away from t = 0
        eps = 1e-2
        for xi, t in ((0.05, 0.4), (0.1, 0.7), (0.02, 0.2)):
            h = 1e-4
            it = (heat_kernel_I(xi, t + h, eps) - heat_kernel_I(xi, t - h, eps)) / (2.0 * h)
            ixx = (
                heat_kernel_I(xi + h, t, eps)
                - 2.0 * heat_kernel_I(xi, t, eps)
                + heat_kernel_I(xi - h, t, eps)
            ) / h**2
            assert it == pytest.approx(eps * ixx, rel=1e-6, abs=1e-10)


class TestTheta0:
    def test_cancels_limit_solution_on_boundary(self):
        # at xi = 0 the kernel is 1, so theta0 = -int_0^t f(boundary, s) ds,
        # which is exactly -(limit solution - u0) there
        for data in (_data_1d(), _data_2d()):
            etas = (0.0, 1.0) if data.dim == 1 else (0.0, 1.3, 4.0)
            for eta in etas:
                t = 0.8
                target = -(limit_solution(data, data.boundary_point(eta), t))
                assert theta0(data, eta, 0.0, t) == pytest.approx(target, abs=1e-8)

    def test_exponentially_small_outside_layer(self):
        data = _data_1d(epsilon=1e-5)
        assert abs(theta0(data, 0.0, 0.25, 1.0)) < 1e-30

    def test_bounded_by_time_integral_of_source(self):
        data = _data_1d(epsilon=1e-3)
        t = 1.0
        bound = t * 1.0  # |f| <= t |cos| <= 1 on [0, t]
        for xi in (0.0, 0.001, 0.01, 0.05):
            assert abs(theta0(data, 0.0, xi, t)) <= bound + 1e-12

    def test_zero_at_time_zero(self):
        assert theta0(_data_1d(), 0.0, 0.01, 0.0) == 0.0


class TestCutoff:
    def test_plateau_and_decay(self):
        spec = CutoffSpec()
        assert cutoff_delta(spec, 0.0) == 1.0
        assert cutoff_delta(spec, 0.25) == 1.0
        assert cutoff_delta(spec, 0.5) == 0.0
        assert cutoff_delta(spec, 0.9) == 0.0
        assert cutoff_delta(spec, 0.375) == pytest.approx(0.5)

    @pytest.mark.parametrize("degree", [3, 5])
    def test_monotone_and_smooth(self, degree):
        spec = CutoffSpec(degree=degree)
        xi = np.linspace(0.0, 1.0, 400)
        v = cutoff_delta(spec, xi)
        assert np.all(np.diff(v) <= 1e-14)
        # derivative consistency by central differences
        h = 1e-6
        xs = np.linspace(0.26, 0.49, 20)
        fd = (cutoff_delta(spec, xs + h) - cutoff_delta(spec, xs - h)) / (2.0 * h)
        assert np.allclose(cutoff_delta_dxi(spec, xs), fd, atol=1e-7)

    def test_validation(self):
        with pytest.raises(ValueError):
            CutoffSpec(inner=0.5, outer=0.25)
        with pytest.raises(ValueError):
            CutoffSpec(degree=4)


class TestEnrichmentProfiles:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EnrichmentSpec(kind="bogus", epsilon=1e-4)
        with pytest.raises(ValueError):
            EnrichmentSpec(kind="phi_m1_lin", epsilon=1e-4)  # sigma required
        with pytest.raises(ValueError):
            EnrichmentSpec(kind="phi_m1_lin", epsilon=1e-4, sigma=0.6)  # > cutoff
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=1e-4, sigma=0.1)
        assert spec.support == 0.1
        assert not spec.time_dependent
        assert EnrichmentSpec(kind="phi0", epsilon=1e-4).time_dependent

    def test_zero_at_boundary(self):
        for kind in ENRICHMENT_KINDS:
            spec = EnrichmentSpec(kind=kind, epsilon=1e-5, sigma=0.1)
            assert enrichment_profile(spec, 0.0, t=1.0) == pytest.approx(0.0, abs=1e-14)

    def test_vanishing_outside_support(self):
        for kind in ENRICHMENT_KINDS:
            spec = EnrichmentSpec(kind=kind, epsilon=1e-5, sigma=0.1)
            xi = np.linspace(spec.support + 1e-9, 1.0, 20)
            assert np.max(np.abs(enrichment_profile(spec, xi, t=1.0))) == 0.0

    def test_layer_half_thickness(self):
        # the Gaussian profile crosses 1/2 at xi = sqrt(4 eps ln 2)
        for eps in (1e-4, 1e-6, 1e-8):
            spec = EnrichmentSpec(kind="phi_m1", epsilon=eps)
            target = math.sqrt(4.0 * eps * math.log(2.0))
            xi = np.linspace(0.0, 5.0 * target, 20001)
            v = enrichment_profile(spec, xi)
            crossing = xi[np.argmax(v >= 0.5)]
            assert crossing == pytest.approx(target, rel=0.01)

    @pytest.mark.parametrize("kind", ENRICHMENT_KINDS)
    def test_derivative_matches_finite_differences(self, kind):
        eps = 1e-3
        spec = EnrichmentSpec(kind=kind, epsilon=eps, sigma=0.2)
        rng = np.random.default_rng(7)
        xi = rng.uniform(1e-3, 0.19, 100)
        h = 1e-7
        fd = (
            enrichment_profile(spec, xi + h, t=0.7) - enrichment_profile(spec, xi - h, t=0.7)
        ) / (2.0 * h)
        got = enrichment_profile_dxi(spec, xi, t=0.7)
        assert np.allclose(got, fd, rtol=1e-5, atol=1e-6)

    def test_profiles_agree_away_from_layer(self):
        # beyond a few layer widths and inside the cutoff plateau, the three
        # cutoff-based profiles are within 10% of each other (phi_m1_lin
        # deliberately subtracts a linear ramp, so it sits on 1 - xi/sigma)
        eps = 1e-5
        xi = np.linspace(0.05, 0.2, 50)
        vals = {}
        for kind in ("phi0", "phi0_tilde", "phi_m1"):
            spec = EnrichmentSpec(kind=kind, epsilon=eps)
            vals[kind] = np.asarray(enrichment_profile(spec, xi, t=1.0))
        ref = vals["phi_m1"]
        for kind, v in vals.items():
            assert np.max(np.abs(v - ref) / np.abs(ref)) < 0.10, kind

    def test_linearized_profile_ramp(self):
        # away from the layer the Gaussian is 1, leaving exactly 1 - xi/sigma
        # (up to the exp(-sigma^2/4eps) normalization, negligible here)
        eps = 1e-6
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=0.2)
        xi = np.linspace(0.05, 0.19, 20)
        got = np.asarray(enrichment_profile(spec, xi))
        assert np.allclose(got, 1.0 - xi / 0.2, atol=1e-10)

    def test_phi0_is_one_minus_kernel_time_integral(self):
        # oracle: scipy quadrature of the erfc kernel in time
        eps = 1e-4
        spec = EnrichmentSpec(kind="phi0", epsilon=eps)
        for xi in (0.005, 0.02, 0.05):
            integral, _ = sp_integrate.quad(
                lambda tau: float(heat_kernel_I(xi, tau, eps)), 0.0, 1.0, epsabs=1e-13
            )
            got = float(enrichment_profile(spec, xi, t=1.0))
            assert got == pytest.approx((1.0 - integral) * cutoff_delta(spec.cutoff, xi), abs=1e-9)

    def test_time_dependent_profiles_need_time(self):
        spec = EnrichmentSpec(kind="phi0", epsilon=1e-4)
        with pytest.raises(ValueError):
            enrichment_profile(spec, 0.1)
        with pytest.raises(ValueError):
            enrichment_profile_dxi(spec, 0.1)
        # at t = 0 the derivative continues to its pointwise limit
        assert enrichment_profile_dxi(spec, 0.1, t=0.0) == 0.0  # cutoff plateau
        spec_t = EnrichmentSpec(kind="phi0_tilde", epsilon=1e-4)
        assert enrichment_profile_dxi(spec_t, 0.0, t=0.0) == 0.0

    @pytest.mark.parametrize("kind", ["phi0", "phi0_tilde"])
    def test_negative_time_rejected(self, kind):
        spec = EnrichmentSpec(kind=kind, epsilon=1e-4)
        xi = np.linspace(0.0, 0.6, 7)
        with pytest.raises(ValueError, match="t >= 0"):
            enrichment_profile(spec, xi, t=-0.1)
        with pytest.raises(ValueError, match="t >= 0"):
            enrichment_profile_dxi(spec, xi, t=-0.1)

    @pytest.mark.parametrize("n", [0, 65, 2.5, 48.0, True, "48", None])
    def test_time_quadrature_points_validated(self, n):
        with pytest.raises(ValueError, match="time_quadrature_points"):
            EnrichmentSpec(kind="phi0", epsilon=1e-4, time_quadrature_points=n)

    @pytest.mark.parametrize("n", [1, 64, np.int64(12)])
    def test_time_quadrature_points_accepted(self, n):
        spec = EnrichmentSpec(kind="phi0", epsilon=1e-4, time_quadrature_points=n)
        assert np.isfinite(enrichment_profile(spec, 0.01, t=0.5))

    def test_phi0_tilde_time_zero_limit(self):
        spec = EnrichmentSpec(kind="phi0_tilde", epsilon=1e-4)
        assert enrichment_profile(spec, 0.0, t=0.0) == 0.0
        assert enrichment_profile(spec, 0.1, t=0.0) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# dense all-pairs references for the phi0 kernel integrals and the cutoff: the
# library skips rows and points whose terms are exactly zero, and must agree
# with these to the bit


def _ref_cutoff_delta(spec, xi):
    s = np.clip((np.asarray(xi, dtype=float) - spec.inner) / (spec.outer - spec.inner), 0.0, 1.0)
    if spec.degree == 3:
        ramp = s * s * (3.0 - 2.0 * s)
    else:
        ramp = s**3 * (10.0 - 15.0 * s + 6.0 * s * s)
    return (1.0 - ramp)[()]


def _ref_kernel_time_integral(spec, xi, t):
    rule = gauss_interval(spec.time_quadrature_points)
    v = np.sqrt(t) * rule.points
    w = np.sqrt(t) * rule.weights * 2.0 * v
    z = np.asarray(xi, dtype=float)[..., None] / np.sqrt(2.0 * spec.epsilon) / v
    return np.sum(erfc_gauss(z) * w, axis=-1)


def _ref_kernel_time_integral_dxi(spec, xi, t):
    rule = gauss_interval(spec.time_quadrature_points)
    v = np.sqrt(t) * rule.points
    w = np.sqrt(t) * rule.weights
    g = np.exp(-(np.asarray(xi, dtype=float)[..., None] ** 2) / (4.0 * spec.epsilon * v**2))
    return -2.0 / np.sqrt(np.pi * spec.epsilon) * np.sum(g * w, axis=-1)


def _ref_phi0(spec, xi, t):
    return (1.0 - _ref_kernel_time_integral(spec, xi, t)) * _ref_cutoff_delta(spec.cutoff, xi)


def _ref_phi0_dxi(spec, xi, t):
    return -_ref_kernel_time_integral_dxi(spec, xi, t) * _ref_cutoff_delta(spec.cutoff, xi) + (
        1.0 - _ref_kernel_time_integral(spec, xi, t)
    ) * cutoff_delta_dxi(spec.cutoff, xi)


@pytest.fixture(scope="module", params=[1e-3, 1e-5, 1e-8])
def layer_xi(request):
    """eps, and xi on [0, 0.6] plus at every quadrature point of a B = 52 disk
    layout.  At eps = 1e-3 the kernel integral is still nonzero on the cutoff
    ramp; at the smaller eps it vanishes there."""
    eps = request.param
    pts = element_rules_2d(build_disk_mesh(52), eps).points
    return eps, np.concatenate([np.linspace(0.0, 0.6, 3001), fitted_arrays(pts[:, 0], pts[:, 1])[1]])


class TestKernelRowSkip:
    def test_underflow_facts(self):
        # the row skip relies on these values being exact zeros
        assert erfc_gauss(38.0) == 0.0
        assert erfc_gauss(37.68) == 0.0
        assert np.exp(-746.0) == 0.0
        assert np.exp(-745.14) == 0.0

    @pytest.mark.parametrize("t", [1e-6, 0.2, 1.0])
    def test_phi0_profile_bit_identical_to_dense_reference(self, layer_xi, t):
        eps, xi = layer_xi
        spec = EnrichmentSpec(kind="phi0", epsilon=eps)
        got = np.asarray(enrichment_profile(spec, xi, t=t))
        want = _ref_phi0(spec, xi, t)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [1e-6, 0.2, 1.0])
    def test_phi0_derivative_equal_to_dense_reference(self, layer_xi, t):
        # skipped rows may carry +0.0 where the reference has -0.0
        eps, xi = layer_xi
        spec = EnrichmentSpec(kind="phi0", epsilon=eps)
        assert np.array_equal(enrichment_profile_dxi(spec, xi, t=t), _ref_phi0_dxi(spec, xi, t))

    @pytest.mark.parametrize("t", [1e-6, 0.2, 1.0])
    def test_kernel_integrals_bit_identical_to_dense_reference(self, layer_xi, t):
        # the profile hides rows whose integral is tiny but not zero (1 - K
        # rounds to 1), so the integrals are compared on their own
        eps, xi = layer_xi
        spec = EnrichmentSpec(kind="phi0", epsilon=eps)
        for got, ref in (
            (_kernel_time_integral, _ref_kernel_time_integral),
            (_kernel_time_integral_dxi, _ref_kernel_time_integral_dxi),
        ):
            assert got(spec, xi, t).tobytes() == ref(spec, xi, t).tobytes()

    def test_inputs_have_live_and_skipped_rows(self, layer_xi):
        # both sides of each skip are exercised by the comparisons above
        eps, xi = layer_xi
        spec = EnrichmentSpec(kind="phi0", epsilon=eps)
        for kernel in (_ref_kernel_time_integral, _ref_kernel_time_integral_dxi):
            assert 0 < np.count_nonzero(kernel(spec, xi, 0.2)) < len(xi)

    def test_phi0_scalar_input(self):
        spec = EnrichmentSpec(kind="phi0", epsilon=1e-5)
        for xi in (0.0, 1e-3, 0.3, 0.6):
            got = enrichment_profile(spec, xi, t=0.2)
            assert np.ndim(got) == 0
            assert np.asarray(got).tobytes() == np.asarray(_ref_phi0(spec, xi, 0.2)).tobytes()
            assert enrichment_profile_dxi(spec, xi, t=0.2) == _ref_phi0_dxi(spec, xi, 0.2)

    @pytest.mark.parametrize("degree", [3, 5])
    def test_cutoff_bit_identical_to_clipped_polynomial(self, degree):
        spec = CutoffSpec(degree=degree)
        ends = [spec.inner, spec.outer, np.nextafter(spec.inner, 1.0), np.nextafter(spec.outer, 0.0)]
        xi = np.concatenate([np.linspace(-0.1, 1.0, 4001), ends])
        got = np.asarray(cutoff_delta(spec, xi))
        assert got.tobytes() == _ref_cutoff_delta(spec, xi).tobytes()
        for x in (0.0, spec.inner, 0.3, spec.outer, 0.9):
            val = cutoff_delta(spec, x)
            assert np.ndim(val) == 0
            assert np.asarray(val).tobytes() == np.asarray(_ref_cutoff_delta(spec, x)).tobytes()
        grid = xi.reshape(-1, 1)
        assert np.asarray(cutoff_delta(spec, grid)).tobytes() == _ref_cutoff_delta(spec, grid).tobytes()
