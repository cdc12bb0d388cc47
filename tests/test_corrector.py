"""Limit solution, heat-kernel corrector, cutoff, and enrichment profiles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate

from blfem.corrector import (
    CUTOFF_INNER,
    CUTOFF_OUTER,
    ENRICHMENT_KINDS,
    EnrichmentSpec,
    ProblemData,
    _kernel_time_integral,
    cutoff_delta,
    cutoff_delta_dxi,
    enrichment_profile,
    enrichment_profile_dxi,
    heat_kernel_I,
    limit_solution,
    theta0,
    time_independent_xi,
    unit_factor,
)
from blfem.specfun import erfc_gauss


def _data_1d(epsilon=1e-3, source=None, u0=None):
    source = source or (lambda x: ((lambda t: t, np.cos(np.pi * np.asarray(x))),))
    u0 = u0 or (lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    return ProblemData(dim=1, source=source, u0_initial=u0, epsilon=epsilon)


def _data_2d(epsilon=1e-3):
    source = lambda x, y: ((lambda t: t, 1.0 + np.asarray(x) * 0.0),)
    u0 = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    return ProblemData(dim=2, source=source, u0_initial=u0, epsilon=epsilon)


def _unit_source(x):
    return ((unit_factor, np.ones_like(np.asarray(x, dtype=float))),)


class TestProblemData:
    def test_rejects_nonzero_boundary_initial_condition(self):
        with pytest.raises(ValueError):
            _data_1d(u0=lambda x: np.ones_like(np.asarray(x, dtype=float)))

    def test_warns_on_nonzero_source_at_t0(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            data = _data_1d(source=_unit_source)
        assert data.warnings_issued
        assert any("layer estimates" in str(w.message) for w in rec)

    def test_warning_names_the_constructing_file(self):
        # past __post_init__ and the generated __init__: the file whose code
        # built the ProblemData, here and through a built-in problem
        import blfem.analysis

        for build, want in (
            (lambda: ProblemData(dim=1, source=_unit_source, u0_initial=np.zeros_like, epsilon=1e-3), __file__),
            (lambda: blfem.analysis.ExactSolution2D(1e-3).problem(), blfem.analysis.__file__),
        ):
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                build()
            assert [w.filename for w in rec] == [want]

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
            ProblemData(dim=3, source=lambda x: ((unit_factor, 0.0),), u0_initial=lambda x: 0.0, epsilon=1.0)
        with pytest.raises(ValueError):
            _data_1d(epsilon=-1.0)


class TestLimitSolution:
    def test_quadratic_in_time_for_linear_source(self):
        data = _data_1d()
        # f = t cos(pi x)  =>  u0 + t^2/2 cos(pi x)
        got = limit_solution(data, (0.25,), 0.8)
        assert got == pytest.approx(0.5 * 0.8**2 * math.cos(math.pi * 0.25), abs=1e-12)

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

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    def test_matches_closed_form_for_unit_source(self):
        # f = 1: theta0 = -int_0^t erfc(a / sqrt(u)) du with a = xi / (2 sqrt(eps)),
        # which is -[(t + 2 a^2) erfc(a / sqrt(t)) - 2 a sqrt(t / pi) exp(-a^2 / t)].
        # For small xi the integrand behaves like 1/sqrt(t - s) down to
        # t - s ~ xi^2 / eps, which an extrapolating rule can misjudge
        for eps in (1e-2, 1e-5):
            data = _data_1d(epsilon=eps, source=_unit_source)
            for xi in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
                for t in (0.3, 1.0):
                    a = xi / (2.0 * math.sqrt(eps))
                    exact = (t + 2.0 * a * a) * math.erfc(a / math.sqrt(t)) - 2.0 * a * math.sqrt(
                        t / math.pi
                    ) * math.exp(-a * a / t)
                    assert theta0(data, 0.0, xi, t) == pytest.approx(-exact, abs=1e-10), (eps, xi, t)


class TestCutoff:
    def test_plateau_and_decay(self):
        assert cutoff_delta(0.0) == 1.0
        assert cutoff_delta(0.25) == 1.0
        assert cutoff_delta(0.5) == 0.0
        assert cutoff_delta(0.9) == 0.0
        assert cutoff_delta(0.375) == pytest.approx(0.5)

    def test_monotone_and_smooth(self):
        xi = np.linspace(0.0, 1.0, 400)
        v = cutoff_delta(xi)
        assert np.all(np.diff(v) <= 1e-14)
        # derivative consistency by central differences
        h = 1e-6
        xs = np.linspace(0.26, 0.49, 20)
        fd = (cutoff_delta(xs + h) - cutoff_delta(xs - h)) / (2.0 * h)
        assert np.allclose(cutoff_delta_dxi(xs), fd, atol=1e-7)

    def test_bit_identical_to_clipped_polynomial(self):
        # the library skips the polynomial off the ramp; a clipped copy
        # evaluates it everywhere
        def clipped(xi):
            s = np.clip((np.asarray(xi, dtype=float) - CUTOFF_INNER) / (CUTOFF_OUTER - CUTOFF_INNER), 0.0, 1.0)
            return (1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s * s))[()]

        ends = [CUTOFF_INNER, CUTOFF_OUTER, np.nextafter(CUTOFF_INNER, 1.0), np.nextafter(CUTOFF_OUTER, 0.0)]
        xi = np.concatenate([np.linspace(-0.1, 1.0, 4001), ends])
        assert np.asarray(cutoff_delta(xi)).tobytes() == clipped(xi).tobytes()
        for x in (0.0, CUTOFF_INNER, 0.3, CUTOFF_OUTER, 0.9):
            val = cutoff_delta(x)
            assert np.ndim(val) == 0
            assert np.asarray(val).tobytes() == np.asarray(clipped(x)).tobytes()
        grid = xi.reshape(-1, 1)
        assert np.asarray(cutoff_delta(grid)).tobytes() == clipped(grid).tobytes()


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
            assert enrichment_profile(spec, 0.0, t=1.0)[0] == pytest.approx(0.0, abs=1e-14)

    def test_vanishing_outside_support(self):
        for kind in ENRICHMENT_KINDS:
            spec = EnrichmentSpec(kind=kind, epsilon=1e-5, sigma=0.1)
            xi = np.linspace(spec.support + 1e-9, 1.0, 20)
            assert np.max(np.abs(enrichment_profile(spec, xi, t=1.0)[0])) == 0.0

    def test_layer_half_thickness(self):
        # the Gaussian profile crosses 1/2 at xi = sqrt(4 eps ln 2)
        for eps in (1e-4, 1e-6, 1e-8):
            spec = EnrichmentSpec(kind="phi_m1", epsilon=eps)
            target = math.sqrt(4.0 * eps * math.log(2.0))
            xi = np.linspace(0.0, 5.0 * target, 20001)
            v = enrichment_profile(spec, xi)[0]
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
            enrichment_profile(spec, xi + h, t=0.7)[0] - enrichment_profile(spec, xi - h, t=0.7)[0]
        ) / (2.0 * h)
        got = enrichment_profile(spec, xi, t=0.7)[1]
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
            vals[kind] = np.asarray(enrichment_profile(spec, xi, t=1.0)[0])
        ref = vals["phi_m1"]
        for kind, v in vals.items():
            assert np.max(np.abs(v - ref) / np.abs(ref)) < 0.10, kind

    def test_linearized_profile_ramp(self):
        # away from the layer the Gaussian is 1, leaving exactly 1 - xi/sigma
        # (up to the exp(-sigma^2/4eps) normalization, negligible here)
        eps = 1e-6
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=0.2)
        xi = np.linspace(0.05, 0.19, 20)
        got = np.asarray(enrichment_profile(spec, xi)[0])
        assert np.allclose(got, 1.0 - xi / 0.2, atol=1e-10)

    def test_phi0_is_one_minus_kernel_time_integral(self):
        # oracle: scipy quadrature of the erfc kernel in time
        eps = 1e-4
        spec = EnrichmentSpec(kind="phi0", epsilon=eps)
        for xi in (0.005, 0.02, 0.05):
            integral, _ = sp_integrate.quad(
                lambda tau: float(heat_kernel_I(xi, tau, eps)), 0.0, 1.0, epsabs=1e-13
            )
            got = float(enrichment_profile(spec, xi, t=1.0)[0])
            assert got == pytest.approx((1.0 - integral) * cutoff_delta(xi), abs=1e-12)

    def test_time_dependent_profiles_need_time(self):
        spec = EnrichmentSpec(kind="phi0", epsilon=1e-4)
        with pytest.raises(ValueError):
            enrichment_profile(spec, 0.1)[0]
        with pytest.raises(ValueError):
            enrichment_profile(spec, 0.1)[1]
        # at t = 0 the derivative continues to its pointwise limit
        assert enrichment_profile(spec, 0.1, t=0.0)[1] == 0.0  # cutoff plateau
        spec_t = EnrichmentSpec(kind="phi0_tilde", epsilon=1e-4)
        assert enrichment_profile(spec_t, 0.0, t=0.0)[1] == 0.0

    @pytest.mark.parametrize("kind", ["phi0", "phi0_tilde"])
    def test_negative_time_rejected(self, kind):
        spec = EnrichmentSpec(kind=kind, epsilon=1e-4)
        xi = np.linspace(0.0, 0.6, 7)
        with pytest.raises(ValueError, match="t >= 0"):
            enrichment_profile(spec, xi, t=-0.1)[0]
        with pytest.raises(ValueError, match="t >= 0"):
            enrichment_profile(spec, xi, t=-0.1)[1]

    def test_phi0_tilde_time_zero_limit(self):
        spec = EnrichmentSpec(kind="phi0_tilde", epsilon=1e-4)
        assert enrichment_profile(spec, 0.0, t=0.0)[0] == 0.0
        assert enrichment_profile(spec, 0.1, t=0.0)[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# frozen copies of the separate value and slope formulas that the fused
# profile replaced (phi0's read the closed-form kernel integral), with the
# time-dependent kinds flushed to the cutoff past xi*(t); it must agree with
# them to the bit


def _frozen_flush(spec, xi, t, formula, cutoff):
    if spec.kind not in ("phi0", "phi0_tilde") or t == 0.0:
        return formula
    star = max(math.sqrt(4.0 * spec.epsilon * 43.0), 9.0 * math.sqrt(2.0 * spec.epsilon)) * math.sqrt(t)
    return np.where(xi >= star, cutoff, formula)


def _frozen_value(spec, xi, t=None):
    xi = np.asarray(xi, dtype=float)
    if spec.kind == "phi_m1":
        val = (1.0 - np.exp(-(xi**2) / (4.0 * spec.epsilon))) * cutoff_delta(xi)
    elif spec.kind == "phi_m1_lin":
        s = spec.sigma
        ramp = (1.0 - math.exp(-(s**2) / (4.0 * spec.epsilon))) * xi / s
        val = (1.0 - np.exp(-(xi**2) / (4.0 * spec.epsilon)) - ramp) * (xi <= s)
    elif spec.kind == "phi0":
        kernel = _kernel_time_integral(spec, xi, t)[0] if t > 0.0 else 0.0
        val = (1.0 - kernel) * cutoff_delta(xi)
    elif t == 0.0:  # phi0_tilde from here on
        val = np.where(xi > 0.0, cutoff_delta(xi), 0.0)
    else:
        val = (1.0 - np.exp(-(xi**2) / (4.0 * spec.epsilon * t))) * cutoff_delta(xi)
    return _frozen_flush(spec, xi, t, val, cutoff_delta(xi))[()]


def _frozen_slope(spec, xi, t=None):
    xi = np.asarray(xi, dtype=float)
    eps = spec.epsilon
    if spec.kind == "phi_m1":
        e = np.exp(-(xi**2) / (4.0 * eps))
        val = (xi / (2.0 * eps)) * e * cutoff_delta(xi) + (1.0 - e) * cutoff_delta_dxi(xi)
    elif spec.kind == "phi_m1_lin":
        s = spec.sigma
        e = np.exp(-(xi**2) / (4.0 * eps))
        slope = (1.0 - math.exp(-(s**2) / (4.0 * eps))) / s
        val = ((xi / (2.0 * eps)) * e - slope) * (xi <= s)
    elif spec.kind == "phi0":
        if t == 0.0:
            return cutoff_delta_dxi(xi)[()]
        kernel, kernel_dxi = _kernel_time_integral(spec, xi, t)
        val = -kernel_dxi * cutoff_delta(xi) + (1.0 - kernel) * cutoff_delta_dxi(xi)
    elif t == 0.0:  # phi0_tilde from here on
        return np.where(xi > 0.0, cutoff_delta_dxi(xi), 0.0)[()]
    else:
        e = np.exp(-(xi**2) / (4.0 * eps * t))
        val = (xi / (2.0 * eps * t)) * e * cutoff_delta(xi) + (1.0 - e) * cutoff_delta_dxi(xi)
    return _frozen_flush(spec, xi, t, val, cutoff_delta_dxi(xi))[()]


def _same_bits(got, want):
    return np.ndim(got) == np.ndim(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


# the layer, the cutoff plateau, its ramp and ends, and past the support
_ENDS = [CUTOFF_INNER, CUTOFF_OUTER, np.nextafter(CUTOFF_INNER, 1.0), np.nextafter(CUTOFF_OUTER, 0.0)]
_XI = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 1500), np.linspace(0.0, 0.7, 701), _ENDS])
_SHAPES = (_XI, _XI.reshape(-1, 1), 0.0, 1e-4, 0.1, 0.3, CUTOFF_OUTER, 0.6)


class TestFusedProfile:
    @pytest.mark.parametrize("eps", [1e-3, 1e-5])
    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.37, 1.0])
    @pytest.mark.parametrize("kind", ENRICHMENT_KINDS)
    def test_bit_identical_to_separate_formulas(self, kind, t, eps):
        spec = EnrichmentSpec(kind=kind, epsilon=eps, sigma=0.1 if kind == "phi_m1_lin" else None)
        assert np.any(_XI < CUTOFF_INNER) and np.any((_XI > CUTOFF_INNER) & (_XI < CUTOFF_OUTER))
        assert np.any(_XI > CUTOFF_OUTER)
        for x in _SHAPES:
            want = _frozen_value(spec, x, t), _frozen_slope(spec, x, t)
            for cutoff in (None, (cutoff_delta(x), cutoff_delta_dxi(x))):
                got = enrichment_profile(spec, x, t, cutoff)
                assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1]), (np.ndim(x), cutoff is None)

    def test_passed_cutoff_is_used(self, monkeypatch):
        # a caller's cutoff replaces the profile's own evaluation of it, to the bit
        import blfem.corrector as corrector

        xi = np.linspace(0.0, 0.6, 61)
        cutoff = cutoff_delta(xi), cutoff_delta_dxi(xi)
        kinds = ("phi0", "phi0_tilde", "phi_m1")
        specs = [EnrichmentSpec(kind=kind, epsilon=eps) for kind in kinds for eps in (1e-3, 1e-4)]
        want = [enrichment_profile(spec, xi, t) for spec in specs for t in (0.0, 0.5, 2.0)]
        monkeypatch.setattr(corrector, "cutoff_delta", None)
        monkeypatch.setattr(corrector, "cutoff_delta_dxi", None)
        got = [enrichment_profile(spec, xi, t, cutoff) for spec in specs for t in (0.0, 0.5, 2.0)]
        monkeypatch.undo()
        for (value, slope), (want_value, want_slope) in zip(got, want):
            assert _same_bits(value, want_value) and _same_bits(slope, want_slope)

    def test_slope_accessor(self):
        for kind in ENRICHMENT_KINDS:
            spec = EnrichmentSpec(kind=kind, epsilon=1e-4, sigma=0.1)
            xi = np.linspace(0.0, 0.6, 31)
            assert _same_bits(enrichment_profile_dxi(spec, xi, 0.5), enrichment_profile(spec, xi, 0.5)[1])


# ---------------------------------------------------------------------------
# phi0's kernel integral K = int_0^t I(xi, tau) dtau in closed form, against
# adaptive quadrature of its integrals


def _quad_kernel(xi, t, eps):
    # over tau = v^2, which takes the 1/sqrt(tau) scale out of the integrand
    # past its rise at tau = xi^2 / eps; split there
    rise = [xi / math.sqrt(eps)] if 0.0 < xi * xi / eps < t else None
    return sp_integrate.quad(
        lambda v: 2.0 * v * float(heat_kernel_I(xi, v * v, eps)),
        0.0,
        math.sqrt(t),
        epsabs=3e-14 * t,
        epsrel=0.0,
        limit=200,
        points=rise,
    )[0]


def _quad_kernel_dxi(xi, t, eps):
    # dK/dxi = -(2 / sqrt(pi eps)) int_0^sqrt(t) exp(-xi^2 / (4 eps v^2)) dv,
    # split where the integrand rises
    a = xi * xi / (4.0 * eps)
    integral = sp_integrate.quad(
        lambda v: math.exp(-a / (v * v)) if v > 0.0 else 0.0,
        0.0,
        math.sqrt(t),
        epsabs=1e-13 * math.sqrt(t),
        epsrel=0.0,
        limit=200,
        points=[math.sqrt(a)] if 0.0 < a < t else None,
    )[0]
    return -2.0 / math.sqrt(math.pi * eps) * integral


class TestPhi0KernelIntegral:
    @pytest.mark.parametrize("t", [1e-6, 0.2, 1.0, 2.0])
    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-8])
    def test_matches_quadrature(self, eps, t):
        # near the wall, where a time rule misses the slope, across the layer
        # and into the far tail; past 55 sqrt(eps t) both terms underflow
        spec = EnrichmentSpec(kind="phi0", epsilon=eps)
        xi = np.concatenate([np.geomspace(1e-4, 0.1, 7), np.linspace(0.0, 40.0, 81), [55.0]]) * math.sqrt(eps * t)
        kernel, kernel_dxi = _kernel_time_integral(spec, xi, t)
        want = np.array([_quad_kernel(x, t, eps) for x in xi])
        want_dxi = np.array([_quad_kernel_dxi(x, t, eps) for x in xi])
        assert np.max(np.abs(kernel - want)) <= 1e-13 * t
        assert np.max(np.abs(kernel_dxi - want_dxi)) <= 1e-12 * math.sqrt(t / eps)
        assert kernel[-1] == 0.0 and kernel_dxi[-1] == 0.0

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-8])
    def test_profile_on_the_cutoff_ramp(self, eps):
        # (1 - K) * delta and its slope where the cutoff slopes; at eps = 1e-3
        # the kernel integral is live there, at the smaller eps it is zero
        spec = EnrichmentSpec(kind="phi0", epsilon=eps)
        xi = np.linspace(CUTOFF_INNER, CUTOFF_OUTER, 26)[1:-1]
        value, slope = enrichment_profile(spec, xi, 1.0)
        kernel = np.array([_quad_kernel(x, 1.0, eps) for x in xi])
        kernel_dxi = np.array([_quad_kernel_dxi(x, 1.0, eps) for x in xi])
        assert np.all(kernel > 0.0) == (eps == 1e-3)
        assert np.allclose(value, (1.0 - kernel) * cutoff_delta(xi), rtol=0.0, atol=1e-13)
        want = -kernel_dxi * cutoff_delta(xi) + (1.0 - kernel) * cutoff_delta_dxi(xi)
        assert np.allclose(slope, want, rtol=0.0, atol=1e-12 / math.sqrt(eps))

    @pytest.mark.parametrize("t", [0.01, 0.1, 0.5, 1.0, 2.0, 7.3])
    def test_trace_is_one_minus_t(self, t):
        # K(0, t) = t, so phi0(0, t) = 1 - t exactly (the boundary value of
        # the (1 - K) * delta formula; it vanishes only at t = 1)
        for eps in (1e-3, 1e-8):
            spec = EnrichmentSpec(kind="phi0", epsilon=eps)
            assert enrichment_profile(spec, 0.0, t)[0] == 1.0 - t
            assert enrichment_profile(spec, np.zeros(3), t)[0].tolist() == [1.0 - t] * 3

    def test_time_zero_is_the_cutoff(self):
        spec = EnrichmentSpec(kind="phi0", epsilon=1e-5)
        for x in _SHAPES:
            value, slope = enrichment_profile(spec, x, 0.0)
            assert _same_bits(value, cutoff_delta(x))
            assert np.array_equal(slope, cutoff_delta_dxi(x)) and np.ndim(slope) == np.ndim(x)

    def test_shapes_follow_the_input(self):
        # a scalar gives 0-d values, a column its own shape, each entry as in
        # the flat evaluation
        spec = EnrichmentSpec(kind="phi0", epsilon=1e-5)
        flat = enrichment_profile(spec, _XI, 0.2)
        column = enrichment_profile(spec, _XI.reshape(-1, 1), 0.2)
        for got, want in zip(column, flat):
            assert got.shape == (len(_XI), 1) and got.ravel().tobytes() == want.tobytes()
        for x in (0.0, 1e-3, 0.3, 0.6):
            got = enrichment_profile(spec, x, 0.2)
            want = enrichment_profile(spec, np.array([x]), 0.2)
            assert np.ndim(got[0]) == 0 and np.ndim(got[1]) == 0
            assert got[0] == want[0][0] and got[1] == want[1][0]

    def test_underflow_facts(self):
        # the far-tail checks above rely on these values being exact zeros
        assert erfc_gauss(38.0) == 0.0
        assert erfc_gauss(37.68) == 0.0
        assert np.exp(-746.0) == 0.0
        assert np.exp(-745.14) == 0.0


class TestTimeIndependentXi:
    @given(
        kind=st.sampled_from(["phi0", "phi0_tilde"]),
        log_eps=st.floats(min_value=-9.0, max_value=-2.0),
        T=st.floats(min_value=1e-3, max_value=10.0),
        n_steps=st.integers(min_value=1, max_value=200),
    )
    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    def test_profiles_are_the_cutoff_past_xi_star(self, kind, log_eps, T, n_steps):
        # at and past xi*(T) both profiles equal the cutoff and its slope
        # exactly, at every time of the run
        spec = EnrichmentSpec(kind=kind, epsilon=10.0**log_eps)
        star = time_independent_xi(spec, T)
        assert 0.0 < star < math.inf
        xi = np.concatenate([[star], star * (1.0 + np.geomspace(1e-12, 1.0, 40)), star + np.linspace(0.0, 0.6, 60)])
        for t in (0.0, T / n_steps, T / 2.0, T):
            assert np.array_equal(enrichment_profile(spec, xi, t)[0], cutoff_delta(xi)), t
            assert np.array_equal(enrichment_profile(spec, xi, t)[1], cutoff_delta_dxi(xi)), t

    @pytest.mark.parametrize("kind", ["phi0", "phi0_tilde"])
    @pytest.mark.parametrize("eps", [1e-8, 1e-5])
    def test_bound_is_not_loose(self, kind, eps):
        # a tenth inside xi*, the layer still shows in the slope at t = T
        spec = EnrichmentSpec(kind=kind, epsilon=eps)
        xi = 0.9 * time_independent_xi(spec, 1.0)
        assert xi < CUTOFF_INNER
        assert enrichment_profile(spec, xi, 1.0)[1] != cutoff_delta_dxi(xi)

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-8])
    @pytest.mark.parametrize("kind", ["phi0", "phi0_tilde"])
    def test_flush_drops_only_rounding(self, kind, eps):
        # past xi*(t) the layer formulas, unflushed, give exactly the cutoff
        # value, and eps times their slope differs from eps delta' by at most
        # the rounding 2^-52 of eps times the profile's largest slope at t,
        # which a level's stiffness blocks sum
        import blfem.corrector as corrector

        spec, T, n_steps = EnrichmentSpec(kind=kind, epsilon=eps), 1.0, 100
        for t in (T / n_steps, T / 2.0, T):
            star = time_independent_xi(spec, t)
            xi = np.concatenate([[star], star * (1.0 + np.geomspace(1e-12, 1.0, 40)), star + np.linspace(0.0, 0.6, 61)])
            delta, delta_dxi = cutoff_delta(xi), cutoff_delta_dxi(xi)
            value, slope = corrector._layer_profile(spec, xi, t, delta, delta_dxi)
            assert np.array_equal(value, delta), t
            # the layer's slope peaks at xi = sqrt(2 eps t) (phi0: at 0), the ramp's at 0.375
            grid = np.concatenate([np.geomspace(1e-9, 1.0, 2001) * star, np.linspace(0.0, CUTOFF_OUTER, 501)])
            peak = np.max(np.abs(enrichment_profile(spec, grid, t)[1]))
            assert eps * np.max(np.abs(slope - delta_dxi)) <= 2.0**-52 * eps * peak, t

    def test_rounding_facts(self):
        # the value bound: 1 - e is exactly 1 for e at or below 2^-54, and
        # exp(-43) is far below it
        assert 1.0 - 2.0**-54 == 1.0 and 1.0 - 2.0**-53 < 1.0
        assert math.exp(-43.0) < 2.0**-60

    def test_time_independent_kinds_and_no_split(self):
        for kind, sigma in (("phi_m1", None), ("phi_m1_lin", 0.1)):
            assert time_independent_xi(EnrichmentSpec(kind=kind, epsilon=1e-5, sigma=sigma), 1.0) == 0.0
        assert time_independent_xi(EnrichmentSpec(kind="phi0", epsilon=1e-5)) == math.inf
