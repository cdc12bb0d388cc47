"""Limit solution, heat-kernel corrector, cutoff, and enrichment profiles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate

from blfem.assembly import element_rules_2d, fitted_arrays
from blfem.corrector import (
    CUTOFF_INNER,
    CUTOFF_OUTER,
    ENRICHMENT_KINDS,
    TIME_QUADRATURE_POINTS,
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
    time_independent_xi,
)
from blfem.mesh import build_disk_mesh
from blfem.quadrature import gauss_interval
from blfem.specfun import erfc_gauss


def _data_1d(epsilon=1e-3, source=None, u0=None):
    source = source or (lambda x: lambda t: t * np.cos(np.pi * np.asarray(x)))
    u0 = u0 or (lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    return ProblemData(dim=1, source=source, u0_initial=u0, epsilon=epsilon)


def _data_2d(epsilon=1e-3):
    source = lambda x, y: lambda t: t * (1.0 + np.asarray(x) * 0.0)
    u0 = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    return ProblemData(dim=2, source=source, u0_initial=u0, epsilon=epsilon)


def _unit_source(x):
    return lambda t: np.ones_like(np.asarray(x, dtype=float))


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
            ProblemData(dim=3, source=lambda x: lambda t: 0.0, u0_initial=lambda x: 0.0, epsilon=1.0)
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
            assert got == pytest.approx((1.0 - integral) * cutoff_delta(xi), abs=1e-9)

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
# profile replaced; it must agree with them to the bit


def _frozen_value(spec, xi, t=None):
    xi = np.asarray(xi, dtype=float)
    if spec.kind == "phi_m1":
        val = (1.0 - np.exp(-(xi**2) / (4.0 * spec.epsilon))) * cutoff_delta(xi)
    elif spec.kind == "phi_m1_lin":
        s = spec.sigma
        ramp = (1.0 - math.exp(-(s**2) / (4.0 * spec.epsilon))) * xi / s
        val = (1.0 - np.exp(-(xi**2) / (4.0 * spec.epsilon)) - ramp) * (xi <= s)
    elif spec.kind == "phi0_tilde":
        if t == 0.0:
            val = np.where(xi > 0.0, cutoff_delta(xi), 0.0)
        else:
            val = (1.0 - np.exp(-(xi**2) / (4.0 * spec.epsilon * t))) * cutoff_delta(xi)
    else:
        val = (1.0 - _kernel_time_integral(spec, xi, t)) * cutoff_delta(xi)
    return val[()]


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
    elif spec.kind == "phi0_tilde":
        if t == 0.0:
            return np.where(xi > 0.0, cutoff_delta_dxi(xi), 0.0)[()]
        e = np.exp(-(xi**2) / (4.0 * eps * t))
        val = (xi / (2.0 * eps * t)) * e * cutoff_delta(xi) + (1.0 - e) * cutoff_delta_dxi(xi)
    else:
        if t == 0.0:
            return cutoff_delta_dxi(xi)[()]
        slope = cutoff_delta_dxi(xi)
        ramp = slope != 0.0
        kernel = np.zeros_like(xi)
        kernel[ramp] = _kernel_time_integral(spec, xi[ramp], t)
        val = -_kernel_time_integral_dxi(spec, xi, t) * cutoff_delta(xi) + (1.0 - kernel) * slope
    return val[()]


def _same_bits(got, want):
    return np.ndim(got) == np.ndim(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestFusedProfile:
    @pytest.mark.parametrize("eps", [1e-3, 1e-5])
    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.37, 1.0])
    @pytest.mark.parametrize("kind", ENRICHMENT_KINDS)
    def test_bit_identical_to_separate_formulas(self, kind, t, eps):
        spec = EnrichmentSpec(kind=kind, epsilon=eps, sigma=0.1 if kind == "phi_m1_lin" else None)
        # the layer, the cutoff plateau, its ramp and ends, and past the support
        ends = [CUTOFF_INNER, CUTOFF_OUTER, np.nextafter(CUTOFF_INNER, 1.0), np.nextafter(CUTOFF_OUTER, 0.0)]
        xi = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 1500), np.linspace(0.0, 0.7, 701), ends])
        assert np.any(xi < CUTOFF_INNER) and np.any((xi > CUTOFF_INNER) & (xi < CUTOFF_OUTER))
        assert np.any(xi > CUTOFF_OUTER)
        for x in (xi, xi.reshape(-1, 1), 0.0, 1e-4, 0.1, 0.3, CUTOFF_OUTER, 0.6):
            want = _frozen_value(spec, x, t), _frozen_slope(spec, x, t)
            for cutoff in (None, (cutoff_delta(x), cutoff_delta_dxi(x))):
                got = enrichment_profile(spec, x, t, cutoff)
                assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1]), (np.ndim(x), cutoff is None)

    def test_ramp_kernel_is_live_where_compared(self):
        # at eps = 1e-3 the phi0 slope reads the kernel integral on the ramp
        spec = EnrichmentSpec(kind="phi0", epsilon=1e-3)
        xi = np.linspace(CUTOFF_INNER, CUTOFF_OUTER, 50)[1:-1]
        assert np.all(_kernel_time_integral(spec, xi, 1.0) > 0.0)

    def test_passed_cutoff_is_used(self, monkeypatch):
        # a caller's cutoff replaces the profile's own evaluation of it
        import blfem.corrector as corrector

        xi = np.linspace(0.0, 0.6, 61)
        cutoff = cutoff_delta(xi), cutoff_delta_dxi(xi)
        specs = [EnrichmentSpec(kind=kind, epsilon=1e-4) for kind in ("phi0", "phi0_tilde", "phi_m1")]
        monkeypatch.setattr(corrector, "cutoff_delta", None)
        monkeypatch.setattr(corrector, "cutoff_delta_dxi", None)
        got = [enrichment_profile(spec, xi, 0.5, cutoff) for spec in specs]
        monkeypatch.undo()
        for spec, (value, slope) in zip(specs, got):
            assert _same_bits(value, _frozen_value(spec, xi, 0.5))
            assert _same_bits(slope, _frozen_slope(spec, xi, 0.5))

    def test_slope_accessor(self):
        for kind in ENRICHMENT_KINDS:
            spec = EnrichmentSpec(kind=kind, epsilon=1e-4, sigma=0.1)
            xi = np.linspace(0.0, 0.6, 31)
            assert _same_bits(enrichment_profile_dxi(spec, xi, 0.5), enrichment_profile(spec, xi, 0.5)[1])


# ---------------------------------------------------------------------------
# dense all-pairs references for the phi0 kernel integrals and the cutoff: the
# library skips rows and points whose terms are exactly zero, and must agree
# with these to the bit


def _ref_cutoff_delta(xi):
    s = np.clip((np.asarray(xi, dtype=float) - CUTOFF_INNER) / (CUTOFF_OUTER - CUTOFF_INNER), 0.0, 1.0)
    return (1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s * s))[()]


def _ref_kernel_time_integral(spec, xi, t):
    rule = gauss_interval(TIME_QUADRATURE_POINTS)
    v = np.sqrt(t) * rule.points
    w = np.sqrt(t) * rule.weights * 2.0 * v
    z = np.asarray(xi, dtype=float)[..., None] / np.sqrt(2.0 * spec.epsilon) / v
    return np.sum(erfc_gauss(z) * w, axis=-1)


def _ref_kernel_time_integral_dxi(spec, xi, t):
    rule = gauss_interval(TIME_QUADRATURE_POINTS)
    v = np.sqrt(t) * rule.points
    w = np.sqrt(t) * rule.weights
    g = np.exp(-(np.asarray(xi, dtype=float)[..., None] ** 2) / (4.0 * spec.epsilon * v**2))
    return -2.0 / np.sqrt(np.pi * spec.epsilon) * np.sum(g * w, axis=-1)


def _ref_phi0(spec, xi, t):
    return (1.0 - _ref_kernel_time_integral(spec, xi, t)) * _ref_cutoff_delta(xi)


def _ref_phi0_dxi(spec, xi, t):
    return -_ref_kernel_time_integral_dxi(spec, xi, t) * _ref_cutoff_delta(xi) + (
        1.0 - _ref_kernel_time_integral(spec, xi, t)
    ) * cutoff_delta_dxi(xi)


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
        got = np.asarray(enrichment_profile(spec, xi, t=t)[0])
        want = _ref_phi0(spec, xi, t)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [1e-6, 0.2, 1.0])
    def test_phi0_derivative_equal_to_dense_reference(self, layer_xi, t):
        # skipped rows may carry +0.0 where the reference has -0.0
        eps, xi = layer_xi
        spec = EnrichmentSpec(kind="phi0", epsilon=eps)
        assert np.array_equal(enrichment_profile(spec, xi, t=t)[1], _ref_phi0_dxi(spec, xi, t))

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
            got = enrichment_profile(spec, xi, t=0.2)[0]
            assert np.ndim(got) == 0
            assert np.asarray(got).tobytes() == np.asarray(_ref_phi0(spec, xi, 0.2)).tobytes()
            assert enrichment_profile(spec, xi, t=0.2)[1] == _ref_phi0_dxi(spec, xi, 0.2)

    def test_cutoff_bit_identical_to_clipped_polynomial(self):
        ends = [CUTOFF_INNER, CUTOFF_OUTER, np.nextafter(CUTOFF_INNER, 1.0), np.nextafter(CUTOFF_OUTER, 0.0)]
        xi = np.concatenate([np.linspace(-0.1, 1.0, 4001), ends])
        got = np.asarray(cutoff_delta(xi))
        assert got.tobytes() == _ref_cutoff_delta(xi).tobytes()
        for x in (0.0, CUTOFF_INNER, 0.3, CUTOFF_OUTER, 0.9):
            val = cutoff_delta(x)
            assert np.ndim(val) == 0
            assert np.asarray(val).tobytes() == np.asarray(_ref_cutoff_delta(x)).tobytes()
        grid = xi.reshape(-1, 1)
        assert np.asarray(cutoff_delta(grid)).tobytes() == _ref_cutoff_delta(grid).tobytes()


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

    def test_time_independent_kinds_and_no_split(self):
        for kind, sigma in (("phi_m1", None), ("phi_m1_lin", 0.1)):
            assert time_independent_xi(EnrichmentSpec(kind=kind, epsilon=1e-5, sigma=sigma), 1.0) == 0.0
        assert time_independent_xi(EnrichmentSpec(kind="phi0", epsilon=1e-5)) == math.inf
