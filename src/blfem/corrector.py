"""Limit solution, boundary-layer corrector, cutoff, and the four
boundary-layer element profiles used to enrich the Galerkin space.

All layer formulas live in the boundary-fitted radial coordinate
xi = 1 - r (or the distance to an endpoint in 1D) and use the
variance-1 error-function convention of :mod:`blfem.specfun`.
enrichment_profile gives a profile's value and xi-slope from one call; a
caller may pass in the cutoff values it evaluated once per run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .specfun import erfc_gauss

ENRICHMENT_KINDS = ("phi0", "phi0_tilde", "phi_m1", "phi_m1_lin")
TIME_DEPENDENT_KINDS = ("phi0", "phi0_tilde")


@dataclass
class ProblemData:
    """Problem data for u_t - eps*Laplace(u) = f with zero Dirichlet data,
    on [0, 1] (dim 1) or the unit disk (dim 2).

    source(*coords) -> ((tau_1, v_1), ...), the terms of f at fixed points:
    f(*coords, t) = sum_k tau_k(t) * v_k (source_values), tau_k a function of
    t alone and v_k the values at the points (or a scalar).  u0_initial(*coords)
    is the initial condition.  Both must accept numpy arrays.
    """

    dim: int
    source: callable
    u0_initial: callable
    epsilon: float
    warnings_issued: list = field(default_factory=list)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.dim == 1:
            bpts = (np.array([0.0, 1.0]),)
        else:
            ang = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
            bpts = (np.cos(ang), np.sin(ang))
        if np.max(np.abs(self.u0_initial(*bpts))) > 1e-10:
            raise ValueError("initial condition must vanish on the boundary")
        if np.max(np.abs(source_values(self.source(*bpts), 0.0))) > 1e-10:
            msg = "source does not vanish on the boundary at t=0; layer estimates may degrade"
            self.warnings_issued.append(msg)
            # past __post_init__ and the generated __init__: the constructing call
            warnings.warn(msg, stacklevel=3)

    def boundary_point(self, eta):
        """Boundary point addressed by the layer coordinate: the polar angle
        in 2D, the endpoint itself (0 or 1) in 1D."""
        if self.dim == 1:
            if eta not in (0.0, 1.0):
                raise ValueError("1D boundary coordinate must be 0 or 1")
            return (eta,)
        return (math.cos(eta), math.sin(eta))


def unit_factor(t):
    """The time factor of a term constant in time."""
    return 1.0


def source_values(terms, t):
    """sum_k tau_k(t) * v_k over the terms ((tau_1, v_1), ...) in declared
    order: the source's values at t (ProblemData.source), or the same sum of
    any vectors formed linearly from its v_k."""
    (tau, v), *rest = terms
    return sum((tau(t) * v for tau, v in rest), tau(t) * v)


def limit_solution(data: ProblemData, point, t: float) -> float:
    """u0 + int_0^t f ds at a spatial point (tuple) and time t."""
    u0 = float(data.u0_initial(*point))
    if t == 0.0:
        return u0
    from scipy.integrate import quad

    terms = data.source(*point)
    return u0 + quad(lambda s: float(source_values(terms, s)), 0.0, t, epsabs=1e-12, epsrel=0.0)[0]


def heat_kernel_I(xi, t, epsilon: float):
    """erfc-profile solution of I_t = eps * I_xixi with unit boundary data.

    Continuously extended to t = 0 (1 at xi = 0, else 0); vectorized in
    both xi and t."""
    xi = np.asarray(xi, dtype=float)
    t = np.asarray(t, dtype=float)
    pos = t > 0.0
    z = np.where(pos, xi / np.sqrt(2.0 * epsilon * np.where(pos, t, 1.0)), np.where(xi == 0.0, 0.0, np.inf))
    return erfc_gauss(z)[()]


def theta0(data: ProblemData, eta: float, xi: float, t: float) -> float:
    """First-order layer corrector:
    -int_0^t I(xi, t-s) * f(boundary(eta), s) ds."""
    if t == 0.0:
        return 0.0

    from scipy.integrate import quad_vec

    terms = data.source(*data.boundary_point(eta))

    def integrand(s):
        return float(heat_kernel_I(xi, t - s, data.epsilon) * source_values(terms, s))

    # The kernel is negligible for t - s << xi^2 / eps; split there so the
    # adaptive rule starts with panels matched to the moving scale.  quad_vec
    # rather than quad: for small xi the integrand looks like 1/sqrt(t - s)
    # down to t - s ~ xi^2 / eps, and quad's extrapolation then misses by 1e-8
    # while reporting 4e-12.
    cuts = [t - xi**2 / data.epsilon, t - xi**2 / (100.0 * data.epsilon)] if xi > 0.0 else None
    return -quad_vec(integrand, 0.0, t, epsabs=1e-10, epsrel=0.0, points=cuts)[0]


# the quintic (C2) smoothstep cutoff is 1 on [0, CUTOFF_INNER] and 0 on
# [CUTOFF_OUTER, 1]
CUTOFF_INNER, CUTOFF_OUTER = 0.25, 0.5


def cutoff_delta(xi):
    """Cutoff value; monotone non-increasing, C2-smooth."""
    s = (np.asarray(xi, dtype=float) - CUTOFF_INNER) / (CUTOFF_OUTER - CUTOFF_INNER)
    # off the ramp s would clip to 0 or 1, where the polynomial is 0 or 1
    val = np.where(s <= 0.0, 1.0, 0.0)
    ramp = (s > 0.0) & (s < 1.0)
    s = s[ramp]
    val[ramp] = 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s * s)
    return val[()]


def cutoff_delta_dxi(xi):
    s = (np.asarray(xi, dtype=float) - CUTOFF_INNER) / (CUTOFF_OUTER - CUTOFF_INNER)
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(s, 0.0, 1.0)
    d = 30.0 * s * s * (1.0 - s) ** 2
    return (-d * inside / (CUTOFF_OUTER - CUTOFF_INNER))[()]


@dataclass(frozen=True)
class EnrichmentSpec:
    """Which boundary-layer profile enriches the space, and its parameters.

    kind: 'phi0' (exact kernel integral), 'phi0_tilde' (Gaussian, time
        dependent), 'phi_m1' (Gaussian, frozen time), 'phi_m1_lin'
        (Gaussian with a linear taper on [0, sigma] instead of the cutoff).
    sigma: support width of the linearized variant.
    """

    kind: str
    epsilon: float
    sigma: float = None

    def __post_init__(self):
        if self.kind not in ENRICHMENT_KINDS:
            raise ValueError(f"unknown enrichment kind {self.kind!r}")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.kind == "phi_m1_lin":
            if self.sigma is None or self.sigma <= 0.0:
                raise ValueError("phi_m1_lin requires sigma > 0")
            if self.sigma > CUTOFF_OUTER:
                raise ValueError("sigma must not exceed the cutoff support")

    @property
    def time_dependent(self):
        return self.kind in TIME_DEPENDENT_KINDS

    @property
    def support(self):
        """xi-extent outside of which the profile vanishes."""
        return self.sigma if self.kind == "phi_m1_lin" else CUTOFF_OUTER


# the heat layer's exponent a = xi^2 / (4 eps t) and erfc argument
# z = xi / sqrt(2 eps t) (z^2 = 2 a) past which a time-dependent profile is
# its cutoff to rounding; see time_independent_xi
_LAYER_EXPONENT = 43.0
_LAYER_ERFC_Z = 9.0


def time_independent_xi(spec: EnrichmentSpec, t_max: float = None) -> float:
    """xi*(t_max) = max(sqrt(4 eps 43), 9 sqrt(2 eps)) sqrt(t_max): at every
    xi >= xi* and every t in [0, t_max] the profile and its xi-derivative
    are cutoff_delta and cutoff_delta_dxi exactly, because
    enrichment_profile returns them there (it flushes at xi >= xi*(t), and
    xi*(t) <= xi*(t_max)).  The flush changes the layer formulas only below
    their rounding, as follows (a = xi^2 / (4 eps t) >= 43, so
    z = xi / sqrt(2 eps t) = sqrt(2 a) >= 9.27; the 9 sqrt(2 eps) term is
    phi0's own z >= 9).

    Value.  phi0_tilde is (1 - e) delta with e = exp(-a) <= exp(-43) =
    2.1e-19, and 1 - e rounds to exactly 1 once e < 2^-54 (a > 37.4).
    phi0 is (1 - K) delta, and the Mills-ratio bounds on the Gaussian tail
    give K = t ((1 + z^2) erfc_gauss(z) - z g(z)) <= 4 t phi(z) (1 + 1.5 /
    z^2) / z^3, with g = 2 phi and phi the standard normal density: below
    4.3e-22 t at a = 43, so below 2^-54 for every t < 1e5.  So the value is
    delta.

    Slope.  With 1 - e == 1 the slope of phi0_tilde differs from delta' by
    (xi / (2 eps t)) e delta <= sqrt(a / (eps t)) e^-a, which the stiffness
    blocks take times eps.  A level's blocks sum eps times the profile's
    slope, which peaks in the layer at exp(-1/2) / sqrt(2 eps t) (at
    a = 1/2).  Relative to that peak the dropped term is
    sqrt(2 a) e^(1/2 - a) <= 3.2e-18 < 2^-52, whatever eps and t: below
    the rounding of the blocks.  phi0's slope differs by
    -dK/dxi delta = sqrt(2 t / eps) (g(z) - z erfc_gauss(z)) delta
    <= sqrt(2 t / eps) g(z) / z^2, against its peak sqrt(2 t / eps) g(0) at
    xi = 0: a ratio e^-a / (2 a) = 2.4e-21.

    0 for a time-independent kind (every point qualifies); inf for a
    time-dependent one without t_max (no point does)."""
    if not spec.time_dependent:
        return 0.0
    if t_max is None:
        return math.inf
    eps = spec.epsilon
    return max(math.sqrt(4.0 * eps * _LAYER_EXPONENT), _LAYER_ERFC_Z * math.sqrt(2.0 * eps)) * math.sqrt(t_max)


def _kernel_time_integral(spec, xi, t):
    # K = int_0^t I(xi, tau) dtau = 4 t i2erfc(q) with q = xi / (2 sqrt(eps t)),
    # and dK/dxi = -2 sqrt(t / eps) ierfc(q) (Carslaw & Jaeger, sec. 2.5),
    # written in z = sqrt(2) q; (K, dK/dxi) for t > 0
    z = xi / math.sqrt(2.0 * spec.epsilon * t)
    tail = erfc_gauss(z)
    gauss = math.sqrt(2.0 / math.pi) * np.exp(-0.5 * z * z)
    return t * ((1.0 + z * z) * tail - z * gauss), math.sqrt(2.0 * t / spec.epsilon) * (z * tail - gauss)


def enrichment_profile(spec: EnrichmentSpec, xi, t: float = None, cutoff=None):
    """Value and closed-form xi-derivative of the selected layer profile at
    xi (vectorized), from one evaluation of each factor: the value and the
    slope share the Gaussian, the kernel integral and the cutoff.  cutoff,
    if given, is (cutoff_delta(xi), cutoff_delta_dxi(xi)), evaluated once by
    a caller that asks at the same points again; phi_m1_lin, tapered
    instead, ignores it.  At t > 0, phi0 and phi0_tilde are exactly the
    cutoff and its slope at xi >= xi*(t) (time_independent_xi), where their
    layer factors are below rounding."""
    xi = np.asarray(xi, dtype=float)
    eps = spec.epsilon
    if spec.kind == "phi_m1_lin":
        s = spec.sigma
        e = np.exp(-(xi**2) / (4.0 * eps))
        ramp = 1.0 - math.exp(-(s**2) / (4.0 * eps))
        inside = xi <= s
        return ((1.0 - e - ramp * xi / s) * inside)[()], (((xi / (2.0 * eps)) * e - ramp / s) * inside)[()]
    if spec.time_dependent and (t is None or t < 0.0):
        raise ValueError(f"{spec.kind} requires t >= 0")
    delta, delta_dxi = (cutoff_delta(xi), cutoff_delta_dxi(xi)) if cutoff is None else cutoff
    if spec.kind == "phi0_tilde" and t == 0.0:
        # pointwise t -> 0+ limit: the Gaussian factor tends to 1 away from
        # xi = 0 and to 0 at xi = 0, and its xi-scaled derivative vanishes
        # there, leaving the cutoff slope
        return np.where(xi > 0.0, delta, 0.0)[()], np.where(xi > 0.0, delta_dxi, 0.0)[()]
    if not spec.time_dependent or t == 0.0:
        return _layer_profile(spec, xi, t, delta, delta_dxi)
    # past xi*(t) the layer is below rounding: the profile is the cutoff
    band = xi < time_independent_xi(spec, t)
    if band.all():
        return _layer_profile(spec, xi, t, delta, delta_dxi)
    val, slope = np.array(delta, dtype=float), np.array(delta_dxi, dtype=float)
    val[band], slope[band] = _layer_profile(spec, xi[band], t, val[band], slope[band])
    return val[()], slope[()]


def _layer_profile(spec, xi, t, delta, delta_dxi):
    """Value and slope of phi0, phi0_tilde (t > 0) or phi_m1 from the
    layer formulas and the cutoff values delta, delta_dxi at xi."""
    if spec.kind == "phi0":
        kernel, kernel_dxi = _kernel_time_integral(spec, xi, t) if t > 0.0 else (0.0, 0.0)
        val = (1.0 - kernel) * delta
        return val[()], (-kernel_dxi * delta + (1.0 - kernel) * delta_dxi)[()]
    # phi_m1 is phi0_tilde frozen at t = 1
    t = t if spec.kind == "phi0_tilde" else 1.0
    e = np.exp(-(xi**2) / (4.0 * spec.epsilon * t))
    val = (1.0 - e) * delta
    return val[()], ((xi / (2.0 * spec.epsilon * t)) * e * delta + (1.0 - e) * delta_dxi)[()]


def enrichment_profile_dxi(spec: EnrichmentSpec, xi, t: float = None):
    """The slope that enrichment_profile returns with the value."""
    return enrichment_profile(spec, xi, t)[1]
