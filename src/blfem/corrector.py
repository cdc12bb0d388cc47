"""Limit solution, boundary-layer corrector, cutoff, and the four
boundary-layer element profiles used to enrich the Galerkin space.

All layer formulas live in the boundary-fitted radial coordinate
xi = 1 - r (or the distance to an endpoint in 1D) and use the
variance-1 error-function convention of :mod:`blfem.specfun`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .quadrature import adaptive_gauss, gauss_interval
from .specfun import erfc_gauss

ENRICHMENT_KINDS = ("phi0", "phi0_tilde", "phi_m1", "phi_m1_lin")
TIME_DEPENDENT_KINDS = ("phi0", "phi0_tilde")


@dataclass
class ProblemData:
    """Problem data for u_t - eps*Laplace(u) = f with zero Dirichlet data.

    1D: f(x, t), u0_initial(x) on [0, 1].
    2D: f(x, y, t), u0_initial(x, y) on the unit disk.
    All callables must accept numpy arrays.  f_antiderivative, if given, is
    F with F(.., t) = int_0^t f ds.
    """

    dim: int
    f: callable
    u0_initial: callable
    epsilon: float
    T: float
    f_antiderivative: callable = None
    warnings_issued: list = field(default_factory=list)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.epsilon <= 0.0 or self.T <= 0.0:
            raise ValueError("epsilon and T must be positive")
        bpts = self._boundary_points()
        u0b = np.array([self._eval_space(self.u0_initial, p) for p in bpts])
        if np.max(np.abs(u0b)) > 1e-10:
            raise ValueError("initial condition must vanish on the boundary")
        f0b = np.array([self._eval_spacetime(self.f, p, 0.0) for p in bpts])
        if np.max(np.abs(f0b)) > 1e-10:
            msg = "source does not vanish on the boundary at t=0; layer estimates may degrade"
            self.warnings_issued.append(msg)
            warnings.warn(msg, stacklevel=2)

    def _boundary_points(self):
        if self.dim == 1:
            return [(0.0,), (1.0,)]
        ang = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        return list(zip(np.cos(ang), np.sin(ang)))

    @staticmethod
    def _eval_space(fn, p):
        return float(fn(*p))

    @staticmethod
    def _eval_spacetime(fn, p, t):
        return float(fn(*p, t))

    def boundary_point(self, eta):
        """Boundary point addressed by the layer coordinate: the polar angle
        in 2D, the endpoint itself (0 or 1) in 1D."""
        if self.dim == 1:
            if eta not in (0.0, 1.0):
                raise ValueError("1D boundary coordinate must be 0 or 1")
            return (eta,)
        return (math.cos(eta), math.sin(eta))

    def f_on_boundary(self, eta, s):
        p = self.boundary_point(eta)
        return self.f(*p, s)


def limit_solution(data: ProblemData, point, t: float) -> float:
    """u0 + int_0^t f ds at a spatial point (tuple) and time t."""
    u0 = float(data.u0_initial(*point))
    if data.f_antiderivative is not None:
        return u0 + float(data.f_antiderivative(*point, t))
    if t == 0.0:
        return u0
    return u0 + adaptive_gauss(lambda s: data.f(*point, s), 0.0, t, 1e-12)


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

    def integrand(s):
        return heat_kernel_I(xi, t - s, data.epsilon) * np.asarray(data.f_on_boundary(eta, s), dtype=float)

    # The kernel is negligible for t - s << xi^2 / eps; pre-split there so the
    # adaptive rule starts with panels matched to the moving scale.
    cuts = [0.0]
    if xi > 0.0:
        for c in (t - xi**2 / data.epsilon, t - xi**2 / (100.0 * data.epsilon)):
            if 0.0 < c < t:
                cuts.append(c)
    cuts.append(t)
    cuts = sorted(set(cuts))
    return -sum(adaptive_gauss(integrand, a, b, 1e-10 / (len(cuts) - 1)) for a, b in zip(cuts[:-1], cuts[1:]))


@dataclass(frozen=True)
class CutoffSpec:
    """Smoothstep cutoff: 1 on [0, inner], 0 on [outer, 1]."""

    inner: float = 0.25
    outer: float = 0.5
    degree: int = 5  # 3 = cubic (C1), 5 = quintic (C2)

    def __post_init__(self):
        if not 0.0 < self.inner < self.outer <= 1.0:
            raise ValueError("need 0 < inner < outer <= 1")
        if self.degree not in (3, 5):
            raise ValueError("cutoff degree must be 3 or 5")


def cutoff_delta(spec: CutoffSpec, xi):
    """Cutoff value; monotone non-increasing, C^(degree-1)/2-smooth."""
    s = (np.asarray(xi, dtype=float) - spec.inner) / (spec.outer - spec.inner)
    # off the ramp s would clip to 0 or 1, where the polynomial is 0 or 1
    val = np.where(s <= 0.0, 1.0, 0.0)
    ramp = (s > 0.0) & (s < 1.0)
    s = s[ramp]
    if spec.degree == 3:
        val[ramp] = 1.0 - s * s * (3.0 - 2.0 * s)
    else:
        val[ramp] = 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s * s)
    return val[()]


def cutoff_delta_dxi(spec: CutoffSpec, xi):
    s = (np.asarray(xi, dtype=float) - spec.inner) / (spec.outer - spec.inner)
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(s, 0.0, 1.0)
    if spec.degree == 3:
        d = 6.0 * s * (1.0 - s)
    else:
        d = 30.0 * s * s * (1.0 - s) ** 2
    return (-d * inside / (spec.outer - spec.inner))[()]


@dataclass(frozen=True)
class EnrichmentSpec:
    """Which boundary-layer profile enriches the space, and its parameters.

    kind: 'phi0' (exact kernel integral), 'phi0_tilde' (Gaussian, time
        dependent), 'phi_m1' (Gaussian, frozen time), 'phi_m1_lin'
        (Gaussian with a linear taper on [0, sigma] instead of the cutoff).
    sigma: support width of the linearized variant.
    time_quadrature_points: Gauss points for the inner time integral of phi0.
    """

    kind: str
    epsilon: float
    sigma: float = None
    cutoff: CutoffSpec = CutoffSpec()
    time_quadrature_points: int = 48

    def __post_init__(self):
        if self.kind not in ENRICHMENT_KINDS:
            raise ValueError(f"unknown enrichment kind {self.kind!r}")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.kind == "phi_m1_lin":
            if self.sigma is None or self.sigma <= 0.0:
                raise ValueError("phi_m1_lin requires sigma > 0")
            if self.sigma > self.cutoff.outer:
                raise ValueError("sigma must not exceed the cutoff support")
        n = self.time_quadrature_points
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or not 1 <= n <= 64:
            raise ValueError("time_quadrature_points must be an integer in [1, 64]")

    @property
    def time_dependent(self):
        return self.kind in TIME_DEPENDENT_KINDS

    @property
    def support(self):
        """xi-extent outside of which the profile vanishes."""
        return self.sigma if self.kind == "phi_m1_lin" else self.cutoff.outer


# erfc_gauss(z) == 0 for z >= 37.68 and exp(-a) == 0 for a >= 745.14: both
# underflow in double precision
_ERFC_GAUSS_ZERO = 37.68
_EXP_ZERO = 745.14


def _kernel_time_integral(spec, xi, t):
    # int_0^t I(xi, tau) dtau via tau = v^2, removing the sqrt scale at 0.
    # z falls as v grows, so a point whose z at the largest node is past the
    # erfc underflow sums a row of exact zeros; only the other rows are
    # evaluated, each over all nodes, so every sum is unchanged
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    if t == 0.0:
        return out
    rule = gauss_interval(spec.time_quadrature_points)
    v = np.sqrt(t) * rule.points
    w = np.sqrt(t) * rule.weights * 2.0 * v
    scaled = xi / np.sqrt(2.0 * spec.epsilon)
    live = scaled / v.max() < _ERFC_GAUSS_ZERO
    out[live] = np.sum(erfc_gauss(scaled[live][:, None] / v) * w, axis=-1)
    return out


def _kernel_time_integral_dxi(spec, xi, t):
    # d/dxi int_0^t I dtau = -(2/sqrt(pi eps)) int_0^sqrt(t) exp(-xi^2/(4 eps v^2)) dv,
    # skipping the rows whose exponent underflows at the largest node
    rule = gauss_interval(spec.time_quadrature_points)
    v = np.sqrt(t) * rule.points
    w = np.sqrt(t) * rule.weights
    xi2 = np.asarray(xi, dtype=float) ** 2
    live = xi2 / (4.0 * spec.epsilon * v.max() ** 2) < _EXP_ZERO
    out = np.zeros_like(xi2)
    out[live] = np.sum(np.exp(-xi2[live][:, None] / (4.0 * spec.epsilon * v**2)) * w, axis=-1)
    return -2.0 / np.sqrt(np.pi * spec.epsilon) * out


def enrichment_profile(spec: EnrichmentSpec, xi, t: float = None):
    """Value of the selected layer profile at xi (vectorized)."""
    xi = np.asarray(xi, dtype=float)
    if spec.kind == "phi_m1":
        val = (1.0 - np.exp(-(xi**2) / (4.0 * spec.epsilon))) * cutoff_delta(spec.cutoff, xi)
    elif spec.kind == "phi_m1_lin":
        s = spec.sigma
        ramp = (1.0 - math.exp(-(s**2) / (4.0 * spec.epsilon))) * xi / s
        val = (1.0 - np.exp(-(xi**2) / (4.0 * spec.epsilon)) - ramp) * (xi <= s)
    elif spec.kind == "phi0_tilde":
        if t is None or t < 0.0:
            raise ValueError("phi0_tilde requires t >= 0")
        if t == 0.0:
            # pointwise t -> 0+ limit: the Gaussian factor tends to 1 away
            # from xi = 0 and to 0 at xi = 0
            val = np.where(xi > 0.0, cutoff_delta(spec.cutoff, xi), 0.0)
        else:
            val = (1.0 - np.exp(-(xi**2) / (4.0 * spec.epsilon * t))) * cutoff_delta(spec.cutoff, xi)
    else:  # phi0
        if t is None or t < 0.0:
            raise ValueError("phi0 requires t >= 0")
        val = (1.0 - _kernel_time_integral(spec, xi, t)) * cutoff_delta(spec.cutoff, xi)
    return val[()]


def enrichment_profile_dxi(spec: EnrichmentSpec, xi, t: float = None):
    """Closed-form xi-derivative of the selected profile (vectorized)."""
    xi = np.asarray(xi, dtype=float)
    eps = spec.epsilon
    if spec.kind == "phi_m1":
        e = np.exp(-(xi**2) / (4.0 * eps))
        val = (xi / (2.0 * eps)) * e * cutoff_delta(spec.cutoff, xi) + (1.0 - e) * cutoff_delta_dxi(
            spec.cutoff, xi
        )
    elif spec.kind == "phi_m1_lin":
        s = spec.sigma
        e = np.exp(-(xi**2) / (4.0 * eps))
        slope = (1.0 - math.exp(-(s**2) / (4.0 * eps))) / s
        val = ((xi / (2.0 * eps)) * e - slope) * (xi <= s)
    elif spec.kind == "phi0_tilde":
        if t is None or t < 0.0:
            raise ValueError("phi0_tilde derivative requires t >= 0")
        if t == 0.0:
            # pointwise t -> 0+ limit: the Gaussian factor and its xi-scaled
            # derivative vanish away from xi = 0, leaving the cutoff slope
            return np.where(xi > 0.0, cutoff_delta_dxi(spec.cutoff, xi), 0.0)[()]
        e = np.exp(-(xi**2) / (4.0 * eps * t))
        val = (xi / (2.0 * eps * t)) * e * cutoff_delta(spec.cutoff, xi) + (1.0 - e) * cutoff_delta_dxi(
            spec.cutoff, xi
        )
    else:  # phi0
        if t is None or t < 0.0:
            raise ValueError("phi0 derivative requires t >= 0")
        if t == 0.0:
            # the time integral and its derivative vanish at t = 0
            return cutoff_delta_dxi(spec.cutoff, xi)[()]
        # the kernel integral itself only matters where the cutoff slopes
        slope = cutoff_delta_dxi(spec.cutoff, xi)
        ramp = slope != 0.0
        kernel = np.zeros_like(xi)
        kernel[ramp] = _kernel_time_integral(spec, xi[ramp], t)
        val = -_kernel_time_integral_dxi(spec, xi, t) * cutoff_delta(spec.cutoff, xi) + (1.0 - kernel) * slope
    return val[()]
