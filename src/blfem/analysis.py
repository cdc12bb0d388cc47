"""Error norms, oscillation diagnostics, convergence studies, and the
epsilon-rate verification against a layer-refined reference solver.

All norms are computed with layer-resolving quadrature: the manufactured
exact solutions themselves have sqrt(eps)-scale boundary layers, and
under-integrating them would fake accuracy for the enriched scheme.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .assembly import (
    AssemblyError,
    _chunks,
    _discrete_field,
    build_space,
    element_rules_1d,
    element_rules_2d,
    assemble_standard,
    assemble_enriched,
)
from .corrector import EnrichmentSpec, ProblemData, source_values, unit_factor
from .linsolve import NotPositiveDefinite
from .mesh import build_disk_mesh, build_interval_mesh
from .quadrature import geometric_panels
from .specfun import bessel_i0_scaled, bessel_i1_scaled
from .timestep import TimeGrid, advance

BOUNDARY_STRIP = 0.25


# ---------------------------------------------------------------------------
# manufactured exact solutions


class _Solution:
    """A data set with a known solution on the domain of dimension `dim` (a
    class attribute, not a dataclass field).  A subclass defines
    `value_and_grad` (u and grad u at the same points: coordinates, then t)
    and `source` (ProblemData's terms); u, grad u, f and the initial data
    u0 = u(t = 0) follow."""

    dim = 1

    def u(self, *coords_t):
        return self.value_and_grad(*coords_t)[0]

    def grad(self, *coords_t):
        return self.value_and_grad(*coords_t)[1]

    def u0(self, *coords):
        return self.u(*coords, 0.0)

    def f(self, *coords_t):
        """The source at the points (coordinates, then t), from its terms."""
        return source_values(self.source(*coords_t[:-1]), coords_t[-1])

    def problem(self):
        return ProblemData(dim=self.dim, source=self.source, u0_initial=self.u0, epsilon=self.epsilon)


@dataclass(frozen=True)
class ExactSolution1D(_Solution):
    """u = t * g(x/sqrt(eps)) * g((1-x)/sqrt(eps)) with g(s) = 1 - exp(-s)cos(s):
    boundary layers of width sqrt(eps) at both endpoints, zero initial data."""

    epsilon: float

    def _layers(self, x):
        """g, g' and g'' at s = x/sqrt(eps) and at s = (1-x)/sqrt(eps), each
        from one exp(-s), cos(s) and sin(s)."""
        rt = np.sqrt(self.epsilon)
        out = []
        for s in (np.asarray(x) / rt, (1.0 - np.asarray(x)) / rt):
            e, c, sn = np.exp(-s), np.cos(s), np.sin(s)
            out.append((1.0 - e * c, e * (c + sn), -2.0 * e * sn))
        return out

    def value_and_grad(self, x, t):
        """u and grad u from one evaluation of the layers."""
        (ga, g1a, _), (gb, g1b, _) = self._layers(x)
        return t * ga * gb, (t / np.sqrt(self.epsilon) * (g1a * gb - ga * g1b))[..., None]

    def source(self, x):
        """Source u_t - eps * u_xx from the closed-form derivatives."""
        (ga, g1a, g2a), (gb, g1b, g2b) = self._layers(x)
        lap = (g2a * gb - 2.0 * g1a * g1b + ga * g2b) / self.epsilon
        eps = self.epsilon
        return (unit_factor, ga * gb), (lambda t: -(t * eps), lap)

    def u0(self, x):
        """Zero, as defined, without evaluating the layers."""
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ExactSolution2D(_Solution):
    """u = exp(t) (1 - I0(r/sqrt(eps)) / I0(1/sqrt(eps))) on the unit disk,
    with source f = exp(t); evaluated through scaled Bessel ratios."""

    dim = 2

    epsilon: float

    def u(self, x, y, t):
        """u alone, without the I1 Bessel value of the gradient."""
        # I0(r/sqrt(eps)) / I0(1/sqrt(eps)), stable for tiny eps
        rt, r = np.sqrt(self.epsilon), np.hypot(x, y)
        return np.exp(t) * (1.0 - bessel_i0_scaled(r / rt) / bessel_i0_scaled(1.0 / rt) * np.exp((r - 1.0) / rt))

    def value_and_grad(self, x, y, t):
        """u, formed as `u` forms it, and grad u = u_r (x, y) / r, from one
        radius, one exponential and one Bessel value at the boundary."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        r, rt = np.hypot(x, y), np.sqrt(self.epsilon)
        s, i0, e = r / rt, bessel_i0_scaled(1.0 / rt), np.exp((r - 1.0) / rt)
        ur, safe = -np.exp(t) / rt * bessel_i1_scaled(s) / i0 * e, np.maximum(r, 1e-300)
        g = np.stack([ur * x / safe, ur * y / safe], axis=-1)
        g[r < 1e-12] = 0.0
        return np.exp(t) * (1.0 - bessel_i0_scaled(s) / i0 * e), g

    def source(self, x, y):
        return ((np.exp, np.ones_like(np.asarray(x, dtype=float))),)


@dataclass(frozen=True)
class ZeroSolution1D(_Solution):
    """f = 0, u0 = 0: the solution is identically zero (degenerate guard).
    Every method takes the coordinates of its dimension (then t)."""

    epsilon: float

    def value_and_grad(self, x, *_):
        return np.zeros_like(np.asarray(x, dtype=float)), np.zeros(np.shape(x) + (self.dim,))

    def source(self, x, *_):
        return ((unit_factor, np.zeros_like(np.asarray(x, dtype=float))),)


@dataclass(frozen=True)
class ZeroSolution2D(ZeroSolution1D):
    """f = 0, u0 = 0 on the disk: the solution is identically zero."""

    dim = 2


@dataclass(frozen=True)
class SmoothSolution1D(_Solution):
    """u = (1 + t) sin(pi x): layer-free for every epsilon, so standard P1
    converges at its classical second-order rate."""

    epsilon: float

    def value_and_grad(self, x, t):
        px = np.pi * np.asarray(x, dtype=float)
        return (1.0 + t) * np.sin(px), ((1.0 + t) * np.pi * np.cos(px))[..., None]

    def source(self, x):
        c = self.epsilon * np.pi**2
        return ((lambda t: 1.0 + c * (1.0 + t), np.sin(np.pi * np.asarray(x, dtype=float))),)


# ---------------------------------------------------------------------------
# error norms


@dataclass(frozen=True)
class ErrorReport:
    rel_l2: float
    abs_l2: float
    h1_seminorm_error: float
    oscillation_index: float
    h: float
    dofs: int
    runtime: float = 0.0


def _element_rules(mesh, epsilon, refine=1):
    rules = element_rules_1d if mesh.dim == 1 else element_rules_2d
    return rules(mesh, epsilon, refine=refine)


def _error_integrals(exact, t, layout, field):
    """Squared L2 error, squared L2 norm of the exact solution, and squared
    H1-seminorm error over the layout, given the discrete field there, and
    the exact solution at the layout's points.  The exact solution is
    evaluated chunk by chunk (_chunks), and the squares share one buffer,
    which bounds the temporaries; the sums run over whole arrays."""
    uh, guh = field
    coords = np.atleast_2d(layout.points.T)  # one coordinate array per dimension
    ue, grad_err = np.empty(len(uh)), np.empty_like(guh)
    for sel in _chunks(len(uh)):
        ue[sel], grad_err[sel] = exact.value_and_grad(*coords[:, sel], t)
    np.square(np.subtract(guh, grad_err, out=grad_err), out=grad_err)
    w, sq = layout.weights, np.subtract(uh, ue)
    err2 = np.dot(w, np.square(sq, out=sq))
    h12 = np.dot(w, np.sum(grad_err, axis=1, out=sq))
    return float(err2), float(np.dot(w, np.square(ue, out=sq))), float(h12), ue


def oscillation_index(space, exact, t, layout, uh, ue) -> float:
    """Maximum overshoot of the discrete solution beyond the exact
    solution's local range within the boundary strip, normalized by
    max |exact|.  Quantifies spurious boundary-layer oscillations.

    The local range of the exact solution over an element window includes
    its values at the element vertices; for boundary elements those pin the
    bottom of the layer, so a discrete solution that merely descends
    through the layer at a slightly shifted position is not penalized while
    genuine over/undershoot beyond the traversed range is.  `layout` is the
    unrefined layout over every element of the mesh, and `uh` and `ue` the
    discrete field and the exact solution at its points."""
    mesh = space.mesh
    elems = mesh.elements
    mid = mesh.nodes[elems].mean(axis=1)
    if mesh.dim == 1:
        in_strip = (mid < BOUNDARY_STRIP) | (mid > 1.0 - BOUNDARY_STRIP)
    else:
        in_strip = np.hypot(*mid.T) >= 1.0 - BOUNDARY_STRIP
    # one coordinate array per dimension
    uev = np.asarray(exact.u(*np.atleast_2d(mesh.nodes.T), t), dtype=float)[elems]
    global_max = float(np.abs(ue).max())
    if global_max < 1e-300:
        return 0.0
    lo = np.minimum(np.minimum.reduceat(ue, layout.starts), uev.min(axis=1))
    hi = np.maximum(np.maximum.reduceat(ue, layout.starts), uev.max(axis=1))
    over = np.maximum(np.maximum.reduceat(uh, layout.starts) - hi, lo - np.minimum.reduceat(uh, layout.starts))
    return max(0.0, float(over[in_strip].max(initial=0.0))) / global_max


def compute_error_report(
    space, coeffs, exact, t, epsilon, refine: int = 1, runtime: float = 0.0, layout=None
) -> ErrorReport:
    """Errors of the discrete solution against the exact one at time t;
    rel_l2 is NaN when the exact solution vanishes in L2.  `layout` is the
    unrefined layout over every element of the mesh, built here if not
    given; the oscillation index always reads it, and the norms do too
    unless refine > 1 asks for a refined one."""
    if layout is None:
        layout = _element_rules(space.mesh, epsilon)
    fine = layout if refine == 1 else _element_rules(space.mesh, epsilon, refine)
    field = _discrete_field(space, coeffs, fine.points, fine.element, fine.bary, t)
    err2, ex2, h12, ue = _error_integrals(exact, t, fine, field)
    vanishes = np.sqrt(ex2) < 1e-300
    uh = field[0]
    if fine is not layout:
        uh, _ = _discrete_field(space, coeffs, layout.points, layout.element, layout.bary, t)
        ue = exact.u(*np.atleast_2d(layout.points.T), t)
    return ErrorReport(
        rel_l2=float("nan") if vanishes else float(np.sqrt(err2 / ex2)),
        abs_l2=float(np.sqrt(err2)),
        h1_seminorm_error=float(np.sqrt(h12)),
        oscillation_index=oscillation_index(space, exact, t, layout, uh, ue),
        h=float(space.mesh.h),
        dofs=int(space.total_dofs),
        runtime=runtime,
    )


# ---------------------------------------------------------------------------
# convergence studies


def fit_loglog(xs, ys):
    """Least-squares slope of log10(y) against log10(x), with residual."""
    xs = np.log10(np.asarray(xs, dtype=float))
    ys = np.log10(np.asarray(ys, dtype=float))
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a slope")
    coef, res, _, _ = np.linalg.lstsq(np.column_stack([xs, np.ones_like(xs)]), ys, rcond=None)
    resid = float(np.sqrt(res[0])) if len(res) else 0.0
    return float(coef[0]), resid


@dataclass
class ConvergenceTable:
    """Error rows (by scheme, then decreasing h), fitted slopes, and the
    levels that failed numerically."""

    rows: list = field(default_factory=list)  # dicts following the CSV schema
    slopes: dict = field(default_factory=dict)  # scheme -> (slope, residual)
    failures: list = field(default_factory=list)  # "scheme=<s> level=<n>: <message>"

    def scheme_rows(self, scheme):
        return [r for r in self.rows if r["scheme"] == scheme]


CSV_HEADER = "scheme,epsilon,h,dofs,dt,T,rel_l2,h1_err,osc_index,runtime_s"


def _fmt(x):
    if isinstance(x, (str, int, np.integer)):
        return str(x)
    return f"{float(x):.10g}"


def report_row(scheme, epsilon, dt, T, report: ErrorReport, timing=True):
    """The CSV row of one error report, as a dict following CSV_HEADER;
    timing=False zeroes the runtime column."""
    return {
        "scheme": scheme,
        "epsilon": epsilon,
        "h": report.h,
        "dofs": report.dofs,
        "dt": dt,
        "T": T,
        "rel_l2": report.rel_l2,
        "h1_err": report.h1_seminorm_error,
        "osc_index": report.oscillation_index,
        "runtime_s": report.runtime if timing else 0.0,
    }


def format_csv_row(r):
    """One data line of the documented CSV schema: the columns of CSV_HEADER
    in its order (numbers to 10 significant digits)."""
    return ",".join(_fmt(r[k]) for k in CSV_HEADER.split(","))


def write_convergence_csv(table: ConvergenceTable, path, header_comments=()):
    """CSV per the documented schema: UTF-8, LF endings, 10 significant
    digits, optional `#` provenance comments and then one `# error:` line
    per failed level before the header."""
    lines = [f"# {c}" for c in header_comments]
    lines.extend(f"# error: {f}" for f in table.failures)
    lines.append(CSV_HEADER)
    lines.extend(format_csv_row(r) for r in table.rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# named built-in data sets: name -> exact solution class (its `dim` the dimension)
PROBLEMS = {
    "exact1d": ExactSolution1D,
    "zero1d": ZeroSolution1D,
    "smooth1d": SmoothSolution1D,
    "exact2d": ExactSolution2D,
    "zero2d": ZeroSolution2D,
}
SCHEMES = ("sfem", "nfem")
MIN_LEVEL = {1: 2, 2: 8}  # elements (1D), boundary nodes (2D)
# a study level that raises one of these is recorded as failed, not fatal
LEVEL_FAILURES = (AssemblyError, NotPositiveDefinite)


def _problem_class(dim, problem):
    """The exact solution class of a named problem (None: the dimension's
    layered benchmark), checked against dim."""
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    name = ("exact1d" if dim == 1 else "exact2d") if problem is None else problem
    if getattr(PROBLEMS.get(name), "dim", None) != dim:
        raise ValueError(f"unknown {dim}D problem {problem!r}")
    return PROBLEMS[name]


def solve_scenario(
    dim,
    epsilon,
    level,
    T,
    dt,
    scheme,
    enrichment_kind="phi_m1_lin",
    sigma=None,
    refine=1,
    problem=None,
):
    """Build mesh + space, march to T, and report errors for one scheme.

    level is n_elements (1D) or the boundary node count (2D).  problem
    selects a named built-in data set (default: the dimension's layered
    benchmark); sigma (default: mesh-derived) is the phi_m1_lin taper width.
    Every input is checked before the mesh is built; a bad one raises
    ValueError.  Returns (ErrorReport, SolutionField, BasisSpace, exact)."""
    for name, value in (("epsilon", epsilon), ("T", T), ("dt", dt)):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive")
    exact = _problem_class(dim, problem)(epsilon)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if refine < 1:
        raise ValueError("quadrature refine must be >= 1")
    if sigma is not None and not sigma > 0.0:
        raise ValueError("sigma must be positive")
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-12 * T or n_steps < 1:
        raise ValueError(f"dt = {dt} does not tile [0, T = {T}]")

    if dim == 1:
        mesh = build_interval_mesh(level)
        default_sigma = mesh.h
    else:
        mesh = build_disk_mesh(level)
        # several ring widths: the taper must dominate the chord sagitta of
        # the polygonal boundary, else its end-point fit near the mid-edge
        # chords drags the layer coefficients above the interior plateau
        default_sigma = min(3.0 * mesh.outer_ring_width, 0.5)
    spec = None
    if scheme == "nfem":
        taper = (sigma or default_sigma) if enrichment_kind == "phi_m1_lin" else None
        spec = EnrichmentSpec(kind=enrichment_kind, epsilon=epsilon, sigma=taper)

    grid = TimeGrid(T=T, n_steps=n_steps)
    data = exact.problem()
    # the run's one layer-resolving layout: the error report reads it, and
    # in 2D so do the enriched blocks
    layout = _element_rules(mesh, epsilon)

    t0 = time.perf_counter()
    space = build_space(mesh, spec)
    if spec is None:
        system = assemble_standard(space, epsilon)
    else:
        system = assemble_enriched(space, epsilon, t_max=T, layout=layout)
    fieldsol = advance(space, system, data, grid)
    runtime = time.perf_counter() - t0
    # the report runs without the march's blocks, operators and load
    del system
    report = compute_error_report(
        space, fieldsol.final, exact, T, epsilon, refine=refine, runtime=runtime, layout=layout
    )
    return report, fieldsol, space, exact


def run_convergence_study(
    dim,
    epsilon,
    levels,
    T=1.0,
    dt=0.01,
    schemes=("sfem", "nfem"),
    enrichment_kind="phi_m1_lin",
    sigma=None,
    timing=True,
    dt_per_level=None,
    problem=None,
) -> ConvergenceTable:
    """Error tables over one or more mesh levels for the requested schemes;
    a scheme's slope is fitted when it has at least 3 rows.

    Level counts and sizes, scheme names and the problem (whose exact
    solution must not vanish) are checked before the first solve
    (ValueError).  A level that fails numerically is recorded in the
    table's `failures` and the study moves on.
    dt_per_level, if given, maps a level to its time step (used to keep the
    time error subdominant in space-rate studies).  With timing=False the
    runtime column is zeroed so rerun outputs are byte-identical.
    """
    if _problem_class(dim, problem) in (ZeroSolution1D, ZeroSolution2D):
        raise ValueError(f"problem {problem!r} has a zero exact solution, so relative errors are undefined")
    if not levels:
        raise ValueError("need at least one mesh level")
    if min(levels) < MIN_LEVEL[dim]:
        raise ValueError(f"{dim}D mesh levels must be >= {MIN_LEVEL[dim]}")
    if not schemes or any(s not in SCHEMES for s in schemes):
        raise ValueError(f"schemes must be drawn from sfem,nfem, got {','.join(schemes)!r}")
    table = ConvergenceTable()
    for scheme in schemes:
        for level in levels:
            dt_l = dt_per_level(level) if dt_per_level else dt
            try:
                report, _, _, _ = solve_scenario(
                    dim, epsilon, level, T, dt_l, scheme, enrichment_kind=enrichment_kind, sigma=sigma,
                    problem=problem,
                )
            except LEVEL_FAILURES as exc:
                table.failures.append(f"scheme={scheme} level={level}: {exc}")
                continue
            table.rows.append(report_row(scheme, epsilon, dt_l, T, report, timing))
    table.rows.sort(key=lambda r: (r["scheme"], -r["h"]))
    for scheme in schemes:
        rows = table.scheme_rows(scheme)
        if len(rows) >= 3:
            table.slopes[scheme] = fit_loglog([r["h"] for r in rows], [r["rel_l2"] for r in rows])
    return table


# ---------------------------------------------------------------------------
# epsilon-rate study against a layer-refined reference solver


@dataclass(frozen=True)
class RateStudyResult:
    epsilons: tuple
    l2_errors: tuple        # L-infinity in time of the L2 norm
    h1_errors: tuple        # L-infinity in time of the H1 seminorm
    l2_slope: float
    h1_slope: float
    monotone: bool
    degenerate: bool = False


# the fewest reference-grid nodes in each sqrt(eps) layer
MIN_LAYER_POINTS = 10


def _graded_grid(epsilon):
    """Symmetric grid on [0,1] geometrically refined into both sqrt(eps)
    boundary layers, guaranteeing >= MIN_LAYER_POINTS nodes per layer."""
    width = np.sqrt(epsilon)
    n_sub = 24
    while True:
        half = geometric_panels(0.5, n_sub, width / (MIN_LAYER_POINTS + 2))
        if np.sum(half <= width) >= MIN_LAYER_POINTS or n_sub > 400:
            break
        n_sub += 8
    return np.concatenate([half, (1.0 - half[::-1])[1:]])


def _nonuniform_laplacian(x):
    """Second-order three-point Laplacian weights on a nonuniform grid,
    returned as (lower, diag, upper) for the interior nodes."""
    h = np.diff(x)
    hl, hr = h[:-1], h[1:]
    lower = 2.0 / (hl * (hl + hr))
    upper = 2.0 / (hr * (hl + hr))
    diag = -(lower + upper)
    return lower, diag, upper


def _p1_l2_norm(x, v):
    h = np.diff(x)
    return float(np.sqrt(np.sum(h * (v[:-1] ** 2 + v[:-1] * v[1:] + v[1:] ** 2) / 3.0)))


def _p1_h1_seminorm(x, v):
    h = np.diff(x)
    return float(np.sqrt(np.sum((np.diff(v) ** 2) / h)))


def remainder_reference_1d(epsilon, g_xx, T=1.0, n_steps=1000):
    """Crank-Nicolson reference for the expansion remainder
    w = u_eps - u0 - corrector, for sources of the form f(x,t) = t g(x).

    The limit solution is u0 = (t^2/2) g(x), and away from an exponentially
    small cutoff commutator the remainder solves
        w_t - eps w_xx = eps (t^2/2) g''(x),  w = 0 on the boundary and at t=0,
    because the corrector solves the layer heat equation exactly and cancels
    the boundary trace of u0.  Returns (L2 history max, H1 history max).
    """
    x = _graded_grid(epsilon)
    n = len(x)
    lower, diag, upper = _nonuniform_laplacian(x)
    dt = T / n_steps
    # banded matrices for (I - dt/2 eps L) and (I + dt/2 eps L) on interior nodes
    m = n - 2
    ab = np.zeros((3, m))
    ab[0, 1:] = -0.5 * dt * epsilon * upper[:-1]
    ab[1, :] = 1.0 - 0.5 * dt * epsilon * diag
    ab[2, :-1] = -0.5 * dt * epsilon * lower[1:]
    w = np.zeros(n)
    l2_max = h1_max = 0.0
    gxx = np.asarray(g_xx(x[1:-1]), dtype=float)
    for step in range(1, n_steps + 1):
        t_mid = (step - 0.5) * dt
        rhs = (
            w[1:-1]
            + 0.5 * dt * epsilon * (lower * w[:-2] + diag * w[1:-1] + upper * w[2:])
            + dt * epsilon * 0.5 * t_mid**2 * gxx
        )
        w[1:-1] = sla.solve_banded((1, 1), ab, rhs, check_finite=False)
        l2_max = max(l2_max, _p1_l2_norm(x, w))
        h1_max = max(h1_max, _p1_h1_seminorm(x, w))
    return l2_max, h1_max


def _cos_pi_xx(x):
    """g'' of the default source profile g(x) = cos(pi x)."""
    return -np.pi**2 * np.cos(np.pi * x)


def epsilon_rate_study(epsilons=(1e-3, 1e-4, 1e-5, 1e-6), g_xx=_cos_pi_xx, T=1.0, n_steps=1000) -> RateStudyResult:
    """Fitted rate of || u_eps - u0 - corrector || against eps for the
    source family f(x, t) = t g(x) on the unit interval, given g''.

    Defaults to g(x) = cos(pi x), which has nonzero boundary traces and so
    excites genuine boundary layers.  The reference is an independent
    finite-difference Crank-Nicolson solve on a layer-graded grid, one per
    epsilon, in decreasing order.  Every input is checked before the first
    reference solve (ValueError).  When no remainder is left at any eps
    the result is degenerate, with NaN slopes.
    """
    if len(epsilons) < 3:
        raise ValueError("need at least 3 epsilon values")
    if not all(eps > 0.0 for eps in epsilons):
        raise ValueError("every epsilon must be positive")
    if not T > 0.0:
        raise ValueError("T must be positive")
    if not n_steps >= 1:
        raise ValueError("n_steps must be >= 1")
    eps = np.sort(np.asarray(epsilons, dtype=float))[::-1]
    l2s, h1s = np.array([remainder_reference_1d(e, g_xx, T=T, n_steps=n_steps) for e in eps]).T
    degenerate = bool(l2s.max() < 1e-14)
    slopes = [float("nan")] * 2 if degenerate else [fit_loglog(eps, errs)[0] for errs in (l2s, h1s)]
    return RateStudyResult(
        epsilons=tuple(eps),
        l2_errors=tuple(l2s),
        h1_errors=tuple(h1s),
        l2_slope=slopes[0],
        h1_slope=slopes[1],
        monotone=degenerate or bool(np.all(np.diff(l2s) < 0.0)),
        degenerate=degenerate,
    )
