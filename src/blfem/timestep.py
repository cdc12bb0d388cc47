"""Implicit Euler time stepping for the assembled systems.

With a time-independent enrichment (or none) the matrix M + dt*A is
factorized once.  Time-dependent profiles change the trial space between
levels, so each step builds the enriched blocks of the new level once (one
profile evaluation), refactors, and uses the mixed mass matrix
<Phi_i(t_{n+1}), Phi_j(t_n)> between the new and the previous level on the
right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import AssembledSystem, BasisSpace, project_initial
from .corrector import ProblemData
from .linsolve import NoConvergence, NotPositiveDefinite, SolverConfig, SpdSolver

_GRID_TOL = 1e-12


def _reraise_with_step(exc, step):
    """Re-raise a solver failure tagged with the time level that hit it."""
    residual = getattr(exc, "residual", None)
    raise type(exc)(f"time step {step}: {exc}", residual=residual) from exc


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with n_steps steps of width dt = T/n_steps."""

    T: float
    n_steps: int

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError("T must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if abs(self.n_steps * self.dt - self.T) > _GRID_TOL:
            raise ValueError("time grid does not tile [0, T]")

    @property
    def dt(self):
        return self.T / self.n_steps

    @property
    def times(self):
        return np.linspace(0.0, self.T, self.n_steps + 1)


@dataclass
class SolutionField:
    """Coefficient history of a time-stepped Galerkin solution.

    history[n] holds the coefficients at times[n]; for time-dependent
    enrichments the profile of row n is evaluated at times[n]."""

    space: BasisSpace
    grid: TimeGrid
    history: np.ndarray

    @property
    def final(self):
        return self.history[-1]


def advance(
    space: BasisSpace,
    system: AssembledSystem,
    data: ProblemData,
    grid: TimeGrid,
    solver_config: SolverConfig = None,
) -> SolutionField:
    """March the semi-discrete problem from the projected initial state."""
    cfg = solver_config or SolverConfig()
    dt = grid.dt
    load_fn = system.parts["make_load"](data.f)
    u = project_initial(space, system, data.u0_initial, cfg)
    history = np.empty((grid.n_steps + 1, len(u)))
    history[0] = u

    time_dep = space.enrichment is not None and space.enrichment.time_dependent
    if not time_dep:
        solver = SpdSolver(system.mass + dt * system.stiffness, cfg)
        for n, t_new in enumerate(grid.times[1:], start=1):
            rhs = system.mass @ u + dt * load_fn(t_new)
            try:
                u = solver.solve(rhs)
            except (NotPositiveDefinite, NoConvergence) as exc:
                _reraise_with_step(exc, n)
            history[n] = u
        return SolutionField(space=space, grid=grid, history=history)

    restack = system.parts["restack"]
    rebuild = system.parts["rebuild"]
    cross_mass = system.parts["cross_mass"]
    old = rebuild(grid.times[0])
    for n, t_new in enumerate(grid.times[1:], start=1):
        new = rebuild(t_new)
        mass_new, stiff_new = restack(new)
        rhs = cross_mass(new, old) @ u + dt * load_fn(t_new, phi_vals=new.phi)
        try:
            u = SpdSolver(mass_new + dt * stiff_new, cfg).solve(rhs)
        except (NotPositiveDefinite, NoConvergence) as exc:
            _reraise_with_step(exc, n)
        history[n] = u
        old = new
    return SolutionField(space=space, grid=grid, history=history)
