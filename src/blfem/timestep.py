"""Implicit Euler time stepping for the assembled systems.

Every space runs one loop on the blocks of an AssembledSystem.  Each step
takes the enriched level at the new time from parts['rebuild'] (the plain
space has one empty level, a time-independent profile one fixed level) and
solves
    [[K_ss, K_se], [K_se^T, K_ee]] u_new = C u_old + dt * load,
with K = M + dt * A at the new level.  K_ss = mss + dt * ass never changes,
and two levels' couplings differ only on the standard rows R that the
moving quadrature points touch (the system's moving_rows).  When R is small
against the enriched DOFs and the level count (linsolve.schur_pays),
linsolve.BlockSolver factors K_ss once per run and each new level only a
dense Schur complement of the enriched DOFs; otherwise, and for a single
level, it factors each level's stacked matrix.  Each factorization hands
back its solve, which the steps on that level call directly.  C is the mass
matrix between the new level (rows) and the previous one (columns), applied
block by block: [[Mss, Msl_old], [Msl_new^T, Cee]].  No matrix is stacked
here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import AssembledSystem, BasisSpace, EnrichedLevel, project_initial
from .corrector import ProblemData
from .linsolve import BlockSolver, NotPositiveDefinite


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

    @property
    def dt(self):
        return self.T / self.n_steps

    @property
    def times(self):
        return np.linspace(0.0, self.T, self.n_steps + 1)


@dataclass
class SolutionField:
    """Coefficient history of a time-stepped Galerkin solution and the
    enriched level of its final coefficients.

    history[n] holds the coefficients at times[n]; for time-dependent
    enrichments the profile of row n is evaluated at times[n]."""

    history: np.ndarray
    level: EnrichedLevel

    @property
    def final(self):
        return self.history[-1]


def cross_level_product(mss, new, old, u):
    """C u for the mass matrix C = [[Mss, Msl_old], [Msl_new^T, Cee]] between
    the enriched functions of level new (rows) and level old (columns);
    Mss u for the plain space."""
    n = mss.shape[0]
    if len(u) == n:
        return mss @ u
    us, ue = u[:n], u[n:]
    return np.concatenate([mss @ us + old.msl @ ue, new.msl_t @ us + new.cee @ ue])


def advance(
    space: BasisSpace,
    system: AssembledSystem,
    data: ProblemData,
    grid: TimeGrid,
) -> SolutionField:
    """March the semi-discrete problem from the projected initial state."""
    dt = grid.dt
    mss, rebuild = system.mss, system.parts["rebuild"]
    load = system.parts["make_load"](data.source)
    u = project_initial(space, system, data.u0_initial)
    history = np.empty((grid.n_steps + 1, len(u)))
    history[0] = u

    old = rebuild(grid.times[0])
    solver, step = None, 1
    try:
        for step, t_new in enumerate(grid.times[1:], start=1):
            new = rebuild(t_new, old)
            if solver is None or new is not old:
                kse = new.coupling(dt)
                if solver is None:
                    rows = system.moving_rows
                    levels = grid.n_steps if len(rows) else 1
                    solver = BlockSolver(mss + dt * system.ass, kse, rows, levels)
                solve = solver.factor(kse, new.mee + dt * new.aee)
            u = solve(cross_level_product(mss, new, old, u) + dt * load(t_new, new.phi))
            history[step] = u
            old = new
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite(f"time step {step}: {exc}") from exc
    return SolutionField(history=history, level=old)
