"""SPD solvers for the implicit-Euler and projection systems.

`SolverConfig.method` picks the solver for every system, whatever its size:
`direct_cholesky` (the default) is a sparse LDL^T factorization, robust when
the enriched Gram block is ill conditioned at sqrt(eps) ~ h; `cg_jacobi` is
scipy's conjugate gradients with a Jacobi preconditioner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class NotPositiveDefinite(Exception):
    """The LDL^T factorization hit a nonpositive or off-diagonal pivot."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NoConvergence(Exception):
    """CG exhausted its iteration budget."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SolverConfig:
    method: str = "direct_cholesky"
    rel_tolerance: float = 1e-10

    def __post_init__(self):
        if self.method not in ("direct_cholesky", "cg_jacobi"):
            raise ValueError(f"unknown solver method {self.method!r}")
        if not 0.0 < self.rel_tolerance <= 1e-4:
            raise ValueError("rel_tolerance must be in (0, 1e-4]")


class SpdSolver:
    """Factorize once, solve many right-hand sides.

    The direct path factors A = P L D L^T P^T with SuperLU in symmetric mode:
    one fill-reducing ordering for rows and columns and no row pivoting, so
    the pivots d (the diagonal of U) are those of D.  A is positive definite
    exactly when no row pivot was taken and every d is positive.  Exposes
    `condition_proxy` = sqrt(max d / min d), the ratio of extreme diagonal
    entries of the Cholesky factor: a cheap indicator of near-linear
    dependence between enrichment and hat functions.
    """

    def __init__(self, matrix, config: SolverConfig = SolverConfig()):
        self.config = config
        self.matrix = sp.csr_matrix(matrix)
        self.n = self.matrix.shape[0]
        self.condition_proxy = None
        if config.method == "direct_cholesky":
            from scipy.sparse.linalg import splu

            try:
                self._lu = splu(
                    self.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True),
                )
            except RuntimeError as exc:  # an exactly singular pivot
                raise NotPositiveDefinite(str(exc)) from exc
            d = self._lu.U.diagonal()
            if np.any(self._lu.perm_r != self._lu.perm_c):
                raise NotPositiveDefinite("a zero diagonal pivot forced a row exchange")
            if not np.all(d > 0.0):
                raise NotPositiveDefinite(f"nonpositive pivot {d.min():.3e}")
            self.condition_proxy = float(np.sqrt(d.max() / d.min()))
        else:
            self._jacobi = sp.diags(1.0 / self.matrix.diagonal())

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.n,):
            raise ValueError("rhs dimension mismatch")
        nb = np.linalg.norm(rhs)
        if nb == 0.0:
            return np.zeros(self.n)
        if self.config.method == "direct_cholesky":
            return self._lu.solve(rhs)
        from scipy.sparse.linalg import cg

        # x0 = 0; stops once ||r|| < tol ||b||, or after 4 n iterations
        tol, max_iter = self.config.rel_tolerance, 4 * self.n
        x, info = cg(self.matrix, rhs, rtol=tol, atol=0.0, maxiter=max_iter, M=self._jacobi)
        if info != 0:
            raise NoConvergence(
                f"CG did not reach {tol} in {max_iter} iterations",
                residual=float(np.linalg.norm(rhs - self.matrix @ x) / nb),
            )
        return x


def solve_spd(matrix, rhs, config: SolverConfig = SolverConfig()):
    """One-shot SPD solve; see SpdSolver for reusable factorizations."""
    return SpdSolver(matrix, config).solve(rhs)
