"""SPD solvers for the implicit-Euler and projection systems.

`SolverConfig.method` picks the solver for every system, whatever its size:
`direct_cholesky` (the default) is a sparse LDL^T factorization, robust when
the enriched Gram block is ill conditioned at sqrt(eps) ~ h; `cg_jacobi` is
scipy's conjugate gradients with a Jacobi preconditioner.

`SpdSolver` solves one sparse matrix.  `BlockSolver` solves the time levels
of an enriched implicit-Euler march, [[K_ss, K_se], [K_se^T, K_ee]], whose
standard block K_ss never changes: where the levels differ on few standard
rows, the direct path factors K_ss once and each level only a dense Schur
complement of the enriched DOFs; otherwise it factors each level's stacked
matrix.  `stack` is the one routine that stacks such blocks into one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
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


SOLVER_METHODS = ("direct_cholesky", "cg_jacobi")


@dataclass(frozen=True)
class SolverConfig:
    method: str = "direct_cholesky"
    rel_tolerance: float = 1e-10

    def __post_init__(self):
        if self.method not in SOLVER_METHODS:
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

    def solve(self, rhs):
        """The solution for rhs (n,), or, on the direct path, for each
        column of rhs (n, k)."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[:1] != (self.n,) or rhs.ndim > 2:
            raise ValueError("rhs dimension mismatch")
        if not np.any(rhs):
            return np.zeros_like(rhs)
        if self.config.method == "direct_cholesky":
            return self._lu.solve(rhs)
        return _cg(self.matrix, self.matrix.diagonal(), rhs, self.config.rel_tolerance)


def _cg(matrix, diagonal, rhs, tol):
    """Jacobi-preconditioned CG from x0 = 0; stops once ||r|| < tol ||b||,
    or after 4 n iterations."""
    from scipy.sparse.linalg import cg

    max_iter = 4 * len(rhs)
    x, info = cg(matrix, rhs, rtol=tol, atol=0.0, maxiter=max_iter, M=sp.diags(1.0 / diagonal))
    if info != 0:
        raise NoConvergence(
            f"CG did not reach {tol} in {max_iter} iterations",
            residual=float(np.linalg.norm(rhs - matrix @ x) / np.linalg.norm(rhs)),
        )
    return x


def schur_pays(n, m, n_rows, levels):
    """Whether factoring K_ss once and an m x m Schur complement per level
    (BlockSolver) costs less than a sparse LDL^T of each level's stacked
    (n + m) matrix.  The Schur path pays m + |R| K_ss solves to set up and
    O(m |R|^2) dense work per level, |R| = n_rows.  On phi0_tilde runs (1D
    N = 50..800, disk B = 52..208; a 2-vCPU x86-64 host, one BLAS thread) a
    stacked factorization cost 30 to 100 K_ss solves, and the dense update
    stayed below it while m |R|^2 <= 1000 n^1.5 (a 2D factorization grows
    like n^1.5).  One level is one factorization either way, and the
    stacked factor solves faster."""
    return levels > 1 and m + n_rows <= 30 * levels and m * n_rows**2 <= 1000 * n**1.5


class BlockSolver:
    """Solves K x = b for the time levels K = [[K_ss, K_se], [K_se^T, K_ee]]
    of an enriched march: K_ss is fixed, and K_se, on the CSR pattern of the
    first level's, differs from level to level only on the standard rows R
    (`rows`).  `levels` is the number of levels the march will factor.

    When schur_pays, the direct path factors K_ss once (SpdSolver) and
    takes the first level's coupling as C0, so that K_se = C0 + dC with dC
    zero off R.  With Z0 = K_ss^-1 C0 and W = K_ss^-1 restricted to the
    columns R, both computed once, and G = W[R], each level's Schur complement
        S = K_ee - C0^T Z0 - Z0[R]^T dC_R - dC_R^T Z0[R] - dC_R^T G dC_R
    is an m x m dense matrix, Cholesky-factored per level.  A solve is one
    K_ss solve y = K_ss^-1 b_s, one S solve for x_e, and
    x_s = y - Z0 x_e - W dC_R x_e.  Otherwise each level's stacked matrix is
    factored with SpdSolver.  `cg_jacobi` runs CG on the block operator.  A
    nonpositive pivot or a failed S Cholesky raises NotPositiveDefinite.
    `factor` returns the level's solve, bound once per factorization: the
    SuperLU solve of the stacked matrix, the Schur solve, or CG.
    """

    def __init__(self, kss, kse, rows, config: SolverConfig = SolverConfig(), levels: int = 1):
        self.config = config
        self.kss = sp.csr_matrix(kss)
        self.c0 = sp.csr_matrix(kse)
        self.n, self.m = self.c0.shape
        self.rows = np.asarray(rows, dtype=int)
        self.uses_schur = (
            config.method == "direct_cholesky" and self.m > 0 and schur_pays(self.n, self.m, len(self.rows), levels)
        )
        if self.uses_schur:
            self._ss = SpdSolver(self.kss, config)
            self._z0 = self._ss.solve(self.c0.toarray())
            self._s0 = np.asarray(self.c0.T @ self._z0)
            unit = np.zeros((self.n, len(self.rows)))
            unit[self.rows, np.arange(len(self.rows))] = 1.0
            self._w = self._ss.solve(unit)
            self._z0_rows, self._g = self._z0[self.rows], self._w[self.rows]
            self._c0_rows = self.c0[self.rows].toarray()
            # each entry of the rows R: its place (+ 1) in every level's kse.data and in the dense (|R|, m) block
            at = sp.csr_matrix((np.arange(1, self.c0.nnz + 1), self.c0.indices, self.c0.indptr), kse.shape)[self.rows]
            self._at, self._to = at.data - 1, np.ravel_multi_index(at.nonzero(), at.shape)

    def factor(self, kse, kee):
        """Take the level with coupling kse (n, m) and enriched block kee
        (m, m); returns the solve of this factorization, rhs (n + m,) ->
        solution, which skips the checks of `solve`."""
        self.kse = sp.csr_matrix(kse)
        # a CSC view: its mat-vec sums each entry as the CSR transpose's does
        self.kse_t = self.kse.T
        self.kee = np.asarray(kee, dtype=float)
        # no bound method of self is kept on self: that cycle would keep the factors alive after the march
        self._solve = None
        if self.config.method != "direct_cholesky":
            self._solve = _block_cg(self.kss, self.kse, self.kse_t, self.kee, self.config.rel_tolerance)
        elif not self.uses_schur:
            self._solve = SpdSolver(stack(self.kss, self.kse, self.kee), self.config)._lu.solve
        else:
            dc = np.zeros(self._c0_rows.shape)
            dc.flat[self._to] = self.kse.data[self._at]
            self._dc = dc - self._c0_rows
            dc, zr = self._dc, self._z0_rows
            s = self.kee - self._s0 - zr.T @ dc - dc.T @ zr - dc.T @ (self._g @ dc)
            try:
                self._schur = sla.cho_factor(0.5 * (s + s.T), lower=True)
            except sla.LinAlgError as exc:
                raise NotPositiveDefinite(f"enriched Schur complement: {exc}") from exc
        return self._solve or self._schur_solve

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.n + self.m,):
            raise ValueError("rhs dimension mismatch")
        return (self._solve or self._schur_solve)(rhs)

    def _schur_solve(self, rhs):
        n = self.n
        y = self._ss._lu.solve(rhs[:n])
        xe = sla.cho_solve(self._schur, rhs[n:] - self.kse_t @ y, check_finite=False)
        return np.concatenate([y - self._z0 @ xe - self._w @ (self._dc @ xe), xe])


def _block_cg(kss, kse, kse_t, kee, tol):
    """CG on [[kss, kse], [kse_t, kee]], its operator built once for one level's solves."""
    from scipy.sparse.linalg import LinearOperator

    n, size = kss.shape[0], kss.shape[0] + len(kee)

    def apply(x):
        xs, xe = x[:n], x[n:]
        return np.concatenate([kss @ xs + kse @ xe, kse_t @ xs + kee @ xe])

    op = LinearOperator((size, size), matvec=apply, dtype=float)
    diagonal = np.concatenate([kss.diagonal(), np.diag(kee)])
    return lambda rhs: _cg(op, diagonal, rhs, tol) if np.any(rhs) else np.zeros_like(rhs)


def stack(kss, kse, kee):
    """The symmetric block matrix [[kss, kse], [kse^T, kee]] as CSR, for
    kss (n, n) and kse (n, m) canonical CSR (as assembly builds them) and
    kee (m, m) dense, m possibly 0, placed directly: each standard row's kss
    entries, then its kse entries; each enriched row's kse^T entries, then
    its kee row.  Stored zeros (coupling entries whose profile values all
    underflowed) are dropped."""
    kss, kse = sp.csr_matrix(kss), sp.csr_matrix(kse)
    n, m = kse.shape
    se_rows = np.repeat(np.arange(n), np.diff(kse.indptr))
    t = np.argsort(kse.indices, kind="stable")  # kse^T: column by column, rows in order
    ee_rows, ee_cols = np.divmod(np.arange(m * m), m)
    rows = np.concatenate([np.repeat(np.arange(n), np.diff(kss.indptr)), se_rows, n + kse.indices[t], n + ee_rows])
    cols = np.concatenate([kss.indices, n + kse.indices, se_rows[t], n + ee_cols])
    vals = np.concatenate([kss.data, kse.data, kse.data[t], np.ravel(kee)])
    # four runs of increasing rows, merged in one stable pass
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n + m))])
    whole = sp.csr_matrix((vals[order], cols[order], indptr), shape=(n + m, n + m))
    whole.eliminate_zeros()
    return whole


def solve_spd(matrix, rhs, config: SolverConfig = SolverConfig()):
    """One-shot SPD solve; see SpdSolver for reusable factorizations."""
    return SpdSolver(matrix, config).solve(rhs)
