"""SPD solvers for the implicit-Euler and projection systems.

Every system is solved by a sparse LDL^T factorization, robust when the
enriched Gram block is ill conditioned at sqrt(eps) ~ h.  `SpdSolver`
factors one sparse matrix.  `BlockSolver` solves the time levels of an
enriched implicit-Euler march, [[K_ss, K_se], [K_se^T, K_ee]], whose
standard block K_ss never changes: where the levels differ on few standard
rows, it factors K_ss once and each level only a dense Schur complement of
the enriched DOFs; otherwise it factors each level's stacked matrix.
`stack` is the one routine that stacks such blocks into one matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp


class NotPositiveDefinite(Exception):
    """The LDL^T factorization hit a nonpositive or off-diagonal pivot."""


class SpdSolver:
    """Factorize once, solve many right-hand sides.

    It factors A = P L D L^T P^T with SuperLU in symmetric mode:
    one fill-reducing ordering for rows and columns and no row pivoting, so
    the pivots d (the diagonal of U) are those of D.  A is positive definite
    exactly when no row pivot was taken and every d is positive.  Exposes
    `condition_proxy` = sqrt(max d / min d), the ratio of extreme diagonal
    entries of the Cholesky factor: a cheap indicator of near-linear
    dependence between enrichment and hat functions.
    """

    def __init__(self, matrix):
        from scipy.sparse.linalg import splu

        matrix = sp.csr_matrix(matrix).tocsc()
        self.n = matrix.shape[0]
        try:
            self._lu = splu(
                matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
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
        """The solution for rhs (n,), or for each column of rhs (n, k)."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[:1] != (self.n,) or rhs.ndim > 2:
            raise ValueError("rhs dimension mismatch")
        if not np.any(rhs):
            return np.zeros_like(rhs)
        return self._lu.solve(rhs)


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

    When schur_pays, the Schur path factors K_ss once (SpdSolver) and
    takes the first level's coupling as C0, so that K_se = C0 + dC with dC
    zero off R.  With Z0 = K_ss^-1 C0 and W = K_ss^-1 restricted to the
    columns R, both computed once, and G = W[R], each level's Schur complement
        S = K_ee - C0^T Z0 - Z0[R]^T dC_R - dC_R^T Z0[R] - dC_R^T G dC_R
    is an m x m dense matrix, Cholesky-factored per level.  A solve is one
    K_ss solve y = K_ss^-1 b_s, one S solve for x_e, and
    x_s = y - Z0 x_e - W dC_R x_e.  Otherwise the stacked path factors each
    level's stacked matrix with SpdSolver.  A nonpositive pivot or a failed
    S Cholesky raises NotPositiveDefinite.  `factor` returns the level's
    solve, bound once per factorization: the Schur solve, or the SuperLU
    solve of the stacked matrix.
    """

    def __init__(self, kss, kse, rows, levels: int = 1):
        self.kss = sp.csr_matrix(kss)
        self.c0 = sp.csr_matrix(kse)
        self.n, self.m = self.c0.shape
        self.rows = np.asarray(rows, dtype=int)
        self.uses_schur = self.m > 0 and schur_pays(self.n, self.m, len(self.rows), levels)
        if self.uses_schur:
            self._ss = SpdSolver(self.kss)
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
        solution, bound to this level's blocks and factor, not to the solver."""
        kse, kee = sp.csr_matrix(kse), np.asarray(kee, dtype=float)
        if not self.uses_schur:
            return SpdSolver(stack(self.kss, kse, kee))._lu.solve
        dc, zr = self.coupling_change(kse), self._z0_rows
        s = kee - self._s0 - zr.T @ dc - dc.T @ zr - dc.T @ (self._g @ dc)
        try:
            schur = sla.cho_factor(0.5 * (s + s.T), lower=True)
        except sla.LinAlgError as exc:
            raise NotPositiveDefinite(f"enriched Schur complement: {exc}") from exc
        # kse.T is a CSC view: its mat-vec sums each entry as the CSR transpose's does
        n, kss_solve, kse_t, z0, w = self.n, self._ss._lu.solve, kse.T, self._z0, self._w

        def solve(rhs):
            y = kss_solve(rhs[:n])
            xe = sla.cho_solve(schur, rhs[n:] - kse_t @ y, check_finite=False)
            return np.concatenate([y - z0 @ xe - w @ (dc @ xe), xe])

        return solve

    def coupling_change(self, kse):
        """dC_R = (kse - C0)[R], dense (|R|, m), read from the data of kse, a
        CSR matrix on the first level's pattern, at C0's places of the rows R."""
        dc = np.zeros(self._c0_rows.shape)
        dc.flat[self._to] = kse.data[self._at]
        return dc - self._c0_rows


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


def solve_spd(matrix, rhs):
    """One-shot SPD solve; see SpdSolver for reusable factorizations."""
    return SpdSolver(matrix).solve(rhs)
