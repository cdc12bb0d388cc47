"""SPD solvers: correctness against closed forms and dense solves, the
Schur and stacked block paths, and their failure modes."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, seed
from hypothesis import strategies as st

from blfem.linsolve import (
    BlockSolver,
    NotPositiveDefinite,
    SpdSolver,
    schur_pays,
    solve_spd,
    stack,
)
from helpers import bmat_stack


def _poisson_fd(n):
    """(1/h) tridiag(-1, 2, -1): P1 stiffness of -u'' on a uniform mesh."""
    h = 1.0 / n
    main = np.full(n - 1, 2.0 / h)
    off = np.full(n - 2, -1.0 / h)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


class TestDirectCholesky:
    def test_identity(self):
        b = np.arange(5.0)
        assert np.allclose(solve_spd(sp.eye(5), b), b)

    def test_discrete_poisson_closed_form(self):
        # P1 Galerkin for -u'' = 1 is nodally exact: u(x) = x(1-x)/2
        n = 16
        a = _poisson_fd(n)
        h = 1.0 / n
        rhs = np.full(n - 1, h)
        x = np.linspace(h, 1.0 - h, n - 1)
        got = solve_spd(a, rhs)
        assert np.allclose(got, 0.5 * x * (1.0 - x), atol=1e-13)

    def test_not_positive_definite(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(NotPositiveDefinite):
            SpdSolver(a)

    def test_zero_diagonal_forces_row_pivot(self):
        with pytest.raises(NotPositiveDefinite, match="row exchange"):
            SpdSolver(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_indefinite_with_positive_diagonal(self):
        # shifted between the two smallest eigenvalues: exactly one negative
        # eigenvalue, while every diagonal entry stays near 2n, so only the
        # sign of the LDL^T pivots can tell
        a = _poisson_fd(64)
        lam = np.linalg.eigvalsh(a.toarray())
        shift = 0.5 * (lam[0] + lam[1])
        b = (a - shift * sp.eye(63)).tocsr()
        assert np.all(b.diagonal() > 0.0)
        with pytest.raises(NotPositiveDefinite, match="nonpositive pivot"):
            SpdSolver(b)

    def test_singular_matrix(self):
        with pytest.raises(NotPositiveDefinite):
            SpdSolver(np.ones((2, 2)))

    def test_condition_proxy_exposed(self):
        solver = SpdSolver(np.diag([1.0, 1e8]))
        assert solver.condition_proxy == pytest.approx(1e4)  # sqrt of ratio

    def test_zero_rhs_shortcut(self):
        solver = SpdSolver(_poisson_fd(8))
        assert np.all(solver.solve(np.zeros(7)) == 0.0)

    def test_rhs_dimension_checked(self):
        solver = SpdSolver(np.eye(3))
        with pytest.raises(ValueError):
            solver.solve(np.ones(4))

    @given(st.integers(min_value=0, max_value=10_000))
    @seed(20240817)
    def test_agrees_with_dense_cholesky_on_random_spd(self, key):
        rng = np.random.default_rng(key)
        n = int(rng.integers(5, 60))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = q @ np.diag(rng.uniform(0.5, 50.0, n)) @ q.T
        a = 0.5 * (a + a.T)
        b = rng.standard_normal(n)
        want = sla.cho_solve(sla.cho_factor(a), b)
        assert np.linalg.norm(solve_spd(a, b) - want) <= 1e-10 * np.linalg.norm(want)

    def test_residual_at_roundoff(self):
        a = _poisson_fd(64)
        b = np.sin(np.linspace(0.0, 3.0, 63))
        x = solve_spd(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_columns_solved_as_one_block(self):
        a = _poisson_fd(32)
        rhs = np.random.default_rng(5).standard_normal((31, 4))
        solver = SpdSolver(a)
        got = solver.solve(rhs)
        assert got.shape == rhs.shape
        for k in range(4):
            assert np.allclose(got[:, k], solver.solve(rhs[:, k]), rtol=1e-14, atol=0.0)


class TestStack:
    def test_blocks_without_stored_zeros(self):
        kss = _poisson_fd(5)
        kse = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 0.0], [0.0, 0.0]]))
        kse.data[0] = 0.0  # an entry stored as zero
        kee = np.array([[3.0, 0.0], [0.0, 4.0]])
        whole = stack(kss, kse, kee)
        assert whole.format == "csr"
        assert np.all(whole.data != 0.0)
        dense = np.block([[kss.toarray(), kse.toarray()], [kse.toarray().T, kee]])
        assert np.array_equal(whole.toarray(), dense)

    def test_no_enriched_block_gives_the_standard_one(self):
        kss = sp.csr_matrix(_poisson_fd(5))
        whole = stack(kss, sp.csr_matrix((4, 0)), np.zeros((0, 0)))
        assert (whole != kss).nnz == 0


def _same_csr(a, b):
    """The same shape and, bit for bit, the same data, indices and indptr."""
    return a.shape == b.shape and all(getattr(a, k).tobytes() == getattr(b, k).tobytes() for k in ("data", "indices", "indptr"))


def _level_blocks(dim, kind, t, dt=0.01):
    """(kss, kse, kee) of the mass, the stiffness and K = M + dt A at the
    level at t of a real system; kind None: the plain space (m = 0)."""
    from blfem.assembly import assemble_enriched, assemble_standard, build_space
    from blfem.corrector import EnrichmentSpec
    from blfem.mesh import build_disk_mesh, build_interval_mesh

    eps = 1e-5
    mesh = build_interval_mesh(50) if dim == 1 else build_disk_mesh(26)
    if kind is None:
        system = assemble_standard(build_space(mesh), eps)
    else:
        sigma = (mesh.h if dim == 1 else min(3.0 * mesh.outer_ring_width, 0.5)) if kind == "phi_m1_lin" else None
        space = build_space(mesh, EnrichmentSpec(kind=kind, epsilon=eps, sigma=sigma))
        system = assemble_enriched(space, eps, t_max=1.0)
    level = system.parts["rebuild"](t)
    return [
        (system.mss, level.msl, level.mee),
        (system.ass, level.asl, level.aee),
        (system.mss + dt * system.ass, level.coupling(dt), level.mee + dt * level.aee),
    ]


class TestStackAgainstBmat:
    """linsolve.stack places each block's entries directly; the bmat
    formulation it replaced is the oracle."""

    @pytest.mark.parametrize("kind", [None, "phi_m1_lin", "phi0_tilde"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_bit_identical_on_real_levels(self, dim, kind):
        for t in (0.0, 0.5):
            for kss, kse, kee in _level_blocks(dim, kind, t):
                assert kse.shape[1] == (0 if kind is None else 2 if dim == 1 else 26)
                assert _same_csr(stack(kss, kse, kee), bmat_stack(kss, kse, kee))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_underflowed_coupling_entry_not_stored(self, dim):
        kss, kse, kee = _level_blocks(dim, "phi0_tilde", 0.5)[2]
        before = stack(kss, kse, kee).nnz
        kse = kse.copy()
        # two coupling entries whose profile values all underflowed
        kse.data[np.flatnonzero(kse.data)[[0, -1]]] = 0.0
        whole = stack(kss, kse, kee)
        assert _same_csr(whole, bmat_stack(kss, kse, kee))
        assert np.all(whole.data != 0.0)
        assert whole.nnz == before - 4  # each entry and its transpose

    def test_zero_enriched_entries_not_stored(self):
        kss, kse = _poisson_fd(5), sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 0.5], [0.0, 0.0]]))
        kee = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert _same_csr(stack(kss, kse, kee), bmat_stack(kss, kse, kee))
        assert _same_csr(stack(kss, sp.csr_matrix((4, 0)), np.zeros((0, 0))), bmat_stack(kss, sp.csr_matrix((4, 0)), np.zeros((0, 0))))


class TestEnrichedSystems:
    def test_tiny_epsilon_system_residual(self):
        # the ill-conditioned Gram coupling at eps = 1e-8 must still solve to
        # a relative residual of 1e-10 with the direct factorization
        from blfem.assembly import assemble_enriched, build_space
        from blfem.corrector import EnrichmentSpec
        from blfem.mesh import build_interval_mesh

        eps = 1e-8
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=0.02)
        space = build_space(build_interval_mesh(50), spec)
        mass, stiff = _stacked(assemble_enriched(space, eps), 0.0)
        a = mass + 0.01 * stiff
        rng = np.random.default_rng(5)
        b = rng.standard_normal(a.shape[0])
        x = solve_spd(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def _dense_cholesky_solve(a, b):
    """Reference: dense Cholesky of the full matrix."""
    return sla.cho_solve(sla.cho_factor(a.toarray(), lower=True), b)


def _stacked(system, t):
    """The stacked (mass, stiffness) of the system's level at t."""
    level = system.parts["rebuild"](t)
    return stack(system.mss, level.msl, level.mee), stack(system.ass, level.asl, level.aee)


def _scenario_system(name):
    """M, A and dt of a real implicit-Euler system, by scenario name."""
    from blfem.assembly import assemble_enriched, assemble_standard, build_space
    from blfem.corrector import EnrichmentSpec
    from blfem.mesh import build_disk_mesh, build_interval_mesh

    eps = 1e-8
    if name == "1d-phi_m1_lin":
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=0.02)
        return (*_stacked(assemble_enriched(build_space(build_interval_mesh(50), spec), eps), 0.0), 0.01)
    mesh = build_disk_mesh(16)
    kind = name.split("-", 1)[1]
    if kind == "sfem":
        return (*_stacked(assemble_standard(build_space(mesh), eps), 0.0), 0.05)
    sigma = min(3.0 * mesh.outer_ring_width, 0.5) if kind == "phi_m1_lin" else None
    spec = EnrichmentSpec(kind=kind, epsilon=eps, sigma=sigma)
    t = 0.5 if spec.time_dependent else 1.0
    return (*_stacked(assemble_enriched(build_space(mesh, spec), eps), t), 0.05)


class TestSparseFactorAgainstDense:
    @pytest.mark.parametrize("name", ["2d-sfem", "2d-phi_m1_lin", "2d-phi0_tilde", "2d-phi0", "1d-phi_m1_lin"])
    def test_agrees_with_dense_cholesky(self, name):
        mass, stiff, dt = _scenario_system(name)
        rng = np.random.default_rng(11)
        for a in (mass, mass + dt * stiff):
            b = rng.standard_normal(a.shape[0])
            want = _dense_cholesky_solve(a, b)
            got = SpdSolver(a).solve(b)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _block_levels(rng, n=40, m=6, rows=(3, 7, 8, 20), levels=3):
    """A fixed SPD K_ss and SPD block matrices whose couplings differ from
    level to level only on `rows`."""
    kss = _poisson_fd(n + 1) + sp.eye(n)
    base = sp.random(n, m, density=0.2, random_state=rng, format="csr") * 0.1
    out = []
    for _ in range(levels):
        kse = base.toarray()
        kse[list(rows)] = 0.1 * rng.standard_normal((len(rows), m))
        kse = sp.csr_matrix(kse)
        # K_ee = K_se^T K_ss^-1 K_se + an SPD shift keeps the block matrix SPD
        schur = kse.T @ np.linalg.solve(kss.toarray(), kse.toarray())
        q = rng.standard_normal((m, m))
        out.append((kse, schur + q @ q.T + np.eye(m)))
    return kss, out


class TestBlockSolver:
    @pytest.mark.parametrize("n_levels", [3, 1])
    def test_levels_agree_with_dense_solve(self, n_levels):
        # three levels: the Schur path; one: each level's stacked matrix
        rng = np.random.default_rng(3)
        kss, levels = _block_levels(rng)
        solver = BlockSolver(kss, levels[0][0], [3, 7, 8, 20], n_levels)
        assert solver.uses_schur == (n_levels == 3)
        for kse, kee in levels:
            solve = solver.factor(kse, kee)
            full = np.block([[kss.toarray(), kse.toarray()], [kse.toarray().T, kee]])
            b = rng.standard_normal(len(full))
            want = np.linalg.solve(full, b)
            got = solve(b)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_schur_and_stacked_paths_agree(self):
        # the same levels through both factorizations of the block matrix
        rng = np.random.default_rng(11)
        kss, levels = _block_levels(rng)
        schur = BlockSolver(kss, levels[0][0], [3, 7, 8, 20], 3)
        stacked = BlockSolver(kss, levels[0][0], [3, 7, 8, 20], 1)
        assert schur.uses_schur and not stacked.uses_schur
        for kse, kee in levels:
            b = rng.standard_normal(46)
            want = stacked.factor(kse, kee)(b)
            got = schur.factor(kse, kee)(b)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    @pytest.mark.parametrize("n_levels", [3, 1])
    def test_solve_stays_bound_to_its_level(self, n_levels):
        # factoring the next level leaves an earlier level's solve as it was:
        # bit for bit a fresh solver's solve of that level
        rng = np.random.default_rng(5)
        kss, levels = _block_levels(rng)
        b = rng.standard_normal(46)
        solver = BlockSolver(kss, levels[0][0], [3, 7, 8, 20], n_levels)
        first = solver.factor(*levels[0])
        second = solver.factor(*levels[1])
        fresh = BlockSolver(kss, levels[0][0], [3, 7, 8, 20], n_levels).factor(*levels[0])
        assert solver.uses_schur == (n_levels == 3)
        assert first(b).tobytes() == fresh(b).tobytes()
        assert not np.allclose(first(b), second(b))

    @pytest.mark.parametrize("n_levels", [3, 1])
    def test_released_without_the_garbage_collector(self, n_levels):
        # the factors go as soon as the march drops the solver and its bound
        # solve: no reference cycle keeps them alive into the error report
        import gc
        import weakref

        kss, levels = _block_levels(np.random.default_rng(8))
        solver = BlockSolver(kss, levels[0][0], [3, 7, 8, 20], n_levels)
        solve = solver.factor(*levels[0])
        assert np.all(np.isfinite(solve(np.ones(46))))
        ref = weakref.ref(solver)
        gc.disable()
        try:
            del solver, solve
            assert ref() is None
        finally:
            gc.enable()

    def test_one_standard_factor_per_run(self, monkeypatch):
        import blfem.linsolve as linsolve

        factors = []
        real = linsolve.SpdSolver

        class Counting(real):
            def __init__(self, matrix, *args, **kwargs):
                factors.append(matrix.shape)
                super().__init__(matrix, *args, **kwargs)

        monkeypatch.setattr(linsolve, "SpdSolver", Counting)
        kss, levels = _block_levels(np.random.default_rng(4), levels=4)
        solver = BlockSolver(kss, levels[0][0], [3, 7, 8, 20], levels=4)
        for kse, kee in levels:
            solver.factor(kse, kee)(np.ones(46))
        assert factors == [(40, 40)]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_moving_rows_gathered_from_the_shared_pattern(self, dim):
        # a real phi0_tilde march's levels: the dense moving rows dC_R read
        # from kse.data at the places of C0's pattern are bit for bit those
        # of sparse row indexing
        from blfem.assembly import assemble_enriched, build_space
        from blfem.corrector import EnrichmentSpec
        from blfem.mesh import build_disk_mesh, build_interval_mesh

        eps, dt = 1e-5, 0.05
        mesh = build_interval_mesh(50) if dim == 1 else build_disk_mesh(26)
        space = build_space(mesh, EnrichmentSpec(kind="phi0_tilde", epsilon=eps))
        system = assemble_enriched(space, eps, t_max=1.0)
        rebuild, rows = system.parts["rebuild"], system.moving_rows
        kss, c0 = system.mss + dt * system.ass, rebuild(dt).coupling(dt)
        solver = BlockSolver(kss, c0, rows, levels=20)
        assert solver.uses_schur and 0 < len(rows) < space.n_standard
        for t in (dt, 0.3, 1.0):
            level = rebuild(t)
            kse = level.coupling(dt)
            solver.factor(kse, level.mee + dt * level.aee)
            want = kse[rows].toarray() - c0[rows].toarray()
            assert solver.coupling_change(kse).tobytes() == want.tobytes()

    def test_no_enriched_dofs(self):
        kss = _poisson_fd(16)
        solver = BlockSolver(kss, sp.csr_matrix((15, 0)), [])
        solve = solver.factor(sp.csr_matrix((15, 0)), np.zeros((0, 0)))
        b = np.sin(np.arange(15.0))
        assert np.array_equal(solve(b), SpdSolver(kss).solve(b))

    def test_indefinite_schur_complement(self):
        kss, [(kse, kee)] = _block_levels(np.random.default_rng(5), levels=1)
        solver = BlockSolver(kss, kse, [3, 7, 8, 20], levels=2)
        with pytest.raises(NotPositiveDefinite, match="enriched Schur complement"):
            solver.factor(kse, kee - 100.0 * np.eye(len(kee)))

    def test_indefinite_stacked_level(self):
        kss, [(kse, kee)] = _block_levels(np.random.default_rng(5), levels=1)
        solver = BlockSolver(kss, kse, [3, 7, 8, 20])
        with pytest.raises(NotPositiveDefinite):
            solver.factor(kse, kee - 100.0 * np.eye(len(kee)))

    def test_indefinite_standard_block(self):
        kss, [(kse, _)] = _block_levels(np.random.default_rng(6), levels=1)
        with pytest.raises(NotPositiveDefinite):
            BlockSolver(-kss, kse, [], levels=2)

    def test_schur_pays_only_for_few_moving_rows(self):
        # n, m, |R| of phi0_tilde runs with 20 levels: disk B = 104 and 208 at
        # eps = 1e-8 (the heat layer inside the outer ring) take the Schur
        # path; B = 208 at eps = 1e-6 and 1e-4 and B = 104 at 3e-5, where a
        # stacked factorization per level measured faster, do not
        assert schur_pays(1737, 104, 101, 20) and schur_pays(7061, 208, 205, 20)
        assert not schur_pays(7061, 208, 802, 20) and not schur_pays(7061, 208, 5386, 20)
        assert not schur_pays(1737, 104, 946, 20)
        # the set-up solves pay off over enough levels only, never over one
        assert schur_pays(7061, 208, 205, 14) and not schur_pays(7061, 208, 205, 13)
        assert not schur_pays(799, 2, 0, 1)
