"""Implicit Euler time stepping: grid validation, scalar oracle, stability,
temporal order, determinism, and tagged solver failures."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import blfem.assembly
import blfem.corrector
from blfem.analysis import ExactSolution1D, ExactSolution2D, ZeroSolution1D, ZeroSolution2D
from blfem.assembly import _layer_rule_1d, assemble_enriched, assemble_standard, build_space, element_rules_2d, project_initial
from blfem.corrector import EnrichmentSpec, ProblemData, unit_factor
from blfem.linsolve import (
    BlockSolver,
    NotPositiveDefinite,
    SpdSolver,
    schur_pays,
    stack,
)
from blfem.mesh import build_disk_mesh, build_interval_mesh
from blfem.timestep import SolutionField, TimeGrid, advance
from helpers import bmat_stack, separate_load, wavy_source


def _zero_data(epsilon=1e-2):
    return ProblemData(
        dim=1,
        source=lambda x: ((unit_factor, np.zeros_like(np.asarray(x, dtype=float))),),
        u0_initial=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        epsilon=epsilon,
    )


class TestTimeGrid:
    def test_uniform_grid(self):
        grid = TimeGrid(T=1.0, n_steps=10)
        assert grid.dt == pytest.approx(0.1)
        assert len(grid.times) == 11
        assert grid.times[0] == 0.0
        assert grid.times[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(T=0.0, n_steps=10)
        with pytest.raises(ValueError):
            TimeGrid(T=1.0, n_steps=0)

    def test_long_horizons(self):
        # dt = T / n_steps by construction, so every step count gives a grid;
        # n_steps * dt may miss T by rounding (by 1.8e-12 at T = 1e4, n = 139)
        for T in (1e4, 1e5):
            for n in range(1, 200):
                grid = TimeGrid(T=T, n_steps=n)
                assert grid.times[-1] == T
                assert grid.n_steps * grid.dt == pytest.approx(T, rel=1e-15, abs=0.0)


class TestAdvance:
    def test_zero_data_stays_zero(self):
        space = build_space(build_interval_mesh(10))
        system = assemble_standard(space, 1e-2)
        sol = advance(space, system, _zero_data(), TimeGrid(T=1.0, n_steps=5))
        assert isinstance(sol, SolutionField)
        assert np.all(sol.history == 0.0)

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    def test_single_dof_scalar_recurrence(self):
        # n = 2 elements leave one interior hat: M = 1/3, A = 4 eps, b = 1/2
        # for f = 1, so implicit Euler is the scalar recurrence
        # u_{k+1} = (M u_k + dt b) / (M + dt A)
        eps, dt, n_steps = 0.37, 0.05, 20
        space = build_space(build_interval_mesh(2))
        system = assemble_standard(space, eps)
        data = ProblemData(
            dim=1,
            source=lambda x: ((unit_factor, np.ones_like(np.asarray(x, dtype=float))),),
            u0_initial=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            epsilon=eps,
        )
        sol = advance(space, system, data, TimeGrid(T=1.0, n_steps=n_steps))
        m, a, b = 1.0 / 3.0, 4.0 * eps, 0.5
        u = 0.0
        for k in range(1, n_steps + 1):
            u = (m * u + dt * b) / (m + dt * a)
            assert sol.history[k, 0] == pytest.approx(u, abs=1e-13)

    def test_unforced_energy_decay_any_dt(self):
        # with f = 0 implicit Euler is unconditionally stable: the discrete
        # L2 norm u^T M u never increases, even for very large dt
        eps = 1e-1
        space = build_space(build_interval_mesh(20))
        system = assemble_standard(space, eps)
        nodal = np.sin(np.pi * space.mesh.nodes[space.interior_nodes])
        data = ProblemData(
            dim=1,
            source=lambda x: ((unit_factor, np.zeros_like(np.asarray(x, dtype=float))),),
            u0_initial=lambda x: np.interp(x, space.mesh.nodes,
                                           np.sin(np.pi * space.mesh.nodes)),
            epsilon=eps,
        )
        for n_steps in (2, 100):
            sol = advance(space, system, data, TimeGrid(T=10.0, n_steps=n_steps))
            energies = [float(u @ (system.mss @ u)) for u in sol.history]
            assert np.all(np.diff(energies) <= 1e-14)

    def test_first_order_in_time(self):
        # self-convergence: halving dt must halve the change, ratio 2 +- 0.3.
        # The source must curve in time (u_tt != 0), otherwise the leading
        # implicit-Euler error term vanishes and the ratio inflates.
        eps = 1.0
        space = build_space(build_interval_mesh(16))
        system = assemble_standard(space, eps)
        data = ProblemData(
            dim=1,
            source=lambda x: ((lambda t: np.exp(2.0 * t), np.asarray(x) * (1.0 - np.asarray(x))),),
            u0_initial=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            epsilon=eps,
        )
        finals = []
        for n_steps in (10, 20, 40):
            sol = advance(space, system, data, TimeGrid(T=1.0, n_steps=n_steps))
            finals.append(sol.final)
        d1 = np.linalg.norm(finals[0] - finals[1])
        d2 = np.linalg.norm(finals[1] - finals[2])
        assert 1.7 < d1 / d2 < 2.3

    def test_bitwise_determinism(self):
        eps = 1e-5
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=0.02)
        space = build_space(build_interval_mesh(30), spec)
        system = assemble_enriched(space, eps)
        exact = ExactSolution1D(eps)
        runs = []
        for _ in range(2):
            sol = advance(space, system, exact.problem(), TimeGrid(T=1.0, n_steps=10))
            runs.append(sol.history.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_solver_failure_tagged_with_step(self):
        # a negated stiffness: K = M - dt A is indefinite once dt A outweighs
        # the mass, so the first factorization meets a nonpositive pivot
        space = build_space(build_interval_mesh(20))
        system = assemble_standard(space, 1e-1)
        system = dataclasses.replace(system, ass=-system.ass)
        exact = ExactSolution1D(1e-1)
        with pytest.raises(NotPositiveDefinite, match="time step 1: nonpositive pivot"):
            advance(space, system, exact.problem(), TimeGrid(T=1.0, n_steps=4))


class TestTimeDependentEnrichment:
    def test_marches_and_stays_finite(self):
        eps = 1e-4
        spec = EnrichmentSpec(kind="phi0_tilde", epsilon=eps)
        space = build_space(build_interval_mesh(20), spec)
        system = assemble_enriched(space, eps)
        exact = ExactSolution1D(eps)
        sol = advance(space, system, exact.problem(), TimeGrid(T=0.5, n_steps=5))
        assert np.all(np.isfinite(sol.history))
        assert np.linalg.norm(sol.final) > 0.0

    def test_initial_layer_coefficients_zero(self):
        eps = 1e-4
        spec = EnrichmentSpec(kind="phi0", epsilon=eps)
        space = build_space(build_interval_mesh(20), spec)
        system = assemble_enriched(space, eps)
        exact = ExactSolution1D(eps)
        sol = advance(space, system, exact.problem(), TimeGrid(T=0.2, n_steps=2))
        assert np.all(sol.history[0, space.n_standard :] == 0.0)

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["phi0_tilde", "phi0"])
    def test_one_profile_evaluation_per_time_level(self, kind, dim, monkeypatch):
        eps, n_steps = 1e-4, 4
        spec = EnrichmentSpec(kind=kind, epsilon=eps)
        mesh = build_interval_mesh(20) if dim == 1 else build_disk_mesh(16)
        space = build_space(mesh, spec)
        system = assemble_enriched(space, eps)
        data = ExactSolution1D(eps).problem() if dim == 1 else ExactSolution2D(eps).problem()
        # the value and the slope come from one call; the slope accessor is
        # not called, and assembly does not import it
        assert not hasattr(blfem.assembly, "enrichment_profile_dxi")
        calls = {"enrichment_profile": 0, "enrichment_profile_dxi": 0}
        for module, name in ((blfem.assembly, "enrichment_profile"), (blfem.corrector, "enrichment_profile_dxi")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        advance(space, system, data, TimeGrid(T=1.0, n_steps=n_steps))
        assert 0 < calls["enrichment_profile"] <= n_steps + 2
        assert calls["enrichment_profile_dxi"] == 0


    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["phi0_tilde", "phi0"])
    def test_cutoff_evaluated_once_per_run(self, kind, dim, monkeypatch):
        # once at each support point, fixed (part by part) or moving,
        # whatever the number of levels (at eps = 1e-5 both sets are nonempty)
        eps, n_steps = 1e-5, 8
        mesh = build_interval_mesh(20) if dim == 1 else build_disk_mesh(16)
        space = build_space(mesh, EnrichmentSpec(kind=kind, epsilon=eps))
        data = ExactSolution1D(eps).problem() if dim == 1 else ExactSolution2D(eps).problem()
        layout = None if dim == 1 else element_rules_2d(mesh, eps)
        support = blfem.assembly._support_1d(space) if dim == 1 else blfem.assembly._support_2d(space, layout)
        points = {"cutoff_delta": 0, "cutoff_delta_dxi": 0}
        for module in (blfem.assembly, blfem.corrector):
            for name in points:
                def counted(*args, _fn=getattr(module, name), _name=name):
                    points[_name] += np.size(args[0])
                    return _fn(*args)

                monkeypatch.setattr(module, name, counted)
        system = assemble_enriched(space, eps, t_max=1.0, layout=layout)
        advance(space, system, data, TimeGrid(T=1.0, n_steps=n_steps))
        assert points == {"cutoff_delta": support.size, "cutoff_delta_dxi": support.size}


class TestBoundSource:
    @pytest.mark.parametrize("kind", ["phi0_tilde", "phi_m1"])
    def test_spatial_source_part_formed_once_per_march(self, kind, monkeypatch):
        # the layers of exact1d are evaluated once at the standard load
        # points and once at the enriched ones, whatever the number of steps
        eps = 1e-5
        spec = EnrichmentSpec(kind=kind, epsilon=eps)
        space = build_space(build_interval_mesh(20), spec)
        system = assemble_enriched(space, eps, t_max=1.0)
        data = ExactSolution1D(eps).problem()
        calls = []
        real = ExactSolution1D._layers

        def counted(self, x):
            calls.append(np.size(x))
            return real(self, x)

        monkeypatch.setattr(ExactSolution1D, "_layers", counted)
        sizes = []
        for n_steps in (10, 100):
            calls.clear()
            advance(space, system, data, TimeGrid(T=1.0, n_steps=n_steps))
            sizes.append(list(calls))
        enriched = 2 * len(_layer_rule_1d(space).points)  # p for phi(x), 1 - p for phi(1 - x)
        assert sizes[0] == sizes[1] == [len(system.load_coords[0]), enriched]

    @pytest.mark.parametrize("kind", [None, "phi_m1_lin", "phi0_tilde"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_step_load_sums_vectors_formed_once(self, dim, kind, monkeypatch):
        # a step's load evaluates no spatial term, and it makes no sparse
        # product on a fixed level and one (le_moving) where points move
        eps = 1e-5
        mesh = build_interval_mesh(20) if dim == 1 else build_disk_mesh(16)
        spec = None if kind is None else EnrichmentSpec(kind=kind, epsilon=eps, sigma=0.2 if kind == "phi_m1_lin" else None)
        space = build_space(mesh, spec)
        system = assemble_standard(space, eps) if spec is None else assemble_enriched(space, eps, t_max=1.0)
        assert (len(system.moving_rows) > 0) == (kind == "phi0_tilde")
        spatial = []

        def source(*coords):
            spatial.append(coords[0].size)
            return ExactSolution1D(eps).source(*coords) if dim == 1 else wavy_source(*coords)

        load = system.parts["make_load"](source)
        assert len(spatial) == (1 if spec is None else 2)
        products, matmul = [], sp.csr_matrix.__matmul__

        def counted(op, other):
            products.append(op.shape)
            return matmul(op, other)

        monkeypatch.setattr(sp.csr_matrix, "__matmul__", counted)
        for t in (0.25, 0.5, 1.0):
            phi = system.parts["rebuild"](t).phi
            products.clear()
            load(t, phi)
            assert [rows for rows, _ in products] == [space.n_enriched] * (kind == "phi0_tilde")
        assert len(spatial) == (1 if spec is None else 2)


class _PreChangeBlockSolver(BlockSolver):
    """BlockSolver as the march used it before it stepped on fixed
    operators: each level's coupling transposed to CSR, its moving rows
    differenced as sparse matrices, its stacked matrix built by bmat, and
    every solve through the checked SpdSolver.solve."""

    def factor(self, kse, kee):
        self.kse = sp.csr_matrix(kse)
        self.kse_t = self.kse.T.tocsr()
        self.kee = np.asarray(kee, dtype=float)
        if not self.uses_schur:
            self._whole = SpdSolver(bmat_stack(self.kss, self.kse, self.kee))
            return
        self._dc = (self.kse[self.rows] - self.c0[self.rows]).toarray()
        dc, zr = self._dc, self._z0_rows
        s = self.kee - self._s0 - zr.T @ dc - dc.T @ zr - dc.T @ (self._g @ dc)
        self._schur = sla.cho_factor(0.5 * (s + s.T), lower=True)

    def solve(self, rhs):
        n = self.n
        if not self.uses_schur:
            return self._whole.solve(rhs)
        y = self._ss.solve(rhs[:n])
        xe = sla.cho_solve(self._schur, rhs[n:] - self.kse_t @ y, check_finite=False)
        return np.concatenate([y - self._z0 @ xe - self._w @ (self._dc @ xe), xe])


def _pre_change_march(space, system, data, grid, t_max):
    """The march loop as it was before it stepped on fixed operators: the
    load bound per point set and concatenated, the coupling K_se by a sparse
    add, the cross-level product block by block for every space, and each
    level's solve looked up and checked at every step."""
    mss, rebuild, dt = system.mss, system.parts["rebuild"], grid.dt
    make_load = separate_load(space, system, t_max)
    load = make_load(data.source)

    def u0_at(*coords):
        return ((unit_factor, data.u0_initial(*coords)),)

    level = rebuild(0.0)
    if space.enrichment is not None and space.enrichment.time_dependent:
        u = np.zeros(space.total_dofs)
        u[: space.n_standard] = SpdSolver(mss).solve(system.load_op @ data.u0_initial(*system.load_coords))
    else:
        u = SpdSolver(bmat_stack(mss, level.msl, level.mee)).solve(make_load(u0_at)(0.0, level.phi))
    history = [u]
    old, solver, n = level, None, space.n_standard
    for t_new in grid.times[1:]:
        new = rebuild(t_new, old)
        if solver is None or new is not old:
            kse = new.msl + dt * new.asl
            if solver is None:
                rows = system.moving_rows
                levels = grid.n_steps if len(rows) else 1
                solver = _PreChangeBlockSolver(mss + dt * system.ass, kse, rows, levels)
            solver.factor(kse, new.mee + dt * new.aee)
        us, ue = u[:n], u[n:]
        cross = np.concatenate([mss @ us + old.msl @ ue, new.msl.T.tocsr() @ us + new.cee @ ue])
        u = solver.solve(cross + dt * load(t_new, new.phi))
        history.append(u)
        old = new
    return np.array(history)


class TestMarchBitIdenticalToPreChangeLoop:
    """The march on fixed operators (one load operator, a directly stacked
    block matrix, the solve bound per factorization) against the loop it
    replaced, bit for bit over the whole history."""

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize(
        "dim, kind, eps, n_steps, path",
        [
            (1, None, 1e-5, 6, "plain"),
            (2, None, 1e-5, 5, "plain"),
            (1, "phi_m1_lin", 1e-5, 6, "stacked"),
            (2, "phi_m1_lin", 1e-8, 5, "stacked"),
            (2, "phi_m1", 1e-5, 5, "stacked"),
            (1, "phi0_tilde", 1e-5, 6, "schur"),
            (2, "phi0_tilde", 1e-5, 5, "schur"),
            (2, "phi0", 1e-8, 5, "schur"),
            (2, "phi0_tilde", 1e-3, 3, "stacked"),
            (1, "phi_m1", 1e-5, 6, "stacked"),
            (1, "phi0", 1e-8, 6, "schur"),
            (1, "phi0_tilde", 1e-3, 1, "stacked"),
        ],
    )
    def test_history_bit_identical(self, dim, kind, eps, n_steps, path):
        T = 1.0
        grid = TimeGrid(T=T, n_steps=n_steps)
        mesh = build_interval_mesh(50) if dim == 1 else build_disk_mesh(26)
        if kind is None:
            space = build_space(mesh)
            system = assemble_standard(space, eps)
        else:
            sigma = (mesh.h if dim == 1 else min(3.0 * mesh.outer_ring_width, 0.5)) if kind == "phi_m1_lin" else None
            space = build_space(mesh, EnrichmentSpec(kind=kind, epsilon=eps, sigma=sigma))
            system = assemble_enriched(space, eps, t_max=T)
        rows = system.moving_rows
        levels = n_steps if len(rows) else 1
        pays = space.n_enriched > 0 and schur_pays(space.n_standard, space.n_enriched, len(rows), levels)
        assert pays == (path == "schur")
        assert (len(rows) > 0) == (kind in ("phi0", "phi0_tilde"))
        data = (ExactSolution1D(eps) if dim == 1 else ExactSolution2D(eps)).problem()
        got = advance(space, system, data, grid).history
        want = _pre_change_march(space, system, data, grid, T)
        assert np.any(want[-1] != 0.0)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", [None, "phi_m1_lin", "phi0_tilde"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_problems_march_to_exact_zeros(self, dim, kind):
        # the bound direct solves have no zero-right-hand-side shortcut
        eps, grid = 1e-3, TimeGrid(T=0.5, n_steps=5)
        mesh = build_interval_mesh(20) if dim == 1 else build_disk_mesh(16)
        spec = None if kind is None else EnrichmentSpec(kind=kind, epsilon=eps, sigma=0.2 if kind == "phi_m1_lin" else None)
        space = build_space(mesh, spec)
        system = assemble_standard(space, eps) if spec is None else assemble_enriched(space, eps, t_max=grid.T)
        data = (ZeroSolution1D if dim == 1 else ZeroSolution2D)(eps).problem()
        history = advance(space, system, data, grid).history
        assert history.shape == (6, space.total_dofs)
        assert np.all(history == 0.0)


def _reference_march(space, eps, data, grid):
    """Implicit Euler as it was before the block solver: every level's
    stacked system and cross mass matrix (sparse bmat) from an assembly
    without a split time, each solved by a fresh dense Cholesky."""
    system = assemble_enriched(space, eps)
    parts = system.parts
    load = parts["make_load"](data.source)
    u = project_initial(space, system, data.u0_initial)
    history = [u]
    old = parts["rebuild"](grid.times[0])
    for t in grid.times[1:]:
        new = parts["rebuild"](t, old)
        mass, stiff = stack(system.mss, new.msl, new.mee), stack(system.ass, new.asl, new.aee)
        cross = sp.bmat([[system.mss, old.msl], [new.msl.T, sp.csr_matrix(new.cee)]], format="csr")
        rhs = cross @ u + grid.dt * load(t, phi_vals=new.phi)
        u = sla.cho_solve(sla.cho_factor((mass + grid.dt * stiff).toarray()), rhs)
        history.append(u)
        old = new
    return np.array(history)


# 1D N = 50 and disk B = 26 at eps 1e-5 and 1e-8, except that the disk's
# moving kinds take 1e-4 for 1e-5: at B = 26 their heat layer reaches the
# second interior ring only from there
_MARCH_CASES = [
    (dim, kind, 1e-4 if (dim, eps) == (2, 1e-5) and kind in ("phi0", "phi0_tilde") else eps)
    for dim in (1, 2)
    for kind in ("phi0", "phi0_tilde", "phi_m1", "phi_m1_lin")
    for eps in (1e-5, 1e-8)
]


class TestBlockMarch:
    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("dim, kind, eps", _MARCH_CASES)
    def test_matches_refactored_reference(self, dim, kind, eps):
        # the march with the fixed quadrature points summed once (on one K_ss
        # factor and a Schur complement per level for the moving kinds, on
        # one stacked factor for the fixed ones), against each level
        # restacked and factored anew
        T, grid = 1.0, TimeGrid(T=1.0, n_steps=4)
        mesh = build_interval_mesh(50) if dim == 1 else build_disk_mesh(26)
        sigma = None
        if kind == "phi_m1_lin":
            sigma = mesh.h if dim == 1 else min(3.0 * mesh.outer_ring_width, 0.5)
        spec = EnrichmentSpec(kind=kind, epsilon=eps, sigma=sigma)
        space = build_space(mesh, spec)
        data = (ExactSolution1D(eps) if dim == 1 else ExactSolution2D(eps)).problem()
        system = assemble_enriched(space, eps, t_max=T)
        rows = system.moving_rows
        if not spec.time_dependent:
            assert len(rows) == 0
        else:
            assert schur_pays(space.n_standard, space.n_enriched, len(rows), grid.n_steps)
            if dim == 2 and eps == 1e-4:
                # the heat layer reaches past the outermost interior ring
                radii = np.hypot(*mesh.nodes[space.interior_nodes[rows]].T)
                assert len(np.unique(np.round(radii, 9))) >= 2
        got = advance(space, system, data, grid).history
        want = _reference_march(space, eps, data, grid)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("kind", ["phi0", "phi0_tilde"])
    def test_wide_layer_steps_on_stacked_levels(self, kind):
        # the heat layer covers every ring: too many moving rows for the
        # Schur path to pay over two levels, so each level's stacked matrix
        # is factored
        eps, T, grid = 2e-3, 1.0, TimeGrid(T=1.0, n_steps=2)
        space = build_space(build_disk_mesh(26), EnrichmentSpec(kind=kind, epsilon=eps))
        data = ExactSolution2D(eps).problem()
        system = assemble_enriched(space, eps, t_max=T)
        rows = system.moving_rows
        assert len(rows) > 0.8 * space.n_standard
        assert not schur_pays(space.n_standard, space.n_enriched, len(rows), grid.n_steps)
        got = advance(space, system, data, grid).history
        want = _reference_march(space, eps, data, grid)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("dim", [1, 2])
    def test_fixed_profile_steps_on_one_stacked_factor(self, dim, monkeypatch):
        # one level: a single factorization of the stacked matrix, no K_ss
        # factor and no Schur complement
        import blfem.linsolve as linsolve

        factors = []
        real = linsolve.SpdSolver

        class Counting(real):
            def __init__(self, matrix, *args, **kwargs):
                factors.append(matrix.shape[0])
                super().__init__(matrix, *args, **kwargs)

        monkeypatch.setattr(linsolve, "SpdSolver", Counting)
        eps = 1e-5
        space = build_space(build_interval_mesh(50) if dim == 1 else build_disk_mesh(16), EnrichmentSpec("phi_m1", eps))
        system = assemble_enriched(space, eps, t_max=1.0)
        data = (ExactSolution1D(eps) if dim == 1 else ExactSolution2D(eps)).problem()
        advance(space, system, data, TimeGrid(T=1.0, n_steps=4))
        assert factors == [space.total_dofs] * 2  # the projection, then the march

    def test_standard_space_bit_identical_to_one_factor(self):
        # without enrichment the block solver is the K_ss factor alone
        eps, grid = 1e-3, TimeGrid(T=1.0, n_steps=5)
        space = build_space(build_interval_mesh(30))
        system = assemble_standard(space, eps)
        data = ExactSolution1D(eps).problem()
        load = system.parts["make_load"](data.source)
        k = (system.mss + grid.dt * system.ass).toarray()
        u = project_initial(space, system, data.u0_initial)
        got = advance(space, system, data, grid).history
        for n, t in enumerate(grid.times[1:], start=1):
            u = np.linalg.solve(k, system.mss @ u + grid.dt * load(t))
            assert np.allclose(got[n], u, rtol=0.0, atol=1e-14 * np.max(np.abs(u)))

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("dim", [1, 2])
    def test_failed_schur_cholesky_tagged_with_step(self, dim):
        # negated enriched Gram blocks from the second level on leave K_ss
        # positive definite but not the Schur complement
        eps = 1e-4
        spec = EnrichmentSpec(kind="phi0_tilde", epsilon=eps)
        space = build_space(build_interval_mesh(20) if dim == 1 else build_disk_mesh(16), spec)
        system = assemble_enriched(space, eps, t_max=1.0)
        rebuild = system.parts["rebuild"]

        def negated(t, previous=None):
            level = rebuild(t, previous)
            return dataclasses.replace(level, mee=-level.mee, aee=-level.aee) if t > 0.5 else level

        system.parts["rebuild"] = negated
        data = (ExactSolution1D(eps) if dim == 1 else ExactSolution2D(eps)).problem()
        with pytest.raises(NotPositiveDefinite, match="time step 3: enriched Schur complement"):
            advance(space, system, data, TimeGrid(T=1.0, n_steps=4))

    def test_level_past_split_time_rejected(self):
        spec = EnrichmentSpec(kind="phi0", epsilon=1e-4)
        space = build_space(build_interval_mesh(20), spec)
        rebuild = assemble_enriched(space, 1e-4, t_max=0.5).parts["rebuild"]
        rebuild(0.5)
        with pytest.raises(ValueError, match="past the split time"):
            rebuild(0.75)
