"""Implicit Euler time stepping: grid validation, scalar oracle, stability,
temporal order, determinism, and tagged solver failures."""

import numpy as np
import pytest

import blfem.assembly
from blfem.analysis import ExactSolution1D, ExactSolution2D
from blfem.assembly import assemble_enriched, assemble_standard, build_space
from blfem.corrector import EnrichmentSpec, ProblemData
from blfem.linsolve import NoConvergence, SolverConfig
from blfem.mesh import build_disk_mesh, build_interval_mesh
from blfem.timestep import SolutionField, TimeGrid, advance


def _zero_data(epsilon=1e-2, T=1.0):
    return ProblemData(
        dim=1,
        f=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        u0_initial=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        epsilon=epsilon,
        T=T,
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
            f=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
            u0_initial=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            epsilon=eps,
            T=1.0,
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
            f=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
            u0_initial=lambda x: np.interp(x, space.mesh.nodes,
                                           np.sin(np.pi * space.mesh.nodes)),
            epsilon=eps,
            T=10.0,
        )
        for n_steps in (2, 100):
            sol = advance(space, system, data, TimeGrid(T=10.0, n_steps=n_steps))
            energies = [float(u @ (system.mass @ u)) for u in sol.history]
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
            f=lambda x, t: np.exp(2.0 * t) * np.asarray(x) * (1.0 - np.asarray(x)),
            u0_initial=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            epsilon=eps,
            T=1.0,
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
            sol = advance(space, system, exact.problem(1.0), TimeGrid(T=1.0, n_steps=10))
            runs.append(sol.history.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_solver_failure_tagged_with_step(self):
        space = build_space(build_interval_mesh(20))
        system = assemble_standard(space, 1e-2)
        exact = ExactSolution1D(1e-2)
        cfg = SolverConfig(method="cg_jacobi", rel_tolerance=1e-300)
        with pytest.raises(NoConvergence) as exc_info:
            advance(space, system, exact.problem(1.0), TimeGrid(T=1.0, n_steps=4), cfg)
        assert "time step 1:" in str(exc_info.value)
        assert exc_info.value.residual is not None


class TestTimeDependentEnrichment:
    def test_marches_and_stays_finite(self):
        eps = 1e-4
        spec = EnrichmentSpec(kind="phi0_tilde", epsilon=eps)
        space = build_space(build_interval_mesh(20), spec)
        system = assemble_enriched(space, eps, t=0.0)
        exact = ExactSolution1D(eps)
        sol = advance(space, system, exact.problem(0.5), TimeGrid(T=0.5, n_steps=5))
        assert np.all(np.isfinite(sol.history))
        assert np.linalg.norm(sol.final) > 0.0

    def test_initial_layer_coefficients_zero(self):
        eps = 1e-4
        spec = EnrichmentSpec(kind="phi0", epsilon=eps)
        space = build_space(build_interval_mesh(20), spec)
        system = assemble_enriched(space, eps, t=0.0)
        exact = ExactSolution1D(eps)
        sol = advance(space, system, exact.problem(0.2), TimeGrid(T=0.2, n_steps=2))
        assert np.all(sol.history[0, space.n_standard :] == 0.0)

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["phi0_tilde", "phi0"])
    def test_one_profile_evaluation_per_time_level(self, kind, dim, monkeypatch):
        eps, n_steps = 1e-4, 4
        spec = EnrichmentSpec(kind=kind, epsilon=eps)
        mesh = build_interval_mesh(20) if dim == 1 else build_disk_mesh(16)
        space = build_space(mesh, spec)
        system = assemble_enriched(space, eps, t=0.0)
        data = ExactSolution1D(eps).problem(1.0) if dim == 1 else ExactSolution2D(eps).problem(1.0)
        calls = {}
        for name in ("enrichment_profile", "enrichment_profile_dxi"):
            def counted(*args, _fn=getattr(blfem.assembly, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(blfem.assembly, name, counted)
        advance(space, system, data, TimeGrid(T=1.0, n_steps=n_steps))
        assert 0 < calls["enrichment_profile"] <= n_steps + 2
        assert 0 < calls["enrichment_profile_dxi"] <= n_steps + 2
