"""Manufactured solutions, error norms, oscillation index, convergence
machinery, CSV schema, and the epsilon-rate reference solver."""

import math
from dataclasses import astuple

import numpy as np
import pytest

from blfem.analysis import (
    CSV_HEADER,
    PROBLEMS,
    ConvergenceTable,
    ExactSolution1D,
    ExactSolution2D,
    SmoothSolution1D,
    ZeroSolution1D,
    _graded_grid,
    compute_error_report,
    epsilon_rate_study,
    fit_loglog,
    format_csv_row,
    oscillation_index,
    remainder_reference_1d,
    run_convergence_study,
    solve_scenario,
    write_convergence_csv,
)
from blfem.assembly import assemble_enriched, build_space
from blfem.corrector import ENRICHMENT_KINDS, EnrichmentSpec, enrichment_profile, source_values
from blfem.mesh import build_disk_mesh, build_interval_mesh
from blfem.timestep import TimeGrid, advance
from helpers import CLOSED_FORMS, coupling_layout_2d, enriched_terms, unfused_1d


class TestManufacturedSolution1D:
    def test_pde_residual_by_finite_differences(self):
        # u_t - eps u_xx = f at random points, 4th-order central differences
        eps = 1e-3
        exact = ExactSolution1D(eps)
        rng = np.random.default_rng(42)
        x = rng.uniform(0.02, 0.98, 200)
        t = rng.uniform(0.2, 1.0, 200)
        h = math.sqrt(eps) / 50.0
        ut = (exact.u(x, t + h) - exact.u(x, t - h)) / (2.0 * h)
        stencil = (
            -exact.u(x + 2 * h, t)
            + 16.0 * exact.u(x + h, t)
            - 30.0 * exact.u(x, t)
            + 16.0 * exact.u(x - h, t)
            - exact.u(x - 2 * h, t)
        ) / (12.0 * h**2)
        resid = ut - eps * stencil - exact.f(x, t)
        scale = np.max(np.abs(exact.f(x, t)))
        assert np.max(np.abs(resid)) < 1e-5 * scale

    def test_derivative_consistency(self):
        eps = 1e-3
        exact = ExactSolution1D(eps)
        x = np.linspace(0.01, 0.99, 97)
        h = 1e-6
        fd = (exact.u(x + h, 0.7) - exact.u(x - h, 0.7)) / (2.0 * h)
        assert exact.grad(x, 0.7).shape == (97, 1)
        assert np.allclose(exact.grad(x, 0.7)[:, 0], fd, rtol=1e-6, atol=1e-8)

    def test_boundary_and_initial_conditions(self):
        exact = ExactSolution1D(1e-5)
        assert exact.u(0.0, 0.7) == 0.0
        assert exact.u(1.0, 0.7) == pytest.approx(0.0, abs=1e-14)
        assert np.all(exact.u0(np.linspace(0, 1, 11)) == 0.0)


class TestManufacturedSolution1DFused:
    @pytest.mark.parametrize("eps", [1e-5, 1e-8])
    def test_bit_identical_to_unfused_formulas(self, eps):
        exact = ExactSolution1D(eps)
        rng = np.random.default_rng(7)
        near = np.sqrt(eps) * rng.uniform(0.0, 40.0, 500)
        x = np.concatenate([[0.0, 1.0, 0.5], rng.uniform(0.0, 1.0, 2000), near, 1.0 - near])
        for t in (0.0, 0.3, 1.0):
            want = unfused_1d(eps, x, t)
            for got, ref in zip((exact.u(x, t), exact.grad(x, t)[:, 0], exact.f(x, t)), want):
                assert got.tobytes() == ref.tobytes()
            u, g = exact.value_and_grad(x, t)
            assert u.tobytes() == want[0].tobytes() and g[:, 0].tobytes() == want[1].tobytes()
        # scalar input
        for got, ref in zip((exact.u(0.25, 0.5), exact.grad(0.25, 0.5)[0], exact.f(0.25, 0.5)), unfused_1d(eps, 0.25, 0.5)):
            assert float(got) == float(ref)


class TestBoundSources:
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_bound_source_bit_identical_to_pointwise(self, name):
        # the declared terms sum to the closed form its class evaluated
        # before it declared them, and f sums them
        eps = 1e-5
        exact = PROBLEMS[name](eps)
        plain = CLOSED_FORMS[name]
        rng = np.random.default_rng(5)
        near = np.sqrt(eps) * rng.uniform(0.0, 40.0, 100)
        x = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 300), near, 1.0 - near])
        coords = (x,) if exact.dim == 1 else (0.7 * x, 0.7 * (1.0 - x))
        terms = exact.source(*coords)
        for t in (0.0, 0.37, 1.0):
            got = source_values(terms, t)
            assert got.tobytes() == exact.f(*coords, t).tobytes()
            assert got.tobytes() == plain(eps, *coords, t).tobytes()

    def test_problem_carries_the_bound_source(self):
        exact = ExactSolution1D(1e-5)
        data = exact.problem()
        x = np.linspace(0.0, 1.0, 7)
        assert source_values(data.source(x), 0.5).tobytes() == unfused_1d(1e-5, x, 0.5)[2].tobytes()
        assert data.source == exact.source


class TestManufacturedSolution2D:
    def test_pde_residual_radial(self):
        # u_t - eps (u_rr + u_r / r) = f via finite differences of u on the
        # radial section (r, 0), with u_r the x-slope of grad there
        eps = 1e-4
        exact = ExactSolution2D(eps)
        rng = np.random.default_rng(3)
        r = rng.uniform(0.3, 0.995, 200)
        t = rng.uniform(0.2, 1.0, 200)
        h = math.sqrt(eps) / 50.0
        u = lambda r, t: exact.u(r, 0.0, t)
        ut = (u(r, t + h) - u(r, t - h)) / (2.0 * h)
        urr = (
            -u(r + 2 * h, t)
            + 16.0 * u(r + h, t)
            - 30.0 * u(r, t)
            + 16.0 * u(r - h, t)
            - u(r - 2 * h, t)
        ) / (12.0 * h**2)
        ur = exact.grad(r, 0.0, t)[:, 0]
        resid = ut - eps * (urr + ur / r) - np.exp(t)
        assert np.max(np.abs(resid)) < 1e-5 * math.e

    def test_boundary_condition_on_circle(self):
        exact = ExactSolution2D(1e-8)
        ang = np.linspace(0.0, 2.0 * np.pi, 17)
        assert np.max(np.abs(exact.u(np.cos(ang), np.sin(ang), 0.9))) < 1e-14

    def test_gradient_is_radial(self):
        exact = ExactSolution2D(1e-4)
        g = exact.grad(0.6, 0.0, 0.5)
        assert g[1] == 0.0
        h = 1e-7
        fd = (exact.u(0.6 + h, 0.0, 0.5) - exact.u(0.6 - h, 0.0, 0.5)) / (2.0 * h)
        assert g[0] == pytest.approx(fd, rel=1e-6)

    def test_interior_plateau(self):
        # away from the layer the solution is exp(t) to exponential accuracy
        exact = ExactSolution2D(1e-8)
        assert exact.u(0.5, 0.0, 1.0) == pytest.approx(math.e, rel=1e-12)


class TestErrorNorms:
    def test_exact_coefficients_give_small_error(self):
        # interpolating the smooth solution gives O(h^2) relative error
        eps = 1e-2
        exact = SmoothSolution1D(eps)
        space = build_space(build_interval_mesh(64))
        coeffs = exact.u(space.mesh.nodes[space.interior_nodes], 1.0)
        rel = compute_error_report(space, coeffs, exact, 1.0, eps).rel_l2
        assert rel < 1e-3

    def test_norm_quadrature_self_consistency(self):
        eps = 1e-5
        exact = ExactSolution1D(eps)
        space = build_space(build_interval_mesh(20))
        coeffs = exact.u(space.mesh.nodes[space.interior_nodes], 1.0)
        r1 = compute_error_report(space, coeffs, exact, 1.0, eps, refine=1).rel_l2
        r2 = compute_error_report(space, coeffs, exact, 1.0, eps, refine=2).rel_l2
        r3 = compute_error_report(space, coeffs, exact, 1.0, eps, refine=3).rel_l2
        assert abs(r1 - r2) < 1e-5 * max(r1, r2)  # default rule accuracy
        assert abs(r2 - r3) < 1e-10 * max(r2, r3)  # converged thereafter

    def test_zero_exact_solution_guarded(self):
        eps = 1e-3
        exact = ZeroSolution1D(eps)
        space = build_space(build_interval_mesh(10))
        coeffs = np.zeros(space.n_standard)
        report = compute_error_report(space, coeffs, exact, 1.0, eps)
        assert math.isnan(report.rel_l2)
        assert report.abs_l2 == 0.0
        assert report.h1_seminorm_error == 0.0 and report.oscillation_index == 0.0

    def test_zero_numerical_solution_gives_rel_one(self):
        eps = 1e-3
        exact = SmoothSolution1D(eps)
        space = build_space(build_interval_mesh(20))
        rel = compute_error_report(space, np.zeros(space.n_standard), exact, 1.0, eps).rel_l2
        assert rel == pytest.approx(1.0, rel=1e-10)


class TestErrorReportFieldOnce:
    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("dim", [1, 2])
    def test_field_evaluated_once_and_errors_unchanged(self, dim, monkeypatch):
        import blfem.analysis as analysis

        if dim == 1:
            _, sol, space, exact = solve_scenario(1, 1e-5, 50, 1.0, 0.25, "nfem", "phi0_tilde")
        else:
            _, sol, space, exact = solve_scenario(2, 1e-5, 16, 1.0, 0.25, "nfem", "phi0_tilde")
        coeffs, eps = sol.final, 1e-5
        # references: each quantity from its own evaluation of the field
        layout = analysis._element_rules(space.mesh, eps)
        field = analysis._discrete_field(space, coeffs, layout.points, layout.element, layout.bary, 1.0)
        err2, ex2, _, _ = analysis._error_integrals(exact, 1.0, layout, field)
        rel = float(np.sqrt(err2 / ex2))
        ue = exact.u(*np.atleast_2d(layout.points.T), 1.0)
        osc = oscillation_index(space, exact, 1.0, layout, field[0], ue)
        calls = []
        shared = analysis._discrete_field
        monkeypatch.setattr(analysis, "_discrete_field", lambda *a, **k: calls.append(1) or shared(*a, **k))
        sizes = {"u": [], "value_and_grad": []}

        class CountingExact:
            def __getattr__(self, attr):
                return getattr(exact, attr)

            def u(self, *args):
                sizes["u"].append(np.size(args[0]))
                return exact.u(*args)

            def value_and_grad(self, *args):
                sizes["value_and_grad"].append(np.size(args[0]))
                return exact.value_and_grad(*args)

        report = compute_error_report(space, coeffs, CountingExact(), 1.0, eps)
        assert len(calls) == 1
        # the exact solution too: once at each of the layout's points, by chunks
        assert sum(sizes["value_and_grad"]) == layout.weights.size
        assert max(sizes["value_and_grad"]) <= analysis._chunks(layout.weights.size)[0].stop
        assert layout.weights.size not in sizes["u"]
        assert report.rel_l2 == rel
        assert report.oscillation_index == osc
        calls.clear()
        refined = compute_error_report(space, coeffs, exact, 1.0, eps, refine=2)
        assert refined.oscillation_index == osc  # read on the unrefined layout
        assert len(calls) == 2

    @pytest.mark.parametrize("kind", ["phi_m1_lin", "phi0"])
    def test_1d_enrichment_read_only_within_support(self, kind, monkeypatch):
        import blfem.analysis as analysis
        import blfem.assembly as assembly

        eps = 1e-5
        _, sol, space, exact = solve_scenario(1, eps, 50, 1.0, 0.25, "nfem", kind)
        layout = analysis._element_rules(space.mesh, eps)
        x = layout.points
        inside = np.minimum(x, 1.0 - x) <= space.enrichment.support
        # reference: the enriched terms at every point, masked or not
        nodal = np.zeros(len(space.mesh.nodes))
        nodal[space.interior_nodes] = sol.final[: space.n_standard]
        c = nodal[space.mesh.elements[layout.element]]
        cols, evals, egrads = enriched_terms(space, x, 1.0)
        ec = sol.final[space.n_standard :][cols]
        ref_vals = np.sum(layout.bary * c, axis=1) + np.einsum("pj,pj->p", ec, evals)
        ref_grads = np.einsum("pk,pkd->pd", c, assembly._hat_gradients(space.mesh)[layout.element])
        ref_grads += np.einsum("pj,pjd->pd", ec, egrads)
        vals, grads = assembly._discrete_field(space, sol.final, x, layout.element, layout.bary, 1.0)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(grads, ref_grads)
        sizes = []
        profile = assembly.enrichment_profile
        counting = lambda spec, xi, t=None: sizes.append(np.size(xi)) or profile(spec, xi, t)
        monkeypatch.setattr(assembly, "enrichment_profile", counting)
        compute_error_report(space, sol.final, exact, 1.0, eps)
        # x for the left column and 1 - x for the right one, each only within
        # its own support
        support = space.enrichment.support
        assert sizes == [np.count_nonzero(x <= support) + np.count_nonzero(1.0 - x <= support)]
        if kind == "phi_m1_lin":  # sigma = h: 48 of the 896 points, each near one end only
            assert sizes == [48] and np.count_nonzero(inside) == 48 and x.size == 896


def _same_report(a, b):
    """Every field of two error reports equal to the bit."""
    return all(np.float64(x).tobytes() == np.float64(y).tobytes() for x, y in zip(astuple(a), astuple(b)))


class TestErrorReuse:
    """A 2D run's error report reads the run's one layout and the final
    coefficients, with the march freed before it starts."""

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("eps", [1e-5, 1e-8])
    @pytest.mark.parametrize("scheme, kind", [("sfem", None)] + [("nfem", k) for k in ENRICHMENT_KINDS])
    def test_report_from_run_values_equals_evaluated(self, scheme, kind, eps):
        import blfem.analysis as analysis

        report, sol, space, exact = solve_scenario(2, eps, 16, 0.5, 0.25, scheme, kind or "phi_m1_lin")
        layout = analysis._element_rules(space.mesh, eps)
        evaluated = compute_error_report(space, sol.final, exact, 0.5, eps, runtime=report.runtime, layout=layout)
        assert _same_report(report, evaluated)

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("kind", ["phi_m1_lin", "phi0_tilde"])
    def test_march_freed_before_the_report(self, kind, monkeypatch):
        # the run's rebuild and make_load, and the operators they hold, are
        # gone when the report starts, and the solution keeps no system
        import weakref

        import blfem.analysis as analysis

        refs, alive = [], []
        assemble, report = analysis.assemble_enriched, analysis.compute_error_report

        def assemble_and_watch(*args, **kwargs):
            system = assemble(*args, **kwargs)
            refs.extend(weakref.ref(system.parts[key]) for key in ("make_load", "rebuild"))
            return system

        def report_and_look(*args, **kwargs):
            alive.extend(ref() is not None for ref in refs)
            return report(*args, **kwargs)

        monkeypatch.setattr(analysis, "assemble_enriched", assemble_and_watch)
        monkeypatch.setattr(analysis, "compute_error_report", report_and_look)
        _, sol, _, _ = solve_scenario(2, 1e-5, 16, 0.5, 0.25, "nfem", kind)
        assert len(refs) == 2 and alive == [False, False]
        assert not hasattr(sol, "system")

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("kind", ["phi0", "phi0_tilde"])
    def test_refined_norms_equal_evaluated(self, kind):
        import blfem.analysis as analysis

        eps = 1e-5
        report, sol, space, exact = solve_scenario(2, eps, 16, 0.5, 0.25, "nfem", kind, refine=2)
        layout = analysis._element_rules(space.mesh, eps)
        evaluated = compute_error_report(
            space, sol.final, exact, 0.5, eps, refine=2, runtime=report.runtime, layout=layout
        )
        assert _same_report(report, evaluated)

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("scheme, kind", [("sfem", None)] + [("nfem", k) for k in ENRICHMENT_KINDS])
    def test_report_evaluates_the_profile_at_T_once_per_support_point(self, scheme, kind, monkeypatch):
        # the report's one profile evaluation: at T, chunk by chunk, on the
        # points of the support triangles in layout order, each once; a
        # standard run evaluates none.  At B = 26 the support triangles are
        # 185 (phi_m1_lin: 129) of the 212
        import blfem.analysis as analysis
        import blfem.assembly as assembly

        calls, phase = {"run": [], "report": []}, ["run"]
        profile, report = assembly.enrichment_profile, analysis.compute_error_report

        def recorded_profile(spec, xi, t=None, *args, **kwargs):
            calls[phase[0]].append((np.array(xi, copy=True), t))
            return profile(spec, xi, t, *args, **kwargs)

        def recorded_report(*args, **kwargs):
            phase[0] = "report"
            try:
                return report(*args, **kwargs)
            finally:
                phase[0] = "run"

        monkeypatch.setattr(assembly, "enrichment_profile", recorded_profile)
        monkeypatch.setattr(analysis, "compute_error_report", recorded_report)
        _, _, space, _ = solve_scenario(2, 1e-5, 26, 0.5, 0.25, scheme, kind or "phi_m1_lin")
        if scheme == "sfem":
            assert calls == {"run": [], "report": []}
            return
        assert calls["run"] and calls["report"]
        assert all(t == 0.5 for _, t in calls["report"])
        layout = analysis._element_rules(space.mesh, 1e-5)
        xi = coupling_layout_2d(space, layout).xi
        assert len(xi) < len(layout.points)
        assert np.concatenate([x for x, _ in calls["report"]]).tobytes() == xi.tobytes()

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("kind", ["phi0", "phi0_tilde"])
    def test_no_split_time_final_level_is_the_profile_at_T(self, kind):
        # without t_max every point of a time-dependent kind moves, and the
        # march ends on the level of the profile at T at every support point
        import blfem.analysis as analysis

        eps = 1e-5
        exact = ExactSolution2D(eps)
        space = build_space(build_disk_mesh(16), EnrichmentSpec(kind=kind, epsilon=eps))
        layout = analysis._element_rules(space.mesh, eps)
        sol = advance(space, assemble_enriched(space, eps, layout=layout), exact.problem(), TimeGrid(T=0.5, n_steps=2))
        want = enrichment_profile(space.enrichment, coupling_layout_2d(space, layout).xi, 0.5)[0]
        assert sol.level.phi.tobytes() == want.tobytes()


class TestOscillationIndex:
    def test_interpolant_of_smooth_solution_has_zero_index(self):
        eps = 1e-2
        exact = SmoothSolution1D(eps)
        space = build_space(build_interval_mesh(16))
        coeffs = exact.u(space.mesh.nodes[space.interior_nodes], 1.0)
        assert compute_error_report(space, coeffs, exact, 1.0, eps).oscillation_index == 0.0

    def test_detects_overshoot(self):
        eps = 1e-2
        exact = SmoothSolution1D(eps)
        space = build_space(build_interval_mesh(16))
        coeffs = exact.u(space.mesh.nodes[space.interior_nodes], 1.0)
        coeffs[0] += 1.0  # spike in the left boundary strip
        idx = compute_error_report(space, coeffs, exact, 1.0, eps).oscillation_index
        assert idx > 0.2

    def test_interior_wiggles_ignored(self):
        eps = 1e-2
        exact = SmoothSolution1D(eps)
        space = build_space(build_interval_mesh(16))
        coeffs = exact.u(space.mesh.nodes[space.interior_nodes], 1.0)
        mid = len(coeffs) // 2
        coeffs[mid] += 1.0  # outside the boundary strip
        assert compute_error_report(space, coeffs, exact, 1.0, eps).oscillation_index == 0.0


class TestFitAndCsv:
    def test_fit_loglog_recovers_power(self):
        xs = [0.1, 0.05, 0.025, 0.0125]
        ys = [3.0 * x**1.7 for x in xs]
        slope, resid = fit_loglog(xs, ys)
        assert slope == pytest.approx(1.7, abs=1e-12)
        assert resid < 1e-12

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog([1.0], [2.0])

    def test_csv_row_format(self):
        row = {
            "scheme": "nfem",
            "epsilon": 1e-5,
            "h": 1.0 / 3.0,
            "dofs": 51,
            "dt": 0.01,
            "T": 1.0,
            "rel_l2": 0.123456789012345,
            "h1_err": 2.5,
            "osc_index": 0.0,
            "runtime_s": 0.25,
        }
        line = format_csv_row(row)
        fields = line.split(",")
        assert fields[0] == "nfem"
        assert fields[1] == "1e-05"
        assert fields[2] == "0.3333333333"  # 10 significant digits
        assert fields[3] == "51"
        assert fields[6] == "0.123456789"

    def test_write_convergence_csv(self, tmp_path):
        table = ConvergenceTable()
        table.rows.append(
            {
                "scheme": "sfem", "epsilon": 1e-5, "h": 0.02, "dofs": 49,
                "dt": 0.01, "T": 1.0, "rel_l2": 0.5, "h1_err": 1.0,
                "osc_index": 0.1, "runtime_s": 0.0,
            }
        )
        path = tmp_path / "out.csv"
        write_convergence_csv(table, path, header_comments=["alpha = 1"])
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "# alpha = 1"
        assert lines[1] == CSV_HEADER
        assert lines[2].startswith("sfem,1e-05,0.02,49,")


class TestSolveScenario:
    def test_sfem_small_problem(self):
        report, fieldsol, space, exact = solve_scenario(1, 1e-2, 8, 0.5, 0.1, "sfem")
        assert report.dofs == 7
        assert 0.0 < report.rel_l2 < 1.0
        assert report.h == pytest.approx(0.125)

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError):
            solve_scenario(1, 1e-2, 8, 0.5, 0.1, "sfem", problem="nope")
        with pytest.raises(ValueError):
            solve_scenario(1, 1e-2, 8, 0.5, 0.1, "bogus")

    def test_dt_must_tile_interval(self):
        with pytest.raises(ValueError):
            solve_scenario(1, 1e-2, 8, 1.0, 0.3, "sfem")

    def test_dt_tiling_is_relative_to_T(self, monkeypatch):
        # dt = T / n tiles [0, T] for every n however long the run, though
        # n * dt may miss T by rounding alone (by 1.8e-12 at T = 1e4, n = 139);
        # a dt off by more than rounding still does not
        import blfem.analysis as analysis

        assert abs(139 * (1e4 / 139) - 1e4) > 1e-12
        monkeypatch.setattr(analysis, "build_interval_mesh", None)  # reached past the checks
        for T in (1e4, 1e5):
            for n in range(1, 200):
                with pytest.raises(TypeError):
                    solve_scenario(1, 1e-2, 8, T, T / n, "sfem")
            with pytest.raises(ValueError, match="does not tile"):
                solve_scenario(1, 1e-2, 8, T, T / 139 * (1.0 + 1e-9), "sfem")

    def test_smooth_problem_nfem_matches_sfem(self):
        # on a layer-free problem the enrichment must not hurt: the layer
        # coefficients stay tiny and both schemes agree closely
        rs, _, _, _ = solve_scenario(1, 1e-2, 16, 0.5, 0.05, "sfem", problem="smooth1d")
        rn, fieldsol, space, _ = solve_scenario(1, 1e-2, 16, 0.5, 0.05, "nfem", problem="smooth1d")
        assert rn.rel_l2 < 2.0 * rs.rel_l2
        assert np.max(np.abs(fieldsol.final[space.n_standard :])) < 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [dict(dt=0.0), dict(T=0.0), dict(epsilon=-1e-3), dict(refine=0), dict(sigma=-1.0), dict(sigma=0.0)],
    )
    def test_invalid_inputs_rejected_before_meshing(self, kwargs, monkeypatch):
        import blfem.analysis as analysis

        monkeypatch.setattr(analysis, "build_interval_mesh", None)  # never reached
        args = dict(dim=1, epsilon=1e-2, level=8, T=0.5, dt=0.1, scheme="sfem") | kwargs
        with pytest.raises(ValueError):
            solve_scenario(**args)

    def test_problem_must_match_dimension(self):
        with pytest.raises(ValueError, match="unknown 1D problem"):
            solve_scenario(1, 1e-2, 8, 0.5, 0.1, "sfem", problem="exact2d")
        with pytest.raises(ValueError, match="dim must be 1 or 2"):
            run_convergence_study(3, 1e-2, [4, 8, 16])

    def test_study_validates_before_first_solve(self, monkeypatch):
        import blfem.analysis as analysis

        monkeypatch.setattr(analysis, "solve_scenario", None)  # never reached
        for kwargs in (
            dict(dim=1, levels=[]),
            dict(dim=1, levels=[4, 8, 1]),
            dict(dim=2, levels=[16, 7, 26]),
            dict(dim=1, levels=[4, 8, 16], schemes=("sfem", "magic")),
            dict(dim=1, levels=[4, 8, 16], schemes=()),
            dict(dim=1, levels=[4, 8, 16], problem="zero2d"),
            dict(dim=1, levels=[4, 8, 16], problem="zero1d"),
            dict(dim=2, levels=[16, 20, 26], problem="zero2d"),
        ):
            with pytest.raises(ValueError):
                run_convergence_study(epsilon=1e-2, **kwargs)

    def test_numerical_failure_recorded_and_study_continues(self, monkeypatch):
        import blfem.analysis as analysis
        from blfem.linsolve import NotPositiveDefinite

        real = analysis.solve_scenario

        def flaky(dim, epsilon, level, *args, **kwargs):
            if level == 8 and args[2] == "sfem":
                raise NotPositiveDefinite("pivot 3 is not positive")
            return real(dim, epsilon, level, *args, **kwargs)

        monkeypatch.setattr(analysis, "solve_scenario", flaky)
        table = run_convergence_study(1, 1e-2, [4, 8, 16], T=0.5, dt=0.05, timing=False)
        assert table.failures == ["scheme=sfem level=8: pivot 3 is not positive"]
        assert [(r["scheme"], r["h"]) for r in table.rows] == [
            ("nfem", 0.25), ("nfem", 0.125), ("nfem", 0.0625), ("sfem", 0.25), ("sfem", 0.0625),
        ]
        assert list(table.slopes) == ["nfem"]

    def test_run_convergence_study_structure(self):
        table = run_convergence_study(
            1, 1e-2, [4, 8, 16], T=0.5, dt=0.05, schemes=("sfem",), timing=False
        )
        rows = table.scheme_rows("sfem")
        assert len(rows) == 3
        hs = [r["h"] for r in rows]
        assert hs == sorted(hs, reverse=True)
        assert "sfem" in table.slopes
        assert all(r["runtime_s"] == 0.0 for r in rows)


class TestEpsilonRateMachinery:
    def test_graded_grid_resolves_layer(self):
        for eps in (1e-4, 1e-6):
            x = _graded_grid(eps)
            width = math.sqrt(eps)
            assert np.sum(x <= width) >= 10
            assert np.sum(x >= 1.0 - width) >= 10
            assert x[0] == 0.0 and x[-1] == pytest.approx(1.0)
            assert np.all(np.diff(x) > 0.0)

    def test_remainder_decreases_with_epsilon(self):
        g_xx = lambda x: -np.pi**2 * np.cos(np.pi * x)
        l2_a, h1_a = remainder_reference_1d(1e-3, g_xx, n_steps=200)
        l2_b, h1_b = remainder_reference_1d(1e-5, g_xx, n_steps=200)
        assert l2_b < l2_a
        assert l2_a > 0.0

    def test_rate_study_validation(self):
        with pytest.raises(ValueError):
            epsilon_rate_study(epsilons=(1e-3, 1e-4))

    @pytest.mark.parametrize(
        "kwargs", [dict(T=-1.0), dict(n_steps=0), dict(epsilons=(1e-3, 0.0, 1e-5)), dict(epsilons=(1e-3, -1e-4, 1e-5))]
    )
    def test_rate_study_rejects_bad_input_before_solving(self, monkeypatch, kwargs):
        import blfem.analysis as analysis

        monkeypatch.setattr(analysis, "remainder_reference_1d", None)  # never reached
        with pytest.raises(ValueError, match="must be"):
            epsilon_rate_study(**(dict(n_steps=10) | kwargs))

    def test_zero_source_is_degenerate(self):
        # g = 0 leaves no remainder at any eps, so there is no rate to fit
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        result = epsilon_rate_study(epsilons=(1e-2, 1e-3, 1e-4), g_xx=zero, n_steps=10)
        assert result.degenerate
        assert math.isnan(result.l2_slope) and math.isnan(result.h1_slope)
        assert result.l2_errors == result.h1_errors == (0.0, 0.0, 0.0)

    def test_given_g_xx_alone_is_solved_for(self):
        # g'' = 0 (g linear) is the source that is solved for, at the
        # default epsilons: no remainder, so the study is degenerate
        result = epsilon_rate_study(g_xx=lambda x: np.zeros_like(x), n_steps=10)
        assert result.degenerate and result.monotone
        assert result.l2_errors == result.h1_errors == (0.0,) * 4

    def test_degenerate_study_lists_epsilons_decreasing(self):
        # the degenerate result comes from the fitted one's path: epsilons
        # sorted once, decreasing, as float64
        zero = lambda x: np.zeros_like(x)
        result = epsilon_rate_study(epsilons=(1e-4, 1e-2, 1e-3), g_xx=zero, n_steps=10)
        assert result.degenerate
        assert result.epsilons == (1e-2, 1e-3, 1e-4)
        assert all(type(e) is np.float64 for e in result.epsilons)

    def test_unsorted_epsilons_give_the_sorted_study(self):
        # every solve is independent, so the input order changes no bit
        fitted = epsilon_rate_study(epsilons=(1e-2, 1e-3, 1e-4), n_steps=20)
        shuffled = epsilon_rate_study(epsilons=(1e-4, 1e-2, 1e-3), n_steps=20)
        assert shuffled == fitted
        assert fitted.epsilons == (1e-2, 1e-3, 1e-4) and not fitted.degenerate


class TestProblemTable:
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_u_grad_and_u0_follow_value_and_grad(self, name):
        # a problem declares value_and_grad and source; u, grad and u0 are
        # read from them bit for bit (u0 = u at t = 0), at random points of
        # its domain
        cls = PROBLEMS[name]
        rng = np.random.default_rng(17)
        if cls.dim == 1:
            coords = (rng.uniform(0.0, 1.0, 200),)
        else:
            r, theta = np.sqrt(rng.uniform(0.0, 1.0, 200)), rng.uniform(0.0, 2.0 * np.pi, 200)
            coords = (r * np.cos(theta), r * np.sin(theta))
        exact = cls(1e-4)
        value, grad = exact.value_and_grad(*coords, 0.7)
        assert grad.shape == value.shape + (cls.dim,)
        assert exact.u(*coords, 0.7).tobytes() == value.tobytes()
        assert exact.grad(*coords, 0.7).tobytes() == grad.tobytes()
        assert exact.u0(*coords).tobytes() == exact.u(*coords, 0.0).tobytes()
